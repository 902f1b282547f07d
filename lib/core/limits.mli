(** Dimension gates for the worst-case vertex machinery.

    The exhaustive subset-sum tables ({!Sweep}) pay [2^dim]; the
    branch-and-bound search ({!Sweep.Bnb}) prunes that exponential and
    extends the exact path well past the table gate.  Every dispatcher
    derives its cutoff from these constants — they are the single
    source of truth.

    The branch-and-bound gate is {e not} a quality cliff: its search
    state is [O(dim)], so the only hard wall is pattern bits in an
    [int].  Search-cost blowup (pathological near-tie plan sets where
    pruning degrades) is handled by a node {e budget} instead — see
    {!default_bnb_node_budget} and {!Worst_case.curve_with_path}. *)

val exhaustive_max_dim : int
(** Largest dimension the [2^dim]-table path accepts (currently 12).
    Doubles per dimension: past this the exhaustive tables stop
    paying. *)

val bnb_max_dim : int
(** Largest dimension the branch-and-bound vertex search accepts:
    [Sys.int_size - 2] (61 on 64-bit), the pattern-bit bound.  Search
    cost at any dimension is bounded by the node budget, not by this
    constant. *)

val default_bnb_node_budget : int
(** Default per-grid-point node allowance for budgeted branch-and-bound
    searches (currently 5e6 — a few milliseconds).  When a search trips
    it, {!Worst_case.curve_with_path} falls back to the linear-fractional
    path for that grid point and reports the degradation. *)

val exhaustive_gate_message : who:string -> dim:int -> string
(** Error text for an exhaustive-path overflow, naming the pruned path
    as the escape hatch. *)

val bnb_gate_message : who:string -> dim:int -> string
(** Error text for a branch-and-bound pattern-bit overflow. *)
