(** A System-R-style cost-based query optimizer.

    Dynamic programming over connected subsets of the join graph, with
    bushy trees, four join methods (block nested loops, index nested
    loops, sort-merge, hash), multiple access paths per table, and
    interesting-order bookkeeping for merge joins.  Plans are costed with
    a {e linear additive cost model}: every plan carries a resource usage
    vector [U] and its estimated total cost under resource costs [C] is
    [U . C] — exactly the optimizer contract the paper requires
    (Section 7.1) and the model used by commercial optimizers such as the
    DB2 8.1 optimizer characterized in the paper.

    The full result (including the usage vector) is the {e white-box}
    interface; {!Narrow} restricts it to what a commercial EXPLAIN
    facility exposes. *)

open Qsens_linalg
open Qsens_plan

type result = {
  plan : Node.t;
  total_cost : float;  (** [plan.usage . costs] *)
  signature : string;
}

val optimize : ?max_bushy_side:int -> Env.t -> Query.t -> costs:Vec.t -> result
(** [optimize env q ~costs] returns the plan minimizing estimated total
    cost under the resource cost vector [costs] (the estimated optimal
    plan of Section 3.3).  Raises [Invalid_argument] if [costs] does not
    match the layout's resource space, or [Failure] for queries with no
    relations or more than 16.

    {b Enumeration and ties.}  The result is a pure function of
    [(env, q, costs)], bit for bit.  Subsets run in increasing bit-mask
    order (bit [i] is the [i]-th relation of [q]).  Within a subset the
    ordered splits run by decreasing left mask.  For each split, every
    (left, right) variant pair is tried as a hash join (when a join edge
    crosses the split) and a block nested-loop join.  Then merge joins
    run, edge by edge.  Index nested-loop joins into each single
    relation come after all splits.  A subset keeps, per retention key —
    its interesting order, if any, and its output width — the first
    cheapest candidate: a later one replaces it only if strictly
    cheaper.  A finished subset's variants are enumerated in the
    retention key's string order (["alias.column#width"], so ["#120"]
    comes before ["#96"]).  The final plan is the first strictly
    cheapest of {!Node.finalize_variants} over the full set's variants,
    in that order.  Costs steer the search only through these
    comparisons.

    {b Skipped candidates.}  A hash, block nested-loop or merge
    candidate whose slot is taken is not costed when its children's
    costs already show it cannot be strictly cheaper than the occupant
    (DESIGN.md §17).  The skip only leaves out a comparison the
    candidate would lose, so the result is the same, bit for bit.  It
    still counts as an insertion attempt in [optimizer.memo_inserts];
    [optimizer.pruned] counts the skips. *)

val cost_of_plan : Node.t -> Vec.t -> float
(** Re-cost an existing plan under different resource costs (the paper's
    "what would this plan cost if the true costs were C" primitive). *)

val candidate_access_paths : Env.t -> Query.t -> string -> Node.t list
(** Exposed for tests: the access paths considered for an alias. *)
