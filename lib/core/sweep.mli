(** Separable delta-sweep cache for the worst-case analysis.

    By Observation 2 the worst-case global relative cost over the box
    [[c_i/delta, c_i*delta]^m] is attained at a box vertex.  A vertex is a
    sign pattern [s] — component [i] sits at [c_i*delta] when bit [i] of
    the pattern is set, at [c_i/delta] otherwise — so a plan's cost there
    separates as

    {[ U . C(delta) = delta * A_s(U) + (1/delta) * B_s(U) ]}

    with [A_s = sum over set bits of u_i*c_i] and [B_s] the complementary
    sum.  The [A]/[B] tables depend only on the plan set and the box
    {e center}, never on [delta]: build them once per curve, then every
    grid point costs two fused multiply-adds per (plan, vertex) instead of
    a fresh vertex enumeration with full dot products.

    One subset-sum table [S] per plan stores both halves:
    [A_s = S(pattern)] and [B_s = S(complement of pattern)].

    {2 Determinism contract}

    Subset sums accumulate in ascending component-index order (the
    highest-bit recurrence), vertex values use one shared
    [fma delta a (b * (1/delta))] with [1/delta] computed once per
    [eval], and the flat argmax scans plans in ascending original index
    and patterns in ascending order with strict improvement — so results
    are bit-identical for any pool size, and identical whether the tables
    are built once or rebuilt per delta.  Dominance pruning never changes
    the result: only a lower-index, componentwise-cheaper plan with a
    positive computed total prunes, and IEEE monotonicity of the whole
    evaluation chain guarantees the pruned plan never strictly beats its
    dominator at any vertex. *)

open Qsens_linalg

type t

val max_dim : int
(** Largest supported dimension (the tables hold [2^dim] entries per
    plan); equals {!Limits.exhaustive_max_dim}.  Beyond it, callers move
    to the branch-and-bound path ({!Bnb}), and past
    {!Limits.bnb_max_dim} to the linear-fractional fallback. *)

val supported : dim:int -> bool
(** [supported ~dim] — whether {!build} accepts this dimension. *)

val build :
  ?pool:Qsens_parallel.Pool.t ->
  ?prune:bool ->
  plans:Vec.t array ->
  initial:Vec.t ->
  center:Vec.t ->
  unit ->
  t
(** [build ~plans ~initial ~center ()] precomputes the per-plan subset-sum
    tables for boxes [Box.around center ~delta] at any [delta >= 1].
    [prune] (default true) drops dominated plans (Section 4.4) before the
    tables are built — result-identical by the determinism contract.
    With [?pool] the per-plan table fills run across domains (each plan's
    table is a disjoint slice, results bit-identical to sequential).

    Requires at least one plan, [supported ~dim:(Vec.dim center)],
    componentwise positive [center], and nonnegative [plans]/[initial];
    raises [Invalid_argument] otherwise. *)

val bytes : t -> int
(** Resident size in bytes, computed from the table dimensions (8 bytes
    per unboxed entry plus per-field overhead) — the honest [size_of]
    for the server's byte-budgeted caches; no marshalling involved. *)

val eval : ?budget:Qsens_budget.Budget.t -> t -> delta:float -> float * int
(** [eval t ~delta] is [(gtc, pattern)]: the worst-case GTC over
    [Box.around center ~delta] and the sign pattern of an attaining
    vertex ([Box.vertex box pattern]).  Ties break to the lowest
    (plan index, pattern) pair; NaN ratios are skipped.  [pattern = -1]
    means every plan was degenerate (plan and initial both everywhere
    zero): [gtc] is NaN and no vertex attains it — callers report the box
    center, as the fractional path does.  Raises [Invalid_argument] if
    [delta < 1].

    At [delta = 1] the box collapses to its center — every pattern names
    the same vertex up to summation order — so only pattern 0, the
    ascending scan's tie-winner, is evaluated.  {!Bnb.eval} applies the
    same shortcut, keeping the two paths bit-identical there too.

    With [?budget], each vertex about to be scanned charges one unit
    (a plan row at a time) and exhaustion raises
    {!Qsens_budget.Budget.Exhausted} — the cooperative checkpoint the
    graceful-degradation dispatchers rely on.  Budget checks never touch
    the float pipeline: a surviving eval is bit-identical to an
    unbudgeted one. *)

val vertex_value : delta:float -> inv:float -> float -> float -> float
(** [vertex_value ~delta ~inv a b] is [(delta *. a) +. (b *. inv)] — the
    vertex cost [delta*A + B/delta] with [inv = 1/delta], in exactly two
    roundings.  (Not [Float.fma]: without flambda that is a C call whose
    overhead dominates the unboxed grid scan.)  Exposed so tests and
    callers reproduce the kernel's exact bits. *)

(** Reusable buffers for {!eval_grid}'s hoisted numerator table and
    {!regret_grid}'s numerator and per-pattern minimum tables; they grow
    to the largest grid ever evaluated, then are reused.  Single-owner
    mutable state — never share one across domains. *)
module Scratch : sig
  type t

  val create : unit -> t
end

val eval_grid :
  ?scratch:Scratch.t ->
  t ->
  deltas:float array ->
  gtc:floatarray ->
  patterns:int array ->
  unit
(** [eval_grid t ~deltas ~gtc ~patterns] evaluates the whole delta grid,
    writing [eval t ~delta:deltas.(i)] into [gtc.(i)]/[patterns.(i)] —
    bit-identical to per-point {!eval} (including the [delta = 1]
    shortcut, tie-breaking and the degenerate NaN contract), at roughly
    half the FMA count: the numerator vertex values are plan-independent
    and are hoisted into the scratch once per delta instead of
    recomputed per kept plan.  Steady state (warm scratch, caller-owned
    buffers) allocates zero minor-heap words per grid point — the
    figure BENCH_kernel.json records and CI gates on.  No budget: the
    degradation ladder uses per-point {!eval}.  Raises
    [Invalid_argument] if a delta is below 1 or a buffer is shorter
    than [deltas]. *)

val regret_grid :
  ?budget:Qsens_budget.Budget.t ->
  ?scratch:Scratch.t ->
  t ->
  initials:Vec.t array ->
  deltas:float array ->
  out:float array array ->
  unit
(** [regret_grid t ~initials ~deltas ~out] writes into [out.(i).(c)]
    the worst-case GTC of [initials.(c)] against [t]'s plans at
    [deltas.(i)] — bit-identical to [fst (eval t' ~delta)] for [t'] the
    sweep built from the same plans and center with [initial :=
    initials.(c)], including the [delta = 1] shortcut and the NaN and
    [-inf] answers of an empty argmax — and counts [sweep.evals] and
    [wc.degenerate_ratios] as those evals would.  Minimax-regret
    selection scores every candidate this way (DESIGN.md section 19):
    per delta the kept plans' vertex costs are reduced once to a
    per-pattern minimum, and each candidate's numerators are divided by
    it — O((plans + candidates) * 2^dim) per delta instead of
    O(plans * candidates * 2^dim).  No witness patterns: the minimum
    does not say which plan attained it.

    With [?budget], the units those evals would charge are charged in
    one checkpoint before any scan, so the budget trips exactly when
    their total exceeds the allowance.  With a warm [?scratch] the call
    allocates no minor-heap words.  Raises [Invalid_argument] if a
    delta is below 1, an initial has the wrong dimension or a negative
    component, or [out] has fewer than [deltas] rows or a row shorter
    than [initials]. *)

(** {2 Introspection} (golden tests, diagnostics)

    [plan] indices refer to the original [plans] array; asking for a
    pruned plan raises [Invalid_argument]. *)

val dim : t -> int

val num_patterns : t -> int
(** [2^dim]: sign patterns per plan. *)

val kept : t -> int array
(** Original indices of the plans that survived pruning, ascending. *)

val center : t -> Vec.t

val plan_a : t -> plan:int -> pattern:int -> float
(** [A_s]: the subset sum of [u_i * c_i] over the set bits of
    [pattern]. *)

val plan_b : t -> plan:int -> pattern:int -> float
(** [B_s]: the complementary subset sum (cleared bits of [pattern]). *)

val initial_a : t -> pattern:int -> float

val initial_b : t -> pattern:int -> float

(** {2 Branch-and-bound evaluation}

    The same worst-case argmax as {!eval}, computed without the [2^dim]
    subset-sum tables: per delta, every kept plan becomes a
    {!Qsens_geom.Vertex_enum.Bnb} search pruned by the exact threshold
    bound (DESIGN.md sections 12 and 20).  Every surviving leaf
    re-derives the exact {!eval} ratio — ascending partial sums on both
    sides through {!vertex_value} — so wherever both paths are defined
    ([dim <= max_dim]) the results are bit-identical, including
    tie-breaking, degenerate-plan handling and the [delta = 1]
    shortcut. *)
module Bnb : sig
  type t

  val max_dim : int
  (** Largest supported dimension; equals {!Limits.bnb_max_dim}. *)

  val supported : dim:int -> bool

  val build :
    ?prune:bool ->
    plans:Vec.t array ->
    initial:Vec.t ->
    center:Vec.t ->
    unit ->
    t
  (** Same validation, dominance pruning and degenerate bookkeeping as
      the exhaustive {!build}, but only O(plans * dim) state: the
      weights [u_i * c_i].  Raises
      [Invalid_argument] under the same conditions, with the dimension
      gate at {!max_dim}. *)

  val rebind : t -> initial:Vec.t -> t
  (** [rebind t ~initial] is a search for the same plans and center but
      a different initial plan — bit-identical to a fresh {!build} with
      that initial.  Recomputes the numerator weights only;
      minimax-regret selection scores every candidate from one build
      this way.  Raises [Invalid_argument] on dimension mismatch or a
      negative component. *)

  val bytes : t -> int
  (** Resident size in bytes from the table dimensions; the [size_of]
      for the server's branch-and-bound cache. *)

  (** Reusable search state: one spec per live plan, the node pool and
      the stats record.  A scratch binds lazily to the search it is
      passed with (rebinding when handed a different one), so sweeping
      a grid against one search allocates nothing per point beyond the
      result.  Single-owner mutable state — never share one across
      domains, and never store one inside a server-cached value. *)
  module Scratch : sig
    type t

    val create : unit -> t
  end

  val eval :
    ?budget:Qsens_budget.Budget.t ->
    ?scratch:Scratch.t ->
    t ->
    delta:float ->
    float * int
  (** Bit-identical to the exhaustive [eval]: same [(gtc, pattern)],
      same ties, same [pattern = -1] degenerate contract.  With
      [?budget] every visited search node charges one unit and the
      search trips with {!Qsens_budget.Budget.Exhausted} iff the
      allowance is below its node count; otherwise it returns the
      unbudgeted result, having spent exactly that count. *)

  val eval_with_stats :
    ?budget:Qsens_budget.Budget.t ->
    ?scratch:Scratch.t ->
    t ->
    delta:float ->
    (float * int) * (int * int)
  (** [eval] plus [(nodes, leaves)] visited by the search — the honesty
      counters behind BENCH_highdim.json.  A function of the search and
      [delta] alone: the same with a cold scratch, a warm one or none. *)

  (** {3 Introspection} *)

  val dim : t -> int

  val kept : t -> int array
  (** Original indices of the plans that survived pruning, ascending. *)

  val center : t -> Vec.t
end
