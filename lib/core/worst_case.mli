(** The worst-case analysis of Section 6.1.

    For an initial plan [p0] (optimal at the estimated costs) and the set
    of candidate optimal plans, the worst-case global relative cost at
    error bound [delta] is the maximum of [GTC_rel(p0, C)] over the
    feasible region [[1/delta, delta]^m] — how many times slower than
    optimal the optimizer's choice can turn out to be if every cost
    parameter is individually off by up to a factor [delta].  One point
    per [delta] yields the curves of Figures 5, 6 and 7. *)

open Qsens_linalg

type point = { delta : float; gtc : float; witness : Vec.t }

val default_deltas : float list
(** A log-spaced grid from 1 to 10^4, matching the figures' x-axis. *)

val curve :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  point list
(** [curve ~plans ~initial ()] — worst-case GTC of [initial] against
    [plans] for each delta.  Vectors live in the (active) group subspace,
    where the estimated cost point is the all-ones vector.

    Up to {!Sweep.max_dim} dimensions the sweep builds the separable
    subset-sum tables once ({!Sweep.build}) and evaluates every delta
    with two fused multiply-adds per (plan, vertex) — bit-identical to
    {!curve_naive}, which rebuilds the tables at every grid point.  From
    there up to {!Sweep.Bnb.max_dim} dimensions it switches to the
    branch-and-bound vertex search ({!curve_pruned} — bit-identical to
    the exhaustive path wherever both are defined) under the default
    per-grid-point node budget ({!Limits.default_bnb_node_budget}; a
    point whose search trips it degrades to the linear-fractional
    program for that point alone), and only beyond the pattern-bit bound
    to the linear-fractional fallback ({!curve_legacy}) outright.

    With [?pool] the table build and the per-delta evaluations run across
    domains; ties break by lowest (plan index, vertex pattern), so every
    [(delta, gtc, witness)] triple is identical to the sequential run.
    Whether a point trips the budget is likewise pool-independent: a
    search's node count is a function of the plans and delta alone. *)

val curve_with_path :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  point list * string
(** [curve] plus a human-readable evaluation-path report: the static
    {!path_name} when nothing degraded, or e.g.
    ["branch-and-bound (3/17 points past the 5000000-node budget ->
    linear-fractional)"] when some grid points fell back.
    [node_budget] (default {!Limits.default_bnb_node_budget}) is the
    per-grid-point allowance on the branch-and-bound path; it never
    affects the exhaustive-sweep or pure-fractional paths. *)

val curve_pruned :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  point list
(** The branch-and-bound path, forced: one {!Sweep.Bnb} build, then a
    pruned vertex search per grid point.  Below {!Sweep.max_dim} every
    [(delta, gtc, witness)] triple is bit-identical to {!curve} — the
    qcheck cross-check in the test suite — and above it this {e is} what
    [curve] runs.  Unbudgeted by default (the cross-checks want the pure
    search); pass [node_budget] to get the same per-point
    fractional-fallback degradation as [curve].  Requires at least one
    plan and [Sweep.Bnb.supported] dimensions; raises
    [Invalid_argument] otherwise. *)

val curve_naive :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  point list
(** The bit-identity reference for [curve]: rebuilds the sweep tables
    from scratch at every delta with dominance pruning disabled.
    Requires at least one plan and [Sweep.supported] dimensions. *)

val curve_legacy :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  initial:Vec.t ->
  unit ->
  point list
(** The pre-kernel sweep: one linear-fractional program per
    (plan, delta) cell.  High-dimension fallback, and the baseline the
    sweep benchmark measures speedups against.  Converges to the same
    curve within the bisection tolerance but is not bit-identical to the
    kernel path. *)

val gtc_at :
  ?pool:Qsens_parallel.Pool.t -> plans:Vec.t array -> initial:Vec.t -> float -> float
(** [gtc_at ~plans ~initial delta] — the worst-case GTC at one error
    bound [delta]. *)

val gtc_at_full :
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  plans:Vec.t array ->
  initial:Vec.t ->
  float ->
  float * Vec.t
(** As {!gtc_at}, also returning the attaining cost vector.  Goes through
    the same evaluation path as [curve] — exhaustive tables, then
    branch-and-bound under the same default [node_budget] and per-point
    fractional fallback, then linear-fractional, by dimension — so the
    result is bit-identical to the matching curve point, including when
    that point degraded past the budget. *)

val path_name : dim:int -> string
(** Which evaluation path {!curve} and {!gtc_at} take at this dimension
    when no budget trips: ["exhaustive sweep"], ["branch-and-bound"] or
    ["linear-fractional fallback"].  {!curve_with_path} reports the
    dynamic version, including any per-point budget degradation. *)

val asymptote : point list -> [ `Bounded of float | `Quadratic of float ]
(** Classify the curve's tail: [`Bounded c] when the last decade grows by
    less than 3x (Theorem 2 regime, approaching constant [c]);
    [`Quadratic s] when it tracks [delta^2] within a decade factor
    (Theorem 1 regime, [s] the fitted scale [gtc / delta^2]).  The
    comparison point one decade earlier is the {e largest} delta not
    exceeding a tenth of the final delta, regardless of the order of
    [points]. *)
