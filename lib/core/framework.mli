(** The vector-space sensitivity framework (Sections 3–5 of the paper).

    A plan's cost under resource costs [c] is the dot product of its
    resource usage vector with [c].  All functions here are agnostic to
    whether vectors live in primitive resource space or in the group
    space of {!Qsens_cost.Groups} — the framework is the same. *)

open Qsens_linalg

val total_cost : usage:Vec.t -> costs:Vec.t -> float
(** Equation 3: [T = U . C]. *)

val relative_cost : a:Vec.t -> b:Vec.t -> costs:Vec.t -> float
(** Section 5.1: [T_rel(a, b, C) = (A . C) / (B . C)] — how many times as
    expensive plan [a] is compared to plan [b] under [C].  Unitless, and
    invariant under scaling of [C] (Observation 1). *)

val optimal_index : plans:Vec.t array -> costs:Vec.t -> int
(** Index of the cheapest plan (lowest index on ties). *)

val global_relative_cost : plans:Vec.t array -> a:Vec.t -> costs:Vec.t -> float
(** Section 5.2: [GTC_rel(a, C)] — the relative cost of [a] with respect
    to the optimal plan of [plans] under [C]; how many times faster the
    query would have run had the optimizer chosen correctly.  [>= 1] when
    [a] is a member of [plans]. *)

val equicost : a:Vec.t -> b:Vec.t -> costs:Vec.t -> bool
(** Whether [costs] lies on the switchover plane of the two plans
    (Section 4.2), up to relative tolerance. *)

val worst_case_gtc_fractional :
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  a:Vec.t ->
  Qsens_geom.Box.t ->
  float * Vec.t
(** [worst_case_gtc_fractional ~plans ~a box] — the maximum of
    [GTC_rel(a, .)] over the box, with an attaining corner: one
    linear-fractional program per plan (see {!Qsens_geom.Fractional}),
    reduced by strict improvement in plan-index order.  A plan whose
    ratio is NaN (numerator and denominator zero everywhere) is skipped
    and counted in [wc.degenerate_ratios]; when every plan is, the
    answer is NaN with the box centre as witness.

    This is the one linear-fractional argmax: the worst-case dispatcher
    runs it past the branch-and-bound gate and wherever a search trips
    its node budget.  It converges to the vertex maximum of
    Observation 2 within the bisection tolerance but is not
    bit-identical to the vertex engines.  With [?pool] the per-plan
    programs run across domains and the result is identical to the
    sequential run.  Raises [Invalid_argument] on an empty plan set. *)
