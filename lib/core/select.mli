(** Robust plan selection over the candidate-optimal set.

    The worst-case machinery characterizes how bad the classic
    optimizer's choice can get when storage cost parameters are wrong
    (GTC up to [delta^2], Theorem 1); this module acts on the
    characterization by comparing three decision rules over the same
    multiplicative error box [[c/delta, c*delta]^m]:

    + {b classic} — argmin of [U . c] at the estimated costs [c] (the
      all-ones point), exactly {!Framework.optimal_index};
    + {b least expected cost} (Chu-Halpern-Seshadri) — argmin of
      [E(U . C)] under the per-coordinate uniform prior over the box.
      Expectation is linear, so [E(U . C) = U . E(C)] and [E(C)] is the
      componentwise interval midpoint [c_i * (delta + 1/delta) / 2]:
      every candidate's score is one {!Qsens_linalg.Kernel} dot against
      the midpoint vector.  For the symmetric box around the estimate
      the midpoint is a common positive scaling of [c], so LEC provably
      agrees with classic — the rule only separates under asymmetric
      priors, and the closed form here makes that a visible theorem
      rather than a surprise (DESIGN.md section 15);
    + {b minimax regret} (PARQO-style penalty) — argmin over candidates
      [p] of the worst-case GTC of [p] against the whole candidate set
      over the box, i.e. [max over box of (U_p . C) / (min_q U_q . C)].
      Each candidate's regret is bit-identical to the worst-case engine
      run with [initial := p], so the classic candidate's column
      reproduces {!Worst_case.curve} bit-for-bit.

    {2 Tier dispatch and determinism}

    Regret evaluation rides the same three-tier dimension dispatch as
    {!Worst_case.curve_with_path}: exhaustive subset-sum sweeps up to
    {!Limits.exhaustive_max_dim}, budgeted branch-and-bound up to
    {!Limits.bnb_max_dim} (a search that trips its per-(candidate,
    delta) node budget degrades to the linear-fractional program for
    that cell alone, counted in [fallbacks]), and the linear-fractional
    program beyond.  The exhaustive tier is one table build for the
    whole candidate set and one {!Sweep.regret_grid} call, which scores
    every candidate against a per-pattern minimum table per delta
    instead of sweeping once per candidate (DESIGN.md section 19); the
    branch-and-bound tier is one build, a {!Sweep.Bnb.rebind} per
    candidate, and a candidate-outer loop over one node-pool scratch.
    All argmins scan in ascending candidate order with strict
    improvement and skip NaN scores, so selections are bit-identical
    across pool sizes and across the exhaustive/B&B tiers wherever both
    are defined — the qcheck property the test suite drives.  At [delta = 1] the box is a point, every regret is the cost
    ratio at the estimate, and all three rules return the classic
    index. *)

open Qsens_linalg

type point = {
  delta : float;
  classic : int;  (** argmin cost at the estimated point *)
  lec : int;  (** argmin expected cost under the uniform box prior *)
  minimax : int;  (** argmin worst-case regret over the box *)
  expected : float array;  (** per-candidate [E(U . C)] *)
  regret : float array;  (** per-candidate worst-case GTC over the box *)
  fallbacks : int;
      (** regret cells where the B&B node budget tripped and the
          linear-fractional program answered instead *)
}

type engine = [ `Auto | `Exhaustive | `Bnb ]

val curve :
  ?deltas:float list ->
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  ?engine:engine ->
  plans:Vec.t array ->
  unit ->
  point list * string
(** [curve ~plans ()] scores every candidate at every delta
    (default {!Worst_case.default_deltas}) and returns the per-delta
    selections plus the evaluation path taken (the same strings the
    worst-case CLI prints, with budget-fallback counts appended).
    [engine] defaults to [`Auto] (dimension dispatch); [`Exhaustive] and
    [`Bnb] force a tier for cross-checks and raise [Invalid_argument]
    past that tier's gate, like the underlying builders.  Raises
    [Invalid_argument] on an empty plan set or mismatched dimensions. *)

val select :
  ?pool:Qsens_parallel.Pool.t ->
  ?node_budget:int ->
  ?engine:engine ->
  plans:Vec.t array ->
  delta:float ->
  unit ->
  point
(** Single-delta {!curve}; bit-identical to the matching curve point. *)

val estimate :
  ?seed:int ->
  ?samples:int ->
  ?budget:Qsens_budget.Budget.t ->
  plans:Vec.t array ->
  delta:float ->
  unit ->
  point
(** Monte-Carlo floor for the service's degradation ladder: [classic]
    and [expected] (hence [lec]) are exact, but [regret] is a
    lower-bound estimate from a seeded log-uniform sample of the box
    ({!Qsens_geom.Box.sample}).  With [?budget], the sample count is
    clamped to the remaining allowance (one unit per plan ratio) and
    charged up front — never raises
    {!Qsens_budget.Budget.Exhausted}. *)

val classic_index : plans:Vec.t array -> int
(** The classic optimum: {!Framework.optimal_index} at the all-ones
    estimated cost point. *)

val expected_costs :
  kernel:Kernel.t -> center:Vec.t -> delta:float -> float array
(** Per-candidate expected cost under the uniform prior over
    [Box.around center ~delta]: one {!Qsens_linalg.Kernel.dot_rows}
    against the componentwise midpoint [c_i * (delta + 1/delta) / 2].
    Raises [Invalid_argument] if [delta < 1]. *)

val regrets_fractional :
  ?pool:Qsens_parallel.Pool.t ->
  plans:Vec.t array ->
  center:Vec.t ->
  float ->
  float array
(** The bottom exact tier on its own: every candidate's worst-case GTC
    over [Box.around center ~delta] via one linear-fractional program
    per (candidate, plan) pair — no dimension gate, no tables.  The
    service's fractional tier calls this directly. *)

val point_of_regrets :
  kernel:Kernel.t ->
  center:Vec.t ->
  classic:int ->
  delta:float ->
  regret:float array ->
  fallbacks:int ->
  point
(** Assemble a selection from an externally computed regret column —
    the service's tiers evaluate regrets from their own memoized base
    tables and must agree bit-for-bit with {!curve}; routing both
    through this single argmin keeps the tie-breaking in one place. *)
