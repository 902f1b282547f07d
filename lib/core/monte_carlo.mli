(** Distributional sensitivity: what the worst case leaves out.

    The paper's worst-case analysis asks how bad the chosen plan {e can}
    be; the least-expected-cost line of work it cites (Chu et al.) asks
    how bad it is {e on average}.  This module samples cost-error vectors
    log-uniformly from the feasible box (each parameter independently off
    by a factor between 1/delta and delta, the paper's error model) and
    reports the distribution of the initial plan's global relative cost:
    mean, selected percentiles, the fraction of the region where the
    initial plan remains optimal, and the worst sample.

    Comparing the p99 against the worst case quantifies how adversarial
    the worst-case corner is — typically the p99 is orders of magnitude
    smaller in the split layouts, because extreme GTC needs {e several}
    parameters wrong in coordinated directions. *)

open Qsens_linalg

type summary = {
  samples : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_seen : float;
  still_optimal : float;  (** fraction of samples where GTC = 1 (+eps) *)
}

val gtc_distribution :
  ?seed:int ->
  ?samples:int ->
  ?pool:Qsens_parallel.Pool.t ->
  ?budget:Qsens_budget.Budget.t ->
  plans:Vec.t array ->
  initial:Vec.t ->
  delta:float ->
  unit ->
  summary
(** [samples] defaults to 10_000.  Vectors live in the active group
    subspace (estimated costs at the all-ones point).

    With [?budget], each sample costs one unit and the run draws
    [min samples remaining] — the estimator degrades by doing less work
    (the returned [summary.samples] says how much was done) — raising
    {!Qsens_budget.Budget.Exhausted} only when nothing remains at all.

    Without [?pool] (or with a 1-domain pool) sampling uses the single
    stream seeded [seed], exactly as before.  With a [D]-domain pool the
    sample index space splits into [D] fixed contiguous blocks and block
    [k] draws from its own stream seeded [seed + k]: the result differs
    from the sequential stream but is a function of
    [(seed, samples, D)] only — reproducible regardless of
    scheduling. *)
