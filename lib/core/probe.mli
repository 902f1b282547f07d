(** Least-squares recovery of resource usage vectors through the narrow
    optimizer interface (Section 6.1.1) — resilient edition.

    Commercial optimizers report only a plan identifier and a scalar
    estimated total cost.  Because the cost model is linear, observing a
    plan's total cost [t_i] under [m >= n] cost vectors [C_i] determines
    its usage vector [U] as the least-squares solution of [C U = T].  The
    paper used at least [2n] samples to absorb the optimizer's internal
    quantization and validated predictions to within one percent; this
    module reproduces both the estimation and the validation.

    Beyond the paper: the interface may misbehave (see
    {!Qsens_faults.Fault}).  Estimation therefore returns {e typed}
    errors instead of a silent [None], retries transient failures with
    seeded exponential backoff, recovers plan-cache misses by
    re-pinning, can route calls through a circuit breaker, and can fit
    with outlier-robust (Huber IRLS) regression so corrupted
    observations degrade the residual instead of the usage vector.  All
    resilience machinery is opt-in: the defaults reproduce the
    fault-free behaviour bit-identically. *)

open Qsens_linalg
open Qsens_geom
open Qsens_optimizer
open Qsens_faults

type estimate = {
  usage : Vec.t;  (** estimated effective usage, active subspace *)
  samples : int;  (** observations that survived faults and retries *)
  residual : float;  (** max relative residual over the fitting samples *)
  dropped : int;  (** samples lost to unrecoverable probe failures *)
  degraded : bool;
      (** true when the estimate came from the ridge/prior fallback
          (too few surviving observations for a full solve) *)
}

val flush_round_off : Vec.t -> Vec.t
(** [flush_round_off u] replaces each negative component [x] of a
    least-squares usage estimate with [+0.0] when
    [|x| <= 1e-9 * max_i |u_i|]: the round-off the fit leaves where the
    true component is zero.  Larger negatives are kept.  Both fitting
    paths of {!estimate_usage} apply it. *)

val estimate_usage :
  ?seed:int ->
  ?oversample:int ->
  ?retry:Fault.Retry.policy ->
  ?breaker:Fault.Breaker.t ->
  ?prior:Vec.t ->
  ?robust:bool ->
  narrow:Narrow.t ->
  expand:(Vec.t -> Vec.t) ->
  signature:string ->
  box:Box.t ->
  unit ->
  (estimate, Fault.error) result
(** [estimate_usage ~narrow ~expand ~signature ~box ()] samples
    [oversample * dim] (default [2 * dim], the paper's choice) multiplier
    vectors in [box], obtains the plan's total cost at each through the
    narrow interface ([expand] maps active multipliers to a full resource
    cost vector), and solves the normal equations ([robust] switches to
    Huber IRLS, identical on clean data).

    Resilience, all opt-in:
    - [retry] (default {!Fault.Retry.none}): transient errors are
      retried with seeded exponential backoff and a per-probe virtual
      deadline.  Theta sampling draws from its own stream, so retries
      never shift the sample sequence: under purely transient faults the
      recovered estimate is bit-identical to the fault-free run.
    - A cache miss ([Unknown_signature]) re-pins via {!Narrow.repin} and
      retries within the attempt — the sample is recovered, not dropped.
    - [breaker]: every narrow call is gated; when the breaker opens,
      probing stops immediately instead of hammering a failing
      interface.
    - [prior]: with at least one surviving observation but fewer than
      [dim], the estimate falls back to ridge regression shrinking
      unobserved directions toward [prior] ([degraded = true]) instead
      of refusing.

    Errors distinguish the causes the old [option] conflated:
    [Too_few_observations] (samples lost), [Singular_system]
    (observations do not span), [Unknown_signature] (interface refusal:
    the signature was never successfully explained),
    [Probe_failed]/[Probe_timeout] (every sample lost to the same
    failure), and [Circuit_open] (breaker refused, no fallback
    available). *)

val validate :
  ?seed:int ->
  ?trials:int ->
  ?retry:Fault.Retry.policy ->
  ?breaker:Fault.Breaker.t ->
  narrow:Narrow.t ->
  expand:(Vec.t -> Vec.t) ->
  signature:string ->
  box:Box.t ->
  estimate ->
  (float, Fault.error) result
(** Maximum relative discrepancy between costs predicted from the
    estimated usage vector and costs reported by the interface at
    [trials] (default 16) fresh sample points — the <1% check of
    Section 6.1.1.  Probes that fail after retries are skipped; if every
    probe fails, the last error is returned. *)
