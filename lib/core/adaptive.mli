(** An autonomic re-optimization simulator.

    The paper's motivation (Section 1): storage parameters drift with
    load, failures, and rebuilds, while the optimizer plans against stale
    estimates, and "the job is best done by autonomic machines".  The
    framework makes a lightweight monitor possible: with the candidate
    optimal plans and their usage vectors in hand, the global relative
    cost of the running plan under the {e currently observed} costs is a
    couple of dot products — no optimizer call — so a system can
    re-optimize exactly when the framework says the running plan has
    become materially suboptimal.

    This module simulates that control loop over a synthetic cost-drift
    trace (log-space random walk plus occasional device-degradation
    spikes, the paper's RAID-rebuild scenario) and compares policies. *)

open Qsens_linalg

type policy =
  | Never  (** plan once at the estimates, never revisit *)
  | Always  (** re-optimize every step (the oracle) *)
  | Periodic of int  (** re-optimize every k steps *)
  | Threshold of float
      (** monitor GTC of the running plan; re-optimize when it exceeds
          the given factor *)

val policy_name : policy -> string

type outcome = {
  policy : policy;
  total_cost : float;  (** sum over the trace of the running plan's cost *)
  reoptimizations : int;
  regret : float;  (** total_cost / total cost of [Always] *)
  worst_step_gtc : float;  (** worst instantaneous GTC endured *)
}

type trace = Vec.t array

val drift_trace :
  ?seed:int ->
  dim:int ->
  horizon:int ->
  ?drift:float ->
  ?spike_probability:float ->
  ?spike_magnitude:float ->
  ?max_delta:float ->
  unit ->
  trace
(** A multiplier-vector trace starting at all-ones: each step each
    dimension's log-multiplier moves uniformly in [-drift, drift]
    (default 0.05); with [spike_probability] (default 0.01, per step) one
    dimension jumps by [spike_magnitude] (default 20x) and decays back
    over subsequent steps.  Multipliers are clamped to
    [[1/max_delta, max_delta]] (default 100). *)

val compare_policies :
  plans:Vec.t array -> trace:trace -> policy list -> outcome list
(** Run each policy over the trace.  Execution cost at each step is the
    running plan's [eff . theta]; re-optimization (when the policy
    triggers) switches to the candidate plan cheapest under the current
    theta. *)
