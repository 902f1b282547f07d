(** Deterministic, seeded fault injection for the probing pipeline.

    The paper's calibration story (Section 6.1.1) assumes a narrow
    optimizer interface that always answers, and answers exactly.  Real
    systems do neither: probes fail or time out, measured costs carry
    noise, devices misbehave.  This module provides the adversary — a
    composable, {e named} fault plan — and the vocabulary the resilient
    pipeline speaks: typed errors, retry policies with seeded
    exponential backoff, and a circuit breaker.

    {2 Determinism}

    Every injection decision is a pure function of
    [(plan seed, site name, per-site call counter)], hashed with a
    SplitMix64-style mixer.  No global RNG is consulted: two runs with
    the same plan and the same per-site call sequences inject
    bit-identical faults and produce identical {!transcript}s, even when
    calls to different sites interleave differently (e.g. under the
    domain pool). *)

(** {1 Fault models and plans} *)

type model =
  | Failure of float  (** probability the call fails outright *)
  | Timeout of float  (** probability the call times out *)
  | Cache_loss of float
      (** probability a caching caller loses the relevant entry before
          the call (see {!evicts}); models plan-cache eviction in the
          narrow interface *)
  | Additive_noise of float  (** Gaussian sigma added to the value *)
  | Multiplicative_noise of float
      (** relative Gaussian sigma: [v * (1 + sigma * g)] *)
  | Latency of { mean : float; jitter : float }
      (** simulated service latency per call, [mean * (1 +- jitter)] *)

type plan = { name : string; seed : int; models : model list }

val plan : ?name:string -> ?seed:int -> model list -> plan
(** Validates ranges: probabilities in [[0, 1]], sigmas and latencies
    non-negative.  Raises [Invalid_argument] otherwise. *)

val canned : plan
(** The acceptance experiment's adversary: 5% probe failure and 2%
    multiplicative noise, seed 7. *)

val plan_of_string : string -> (plan, string) result
(** Parses a [--faults] spec: the names ["canned"] and ["none"], or a
    comma-separated list of [fail=P], [timeout=P], [cacheloss=P],
    [add=SIGMA], [mul=SIGMA], [latency=MEAN], [jitter=J] (applies to
    [latency]), [seed=N].  Example: ["fail=0.05,mul=0.02,seed=7"]. *)

val plan_to_string : plan -> string

(** {1 Typed errors}

    The error vocabulary shared by the whole probing pipeline —
    replacing the silent [option] that conflated "too few
    observations", "singular system" and "interface refusal". *)

type error =
  | Probe_failed of { site : string; attempts : int }
      (** the call failed (injected or genuine), after [attempts] tries *)
  | Probe_timeout of { site : string; attempts : int }
      (** the call or its retry budget exceeded the deadline *)
  | Unknown_signature of string
      (** narrow-interface cache miss: the plan signature is not (or no
          longer) cached.  Distinct from failure so callers can
          re-explain instead of dropping the sample. *)
  | Too_few_observations of { got : int; need : int }
      (** not enough surviving observations to determine the system *)
  | Singular_system  (** observations do not span the space *)
  | Circuit_open of { site : string; failures : int }
      (** the circuit breaker is refusing calls *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val transient : error -> bool
(** Whether retrying can help: true for failures, timeouts and cache
    misses; false for structural errors (too few observations, singular
    system, open circuit). *)

(** {1 Injectors} *)

type effect =
  | Failed
  | Timed_out
  | Evicted
  | Noised of float  (** delta applied to the observed value *)
  | Delayed of float  (** simulated latency accrued *)

type event = { site : string; index : int; effect : effect }

type injector

val injector : plan -> injector

val apply :
  injector -> site:string -> float -> (float, [ `Failed | `Timed_out ]) result
(** Run one observed value through the plan at the given site.  Models
    apply in plan order: [Failure]/[Timeout] abort the call, noise
    perturbs the value, [Latency] accrues simulated time.  Consumes one
    call index at the site. *)

val apply_opt :
  injector option ->
  site:string ->
  float ->
  (float, [ `Failed | `Timed_out ]) result
(** [apply_opt None] is the identity — the fault-free fast path. *)

val evicts : injector -> site:string -> bool
(** Whether a [Cache_loss] model fires for this call; caching callers
    consult it before their lookup.  Draws from a site-suffixed counter
    so interleaving with {!apply} cannot shift either stream. *)

val evicts_opt : injector option -> site:string -> bool

val io_outcome : injector -> site:string -> bool * float
(** Device-flavoured interpretation for {!Qsens_engine.Sim_device}:
    failures/timeouts mean the driver {e retried} the I/O (first
    component true), noise and [Latency] accrue simulated service time
    (second component). *)

val transcript : injector -> event list
(** All injected events, in chronological order.  Two runs under the
    same plan and call sequences produce equal transcripts — the
    determinism contract the tests assert. *)

val summary : injector -> (string * int) list
(** Event counts by kind, sorted by kind name. *)

val latency_total : injector -> float

val reset : injector -> unit
(** Forget counters, events and latency — as if freshly created. *)

val uniform : seed:int -> site:string -> counter:int -> float
(** The raw deterministic uniform in [[0, 1)] behind every draw;
    exposed for seeded jitter elsewhere (retry backoff). *)

(** {1 Retry with seeded exponential backoff} *)

module Retry : sig
  type policy = {
    max_attempts : int;  (** total attempts, including the first *)
    base_backoff : float;  (** virtual time units before attempt 2 *)
    multiplier : float;  (** exponential growth per attempt *)
    jitter : float;
        (** uniform jitter fraction on each backoff, drawn from the
            deterministic stream; ignored under [full_jitter] *)
    full_jitter : bool;
        (** when set, each backoff is drawn uniformly from [0, cap]
            where [cap = base_backoff * multiplier^(attempt-1)] — the
            AWS "full jitter" scheme, which decorrelates retry storms
            while never exceeding the un-jittered exponential cap *)
    deadline : float;
        (** per-probe budget on accumulated backoff; exceeding it yields
            [Probe_timeout] *)
  }

  val none : policy
  (** One attempt, no backoff — the legacy behaviour. *)

  val default : policy
  (** 4 attempts, backoff 1, 2, 4 (x1..1.5 jitter), deadline 1000. *)

  val backoff_for : policy -> seed:int -> site:string -> attempt:int -> float
  (** The virtual sleep {!run} inserts after failed attempt [attempt]
      (1-based).  A pure function of its arguments — the whole schedule
      is reproducible, and under [full_jitter] bounded above by the
      un-jittered exponential cap. *)

  val run :
    policy ->
    seed:int ->
    site:string ->
    (attempt:int -> ('a, error) result) ->
    ('a, error) result
  (** Calls the body with [attempt] = 1, 2, ... until it succeeds,
      returns a non-{!transient} error, exhausts [max_attempts] (the
      final error carries the attempt count), or the accumulated virtual
      backoff exceeds [deadline] ([Probe_timeout]).  Fully
      deterministic: jitter comes from {!uniform} keyed by [seed],
      [site] and the attempt number. *)
end

(** {1 Circuit breaker}

    Trips to [Open] after [threshold] consecutive failures; while open,
    refuses calls for [cooldown] acquisitions, then goes [Half_open] and
    admits one trial call — success closes the circuit, failure re-opens
    it.  Counting acquisitions instead of wall-clock time keeps the
    state machine deterministic. *)

module Breaker : sig
  type state = Closed | Open | Half_open

  type t

  val create : ?threshold:int -> ?cooldown:int -> unit -> t
  (** Defaults: [threshold = 5] consecutive failures, [cooldown = 8]
      refused calls. *)

  val state : t -> state

  val acquire : t -> bool
  (** Whether the next call may proceed; advances the cooldown while
      [Open]. *)

  val record_success : t -> unit
  val record_failure : t -> unit
  val consecutive_failures : t -> int

  val trips : t -> int
  (** How many times the breaker has opened. *)
end
