(** Deterministic tracing + metrics.

    Timestamps are logical: each track (the main line of control plus one
    track per pool task, keyed by batch/index) carries its own monotonic
    event counter, so a fixed seed yields byte-identical exports regardless
    of domain scheduling.  Wall-clock time is an opt-in annotation.  All
    entry points are allocation-free no-ops while recording is disabled. *)

type kind = Counter | Gauge | Histogram
type metric

val name : metric -> string
val kind : metric -> kind
val help : metric -> string

(** Registration is idempotent per name; call at module init. *)
val counter : ?help:string -> string -> metric

val gauge : ?help:string -> string -> metric
val histogram : ?help:string -> string -> metric

(** {1 Recording lifecycle} *)

val recording : unit -> bool

(** [start ()] clears all tracks and enables recording.  [wallclock]
    additionally stamps events with monotonic nanoseconds (breaks
    byte-identity across runs; off by default). *)
val start : ?wallclock:bool -> unit -> unit

val stop : unit -> unit
val reset : unit -> unit

(** {1 Spans} *)

val enter : string -> unit
val leave : string -> unit
val instant : string -> unit
val with_span : string -> (unit -> 'a) -> 'a

(** {1 Pool integration} *)

(** Serially allocates a batch id (call from the submitting domain). *)
val begin_batch : unit -> int

(** Runs [f] on the logical track [pool/b<batch>/t<index>], wrapped in a
    ["pool.task"] span.  Identity is the task's position in its batch, never
    the physical domain, so traces stay deterministic under [-j] > 1. *)
val with_task : batch:int -> index:int -> (unit -> 'a) -> 'a

(** {1 Metrics} *)

val add : metric -> int -> unit
val set : metric -> float -> unit
val observe : metric -> float -> unit

(** Log2 bucket index for a histogram observation (exposed for tests). *)
val bucket_of : float -> int

val bucket_lo : int -> float
val bucket_hi : int -> float

(** {1 Allocation accounting}

    GC-counter plumbing for the zero-allocation contracts of the unboxed
    kernels (DESIGN.md section 16): the benchmark and the CI smoke gate
    measure minor-heap words per grid point with these, independent of
    the recording flag. *)

val measure_alloc : n:int -> (unit -> 'a) -> 'a * float * float
(** [measure_alloc ~n f] runs [f] once and returns
    [(result, minor words / n, major words / n)] — allocation attributed
    per iteration for a thunk that loops [n] times.  The measurement's
    own constant allocation (the [Gc.counters] results and closure
    call, calibrated once against a no-op thunk) is subtracted and the
    result clamped at 0, so a loop that allocates nothing reports
    exactly 0 per iteration.  Raises [Invalid_argument] if [n < 1]. *)

(** Chrome-trace JSON ("traceEvents"): tracks sorted main-first then by
    label, events in logical order. *)
val trace_string : unit -> string

val write_trace : string -> unit

type value =
  | Vcount of int
  | Vgauge of float
  | Vhist of { n : int; sum : float; buckets : (int * int) list }

(** Metrics merged across tracks in deterministic order; only metrics that
    recorded data appear. *)
val snapshot : unit -> (metric * value) list

(** Flat JSON object for the BENCH_*.json counter blocks. *)
val metrics_json : unit -> string
