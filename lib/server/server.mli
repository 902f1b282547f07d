(** The resilient sensitivity service.

    A long-lived analysis server speaking line-delimited JSON — one
    request object per line in, one response object per line out — over
    stdio ({!run_stdio}) or a Unix-domain socket ({!run_socket}).
    DESIGN.md section 14 specifies the protocol grammar; the robustness
    contract is:

    + {b Deadline-budgeted degradation}.  Every analysis request carries
      a logical node budget (field ["budget"], default
      [config.default_budget]).  The worst-case evaluation ladder tries
      exhaustive subset-sum tables, then branch-and-bound, then the
      linear-fractional program, then a seeded Monte-Carlo estimate —
      each tier under a fresh budget of the request's allowance, moving
      down a tier when the cooperative {!Qsens_budget.Budget}
      checkpoints trip.  The response always reports the ["path"] taken
      and ["degraded"] (true when a nominally-preferred tier was
      abandoned); the Monte-Carlo tier never fails and annotates its
      answer as an estimate.  Budgets are logical (node counts), never
      wall-clock, so whether a request degrades is a pure function of
      the request — bit-reproducible anywhere.
    + {b Bounded memoization}.  Candidate sets and built sweep tables
      are cached under content-hashed keys in byte-budgeted LRUs
      ({!Lru}); catalog-derived setups are cached per (SF, layout,
      query).  Budget charging is identical on hit and miss, so cache
      state can never change a response — the qcheck property the test
      suite drives.  [invalidate] drops entries explicitly; [snapshot]
      persists the marshalable caches (write-to-temp + atomic rename),
      and a restarting server warms from the snapshot, preserving LRU
      recency.
    + {b Overload shedding and isolation}.  [batch] requests beyond
      [config.queue_limit] receive typed ["shed"] errors; malformed or
      pathological requests yield typed error responses, never a dead
      loop; repeatedly-failing request classes trip a per-op
      {!Qsens_faults.Fault.Breaker} which refuses further calls with
      ["circuit_open"] until its cooldown passes. *)

type config = {
  default_budget : int;
      (** logical node allowance per analysis request when the request
          carries no ["budget"] field *)
  mc_samples : int;  (** cap on Monte-Carlo samples per curve point *)
  queue_limit : int;  (** bounded batch queue; excess requests are shed *)
  cache_bytes : int;  (** byte budget for each LRU cache *)
  snapshot_path : string option;
      (** warm-start file: loaded by {!create}, written on shutdown and
          by the [snapshot] op *)
  seed : int;  (** discovery seed when the request carries none *)
}

val default_config : config
(** Budget {!Qsens_core.Limits.default_bnb_node_budget}, 4096 MC
    samples, queue limit 64, 64 MiB per cache, no snapshot, seed 42. *)

type t

val create :
  ?config:config ->
  ?pool:Qsens_parallel.Pool.t ->
  ?faults:Qsens_faults.Fault.injector ->
  unit ->
  t
(** [faults] injects deterministic failures at sites
    ["server.<op>"] — the soak test's adversary.  If
    [config.snapshot_path] names a readable snapshot, the caches warm
    from it (a corrupt or missing file is ignored). *)

val handle : t -> Json.t -> Json.t
(** Process one request value; total — any failure becomes a typed
    error response. *)

val handle_line : t -> string -> string
(** Parse, {!handle}, render.  Total, and the response is a single
    line. *)

val save_snapshot : t -> string -> unit
(** Marshal the candidates/sweep/bnb caches (oldest-first, so reload
    preserves recency) to [path] via write-to-temp + [Sys.rename].
    Raises [Sys_error] on I/O failure (disk full, unwritable path) —
    after closing and unlinking the temp file, so a failed snapshot
    never leaks a channel or shadows a later good one. *)

val load_snapshot : t -> string -> bool
(** Replace cache contents from a snapshot file; false (and no change)
    if the file is missing, unreadable or from another version. *)

val max_line_bytes : int
(** The longest request line served: 1 MiB, newline excluded.  A longer
    line is read to its newline without being kept, and answered with a
    [malformed] error naming the cap; serving then goes on. *)

val run_stdio : t -> in_channel -> out_channel -> unit
(** Serve until EOF or [shutdown]; writes the configured snapshot on the
    way out.  A last line cut off by EOF is served like any other. *)

val run_socket : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing any stale socket
    file) and serve connections sequentially until [shutdown]; removes
    the socket file and writes the configured snapshot on the way
    out. *)

(** {2 Shared with the soak driver and tests} *)

val points_json : Qsens_core.Worst_case.point list -> Json.t
(** The exact encoding of a response's ["points"] field — the soak
    test renders its fresh reference computation through this and
    compares strings, so bit-identity assertions inherit the JSON
    float round-trip. *)

val select_points_json : Qsens_core.Select.point list -> Json.t
(** The exact encoding of a [select] response's ["choices"] field
    (per-delta classic/lec/minimax indices plus the full expected and
    regret columns) — the soak test and the client's [--check] render
    fresh {!Qsens_core.Select.curve} output through this and require
    string equality, cold and warm. *)

val policy_of_string :
  string -> (Qsens_catalog.Layout.policy, string) result
(** ["same"]/["same-device"], ["per-table"],
    ["per-table-and-index"]/["split"]. *)
