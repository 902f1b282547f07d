(** Deterministic fault-injected soak driver for the sensitivity service.

    Drives a grid of N queries x M layouts x K budget allowances through
    an in-process server ({!Server.handle_line} — the same total entry
    point the stdio and socket loops use), optionally under a
    deterministic fault plan and a domain pool, and checks the
    robustness contract end to end:

    + every successful {e non-degraded} [worst_case] response is
      compared bit-for-bit (as {!Server.points_json} strings) against a
      fresh from-scratch computation that shares none of the server's
      caches; every cell also rides a matching [select] request whose
      non-degraded ["choices"] must equal the fresh
      {!Server.select_points_json} rendering of
      {!Qsens_core.Select.curve} the same way — and since the orderings
      replay the grid warm, a pass witnesses select responses
      bit-identical cold vs. warm-cached;
    + every degraded response must carry a nonempty ["path"] annotation;
    + an oversized batch must shed with typed responses, never drop;
    + the server must answer a final [ping] after everything above —
      injected faults and malformed input may fail {e requests}, never
      the loop.

    Orderings replay the same request grid in different cache regimes
    (fresh misses, warm hits, invalidation in the middle), so a pass
    also witnesses that cache state never changes a response. *)

type ordering =
  | Sequential  (** grid order, then a verbatim warm replay (all hits) *)
  | Interleaved
      (** reversed grid, an [invalidate all] in the middle, then the
          grid again — different hit/miss interleaving, same answers *)

type config = {
  queries : string list;
  layouts : string list;  (** {!Server.policy_of_string} spellings *)
  deltas : float list;
  sf : float;
  seed : int;
  budgets : int list;  (** cycled across the request grid *)
  mc_samples : int;
  faults : Qsens_faults.Fault.injector option;
  pool : Qsens_parallel.Pool.t option;
  ordering : ordering;
  max_probes : int option;
  cache_bytes : int;  (** small values force evictions mid-soak *)
  queue_limit : int;
}

val default_config : config
(** Two queries x two layouts, deltas up to 100, budgets cycling huge
    (exact tiers) / tiny (degrades to the Monte-Carlo floor), no
    faults, no pool, [Sequential], 1 MiB caches, queue limit 4. *)

type outcome = {
  total : int;  (** responses seen, batch sub-responses included *)
  ok : int;
  degraded : int;
  shed : int;
  errors : int;  (** [ok = false] responses other than sheds *)
  verified : int;  (** bit-identity comparisons performed *)
  mismatches : string list;  (** human-readable; empty on a pass *)
  alive : bool;  (** the final [ping] came back *)
}

val run : config -> outcome
(** A pass is [mismatches = [] && alive && verified > 0]. *)

val reference_line :
  sf:float ->
  seed:int ->
  ?max_probes:int ->
  ?pool:Qsens_parallel.Pool.t ->
  deltas:float list ->
  query:string ->
  layout:string ->
  unit ->
  (string, string) result
(** The from-scratch reference a non-degraded response must match: the
    rendered {!Server.points_json} string of a fresh
    setup/discover/curve run sharing none of any server's caches.  The
    CLI client's [--check] mode and the soak driver both compare
    against this. *)

val select_reference_line :
  sf:float ->
  seed:int ->
  ?max_probes:int ->
  ?pool:Qsens_parallel.Pool.t ->
  deltas:float list ->
  query:string ->
  layout:string ->
  unit ->
  (string, string) result
(** The [select] analogue of {!reference_line}: the rendered
    {!Server.select_points_json} string of a fresh
    setup/discover/{!Qsens_core.Select.curve} run.  Non-degraded
    [select] responses must match it bit-for-bit. *)
