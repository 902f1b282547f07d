(** Bounded memoization: an LRU map with an explicit byte budget.

    The server's expensive artifacts (candidate sets, built sweep
    tables) are deterministic functions of their content-hashed keys, so
    caching can never change a response — only how much work it costs.
    That makes the eviction policy a pure resource question: entries are
    charged their marshalled size, and inserting past [byte_budget]
    evicts least-recently-used entries until the new entry fits.

    Hits, misses and evictions feed both local counters (always on, for
    the server's [stats] op) and [lib/obs] metrics
    ([server.cache.<name>.{hits,misses,evictions}], recorded when
    tracing is enabled).

    Not domain-safe: the server loop is single-threaded by design. *)

type 'a t

type metrics
(** One cache's [server.cache.<name>.{hits,misses,evictions}] counters. *)

val metrics : string -> metrics
(** Registers the counters of the cache called [name].  Create them once,
    as a top-level value, and pass them to every {!create} of that
    cache. *)

val create : metrics:metrics -> byte_budget:int -> size_of:('a -> int) -> 'a t
(** [size_of] is consulted once per insertion.  An entry larger than the
    whole budget is not admitted at all.  Raises [Invalid_argument] if
    [byte_budget < 0]. *)

val find : 'a t -> string -> 'a option
(** Moves the entry to most-recently-used; counts a hit or a miss. *)

val mem : 'a t -> string -> bool
(** No recency update, no counter update. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or replace (replacement refreshes recency), then evict
    oldest-first until within budget. *)

val remove : 'a t -> string -> unit
val clear : 'a t -> unit

val length : 'a t -> int
val bytes : 'a t -> int

type stats = { hits : int; misses : int; evictions : int }

val stats : 'a t -> stats
(** Cumulative since creation; survives {!clear}. *)

val to_alist : 'a t -> (string * 'a) list
(** Oldest-first, so replaying the list through {!put} reproduces both
    contents and recency order — the snapshot/reload path. *)
