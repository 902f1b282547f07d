(** Physical plan nodes, annotated with cardinality and resource usage.

    Every constructor computes the node's cumulative {e resource usage
    vector} — the [U] of the paper's framework (Section 3.2): how many
    seeks and page transfers the plan performs on each device, and how
    many CPU instructions it executes.  The scalar cost of a plan under a
    resource cost vector [C] is just [U . C]; the optimizer prunes with
    that dot product, and the sensitivity analysis perturbs [C] without
    re-costing plans.

    The cost model follows the conventions of System-R-style optimizers:

    - sequential scans pay one seek per 64-page extent plus one transfer
      per page;
    - index access pays a positioning seek plus matching leaf transfers
      (non-leaf levels are assumed buffered);
    - unclustered row fetches are estimated with the Cardenas/Yao
      distinct-page formula, with buffer-pool reuse for objects that fit
      in the pool;
    - sorts and hash joins that exceed the sort heap spill sorted runs or
      partitions to the {e temp} device — the source of the paper's
      "temp complementary" plans (Section 5.6);
    - CPU instruction counts per row/probe/comparison come from
      {!Qsens_cost.Defaults}. *)

open Qsens_catalog
open Qsens_linalg

type order = (string * string) option
(** [(alias, column)] the output stream is sorted on, if any. *)

type access_kind =
  | Table_scan
  | Index_range of {
      index : Index.t;
      match_sel : float;  (** fraction of entries satisfying the matching predicate *)
      index_only : bool;  (** no fetch: the key covers every needed column *)
    }

type op =
  | Access of { alias : string; kind : access_kind }
  | Block_nlj of { outer : t; inner : t; rescans : float }
  | Index_nlj of {
      outer : t;
      inner_alias : string;
      index : Index.t;
      join : Query.join;
      index_only : bool;
    }
  | Hash_join of { build : t; probe : t; spilled : bool }
  | Merge_join of { left : t; right : t }
  | Sort of { input : t; key : order; spilled : bool }
  | Group_agg of { input : t; hash : bool; spilled : bool }

and t = private {
  op : op;
  mask : int;
      (** the aliases covered by this subtree as a bit set: bit [i] is the
          query's [i]-th relation *)
  aliases : string list;  (** sorted aliases covered by this subtree *)
  card : float;  (** estimated output rows *)
  width : int;  (** bytes per output row *)
  usage : Vec.t;  (** cumulative resource usage over [env.space] *)
  order : order;
}

type ctx
(** A costing context for one query under one environment.  It holds
    everything the cost model derives from the catalog, the layout and
    the query — per-relation and per-index statistics, join
    selectivities, the usage-vector slot of every device a relation
    touches — computed once, plus per-alias-set caches of join
    cardinalities and sorted alias lists.  The caches are mutable: a
    context belongs to one caller at a time.  Nodes built under a
    context are valid under any context for the same query. *)

val make_ctx : Env.t -> Query.t -> ctx
(** Raises [Invalid_argument] for a query of more than 16 relations,
    the size of the alias-set tables. *)

(** {1 Constructors} *)

val table_scan : ctx -> string -> t

val index_scan : ctx -> string -> Index.t -> t option
(** [index_scan ctx alias idx] — an index-range access through [idx]: a
    matching scan when [idx]'s leading column carries a local predicate, a
    full-key scan (providing sort order) otherwise; index-only when the
    key covers all needed columns.  [None] when the access is useless
    (no matching predicate, no useful order, not covering). *)

val access_paths : ctx -> string -> t list
(** All access paths for an alias: the table scan plus every useful
    index access. *)

val block_nlj : ctx -> outer:t -> inner:t -> t

val index_nlj : ctx -> outer:t -> inner_alias:string -> Index.t -> Query.join -> t option
(** [None] if the index's leading column is not the inner join column of
    the edge, or the edge does not connect [inner_alias] to the outer. *)

val hash_join : ctx -> build:t -> probe:t -> t

val merge_join : ctx -> left:t -> right:t -> Query.join -> t option
(** Requires both inputs sorted on the edge's columns; [None] otherwise
    (callers insert {!sort} first). *)

val sort : ctx -> key:order -> t -> t

val group_agg : ctx -> hash:bool -> groups:float -> t -> t

val finalize : ctx -> t -> t
(** Applies the query's group-by / distinct / order-by on top, using hash
    aggregation. *)

val finalize_variants : ctx -> t -> t list
(** All finalization alternatives (hash vs sort aggregation, etc.); the
    optimizer picks the cheapest under its cost vector. *)

(** {1 Costing without building}

    The optimizer costs every candidate plan but keeps few of them.  It
    computes each candidate's usage vector into one scratch vector with
    a [Fill] function, compares its cost, and builds a node with the
    matching [Build] function only when the candidate wins.  The
    constructors above run the same fill functions on a fresh vector,
    so both paths do the same floating-point operations.

    A fill function overwrites its vector (of the space's dimension)
    with the usage the matching constructor would compute, and returns
    the output width.  It caches the join's cardinality in the context,
    under the order of the alias set's first request: [outer]'s aliases,
    then [inner]'s; for an index nested-loop join, the inner alias
    first.  A [Build] function must follow its fill function on the same
    inputs, and copies the vector into the node.  Both assume what the
    constructor would check: merge-join inputs sorted on the join's
    columns, an index that serves the join edge, disjoint alias sets.

    {b Monotone usage.}  Every usage vector is componentwise [>= 0],
    access paths' included.  A fill starts from its inputs' usage and
    adds only non-negative charges, so, componentwise and in floating
    point, {!Fill.hash_join}, {!Fill.merge_join} and {!Fill.block_nlj}
    leave at least the rounded sum [fl(l + r)] of the usage they are
    given (a block nested-loop join scans its inner [rescans >= 1]
    times), and {!Fill.sort} at least its input's usage.  These three
    joins return [l.width + r.width].  The optimizer's cost bound rests
    on all of this (DESIGN.md §17); [test/test_plan.ml] checks it over
    TPC-H and synthetic queries. *)

module Fill : sig
  val block_nlj : ctx -> Vec.t -> outer:t -> inner:t -> int

  val hash_join : ctx -> Vec.t -> build:t -> probe:t -> int

  val merge_join : ctx -> Vec.t -> left:t -> Vec.t -> right:t -> Vec.t -> int
  (** [merge_join ctx u ~left lu ~right ru] joins [left] and [right]
      with usage [lu] and [ru]: the usage of their sorted forms, which
      the optimizer fills with {!sort} without building them. *)

  val sort : ctx -> Vec.t -> t -> unit

  val index_nlj :
    ctx -> Vec.t -> outer:t -> inner:int -> index:int -> edge:int -> int
  (** The inner relation is the query's [inner]-th, probed through the
      [index]-th of its table's indexes in schema order, along the
      query's [edge]-th join. *)
end

module Build : sig
  val block_nlj : ctx -> Vec.t -> outer:t -> inner:t -> t
  val hash_join : ctx -> Vec.t -> build:t -> probe:t -> t
  val merge_join : ctx -> Vec.t -> left:t -> right:t -> t
  val sort : ctx -> Vec.t -> key:order -> t -> t

  val index_nlj :
    ctx -> Vec.t -> outer:t -> inner:int -> index:int -> edge:int -> t
end

(** {1 Inspection} *)

val signature : t -> string
(** A canonical structural signature identifying the plan uniquely — the
    narrow interface of Section 6.1.1 reports this plus a scalar cost. *)

val cost : t -> Vec.t -> float
(** [cost p c] is [p.usage . c]. *)

val pp_explain : Format.formatter -> t -> unit
(** Indented operator-tree rendering (an EXPLAIN facility). *)
