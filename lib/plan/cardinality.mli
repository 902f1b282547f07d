(** Cardinality estimation under the independence assumptions of
    System-R-style optimizers (and of the paper, which takes selectivity
    estimates as given and exact, Section 3.3).

    The cardinality of a join over a set of relations is the product of
    effective base cardinalities (table rows times local predicate
    selectivity) times the selectivities of every join edge internal to
    the set.  Because the estimate depends only on the {e set}, every
    physical plan for the same subexpression agrees on intermediate
    result sizes. *)

open Qsens_catalog

type t

val make : Schema.t -> Query.t -> t

val base_rows : t -> string -> float
(** Table cardinality of the alias, before predicates. *)

val base : t -> string -> float
(** Effective cardinality of the alias after local predicates. *)

val join_selectivity : t -> Query.join -> float
(** The edge's explicit selectivity, or [1 / max(ndv_l, ndv_r)]. *)

val of_aliases : t -> string list -> float
(** Estimated row count of the join over the given aliases. *)

