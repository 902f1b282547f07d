(** The error bounds of Sections 5.4 and 5.5.

    Theorem 1: if every resource cost estimate is within a factor [delta]
    of truth, the chosen plan is within [delta^2] of optimal; the bound is
    tight (Example 1).  Theorem 2: if two plans are {e not complementary}
    — neither uses a resource the other avoids entirely — their relative
    cost is pinned between the smallest and largest ratios of
    corresponding usage components, for {e any} cost vector.  Hence
    queries without complementary candidate plans have bounded
    sensitivity no matter how wrong the cost estimates are. *)

open Qsens_linalg

val theorem1 : delta:float -> gamma:float -> float * float
(** [(gamma / delta^2, gamma * delta^2)] — the range the relative cost of
    two plans can move to when every cost component moves by at most a
    factor [delta]. *)

(** {2 Per-plan facts}

    Theorem 2 and the Section 8.2 census read each plan through two
    facts computed once: its zero threshold and its {e support}, the
    components above that threshold.  A pair is complementary exactly
    when the supports differ. *)

val zero_threshold : ?eps:float -> Vec.t -> float
(** The zero rule: components [<=] [eps * max(1e-300, |v|_inf)] count as
    zero ([eps] defaults to [1e-9]).  A NaN component is never zero. *)

type support = int array
(** A bitset of any width: component [i] is bit [i mod Sys.int_size] of
    word [i / Sys.int_size]. *)

val support : zero:float -> Vec.t -> support
(** The components of [v] above [zero]. *)

val same_support : support -> support -> bool
(** Equal components, from vectors of equal dimension; supports of
    different widths are never the same. *)

val symmetric_difference : support -> support -> bool array -> unit
(** [symmetric_difference s t d] sets [d.(i)] to whether component [i]
    is in exactly one of [s] and [t], for every index of [d].  [s] and
    [t] must be supports of vectors of [d]'s dimension; otherwise
    raises [Invalid_argument]. *)

type ratios = {
  mutable r_min : float;
  mutable r_max : float;
  mutable max_ratio : float;  (** [max(r_max, 1 / r_min)] *)
}

val scan_ratios : ratios -> support -> Vec.t -> Vec.t -> unit
(** [scan_ratios t s a b] writes into [t] the smallest and largest
    [a_i / b_i] over the shared support [s] of a non-complementary pair,
    in ascending [i], and the symmetric worst ratio; [(1, 1)] and [1]
    when [s] is empty.  Allocates nothing. *)

(** {2 Pairs} *)

val complementary : ?eps:float -> Vec.t -> Vec.t -> bool
(** [complementary a b] — does some component have [a_i > 0] and
    [b_i = 0] (or vice versa)?  Components are treated as zero when
    [<= eps] times the vector's largest component (default [1e-9]). *)

val complementary_dims : ?eps:float -> Vec.t -> Vec.t -> int list
(** The witnessing components. *)

val ratio_range : ?eps:float -> Vec.t -> Vec.t -> (float * float) option
(** [ratio_range a b] is [Some (r_min, r_max)] over the components where
    at least one vector is nonzero, or [None] when the plans are
    complementary (some ratio would be [0] or [infinity]).  Theorem 2:
    [T_rel(a, b, C)] lies in this interval for every positive [C]. *)

val max_element_ratio : ?eps:float -> Vec.t -> Vec.t -> float
(** [max(r_max, 1 / r_min)] — the symmetric worst ratio, [infinity] for
    complementary pairs.  Large values mean "near-complementary"
    (Section 8.2 flags ratios above an order of magnitude). *)

val theorem2_bound : Vec.t array -> float
(** The corollary bound of Section 5.5 over a candidate plan set: the
    chosen plan is within this factor of optimal whatever the costs.
    [infinity] when some pair is complementary. *)
