(** Classification of complementary plan pairs (Section 5.6).

    A pair of candidate optimal plans is {e complementary} when one plan
    uses a resource the other avoids entirely; {e near-complementary}
    when corresponding usage components differ by more than an order of
    magnitude.  The paper attributes such pairs to three causes:

    - {e table complementary} — the plans read materially different
      numbers of tuples from some table;
    - {e access path complementary} — same tuples, different access path
      (index-only versus table fetch), visible as opposite imbalances on
      a table's data device and its index device;
    - {e temp complementary} — one plan spills sorted runs or hash
      partitions to temporary storage and the other does not.

    Classification inspects the {e kind} of the dimensions on which the
    two effective usage vectors diverge, derived from the group naming
    scheme of {!Qsens_cost.Groups}. *)

open Qsens_linalg
open Qsens_cost

type dim_kind =
  | Cpu_dim
  | Table_dim of string  (** a table's data device ("tbl:x") *)
  | Index_dim of string  (** a table's index device ("idx:x") *)
  | Combined_dim of string  (** a device holding a table and its indexes *)
  | Temp_dim
  | Shared_dim  (** the single device of the same-device layout *)

val dim_kinds : Groups.t -> dim_kind array
(** Parse the group names of a grouping into dimension kinds. *)

type kind =
  | Table_complementary
  | Access_path_complementary
  | Temp_complementary
  | Cpu_complementary

val kind_name : kind -> string

val compare_kind : kind -> kind -> int
(** Total order over {!kind} by declaration rank — an explicit,
    allocation-free comparator for deterministic sorting of kind lists
    and counts (no polymorphic [compare]). *)

type verdict = {
  complementary : bool;  (** exact zero-versus-nonzero divergence *)
  near : bool;  (** max element ratio above the threshold *)
  max_ratio : float;
  kinds : kind list;  (** causes, when complementary or near *)
}

val classify :
  ?near_threshold:float -> dims:dim_kind array -> Vec.t -> Vec.t -> verdict
(** [classify ~dims a b] examines the pair of effective usage vectors.
    [near_threshold] defaults to 10 (the paper's "greater than an order
    of magnitude").  A complementary pair's causes come from the
    dimensions where exactly one plan is zero ({!Bounds.zero_threshold});
    a near pair's from those where both are nonzero and
    [max(a_i / b_i, b_i / a_i)] exceeds the threshold.  A divergence on a
    table's data device counts as access-path when the same table's index
    device diverges too. *)

(** {2 The Section 8.2 census} *)

type census = {
  pairs : int;
  complementary_pairs : int;
  near_pairs : int;
  by_kind : (kind * int) list;
      (** how many (near-)complementary pairs exhibit each cause, in
          {!compare_kind} order, zero counts left out *)
  max_element_ratio : float;  (** largest finite ratio over pairs, at least 1 *)
  theorem2 : float;
      (** {!Bounds.theorem2_bound}: infinity when some pair is
          complementary, else the largest ratio *)
}

val census : dims:dim_kind array -> Vec.t array -> census
(** {!classify}, at its default threshold, over every pair of plans,
    counted, in one pass: each plan's zero threshold and support are
    computed once, a pair with different supports is complementary and
    diverges on their symmetric difference, and only pairs with equal
    supports scan their element ratios.  Equal, field for field and bit
    for bit, to classifying each pair and taking
    {!Bounds.theorem2_bound}; allocates nothing per pair. *)
