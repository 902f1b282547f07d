(** Resource groups: the independently varying cost parameters.

    The worst-case experiments perturb groups of resources by a common
    multiplicative factor.  In the single-device experiment (Figure 5)
    every resource varies independently — three groups: CPU, [d_s], [d_t].
    In the multi-device experiments (Figures 6 and 7) the paper keeps each
    device's [d_s : d_t] ratio fixed and varies whole devices, so each
    device forms one group.

    Plan cost as a function of the multiplier vector [theta] is

    {v T(theta) = sum_g theta_g * (sum_{r in g} u_r * c0_r) v}

    — linear in [theta] — so the entire geometric framework (switchover
    planes, regions of influence, Theorems 1 and 2) applies unchanged in
    group space, with the {e effective usage vector}
    [u~_g = sum_{r in g} u_r c0_r] playing the role of [U] and [theta]
    playing the role of [C].  At the estimated costs, [theta = (1,...,1)]
    and the feasible cost region of error bound [delta] is the box
    [[1/delta, delta]^m]. *)

open Qsens_linalg

type scheme =
  | Per_resource  (** every resource is its own parameter (Figure 5) *)
  | Per_device
      (** one parameter per device (seek and transfer scale together,
          Figures 6 and 7); CPU is its own parameter *)

type t

val make : scheme -> Space.t -> t

val space : t -> Space.t

val dim : t -> int

val names : t -> string array

val group_of_resource : t -> int -> int
(** Group index of the resource at the given space coordinate. *)

val effective_usage : t -> base_costs:Vec.t -> usage:Vec.t -> Vec.t
(** Fold a per-resource usage vector into group space as described above. *)

val expand_costs : t -> base_costs:Vec.t -> theta:Vec.t -> Vec.t
(** The full resource cost vector [c_r = theta_{g(r)} * c0_r]. *)

val ones : t -> Vec.t
(** The multiplier vector of the estimated costs. *)

val feasible_box : t -> delta:float -> Qsens_geom.Box.t

val pp_vec : t -> Format.formatter -> Vec.t -> unit
(** Group-labelled vector printing, skipping zeros. *)
