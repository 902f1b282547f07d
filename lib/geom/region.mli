(** Regions of influence (Section 4.5 of the paper).

    Given the resource usage vectors of a set of plans and a feasible cost
    region (a box), the region of influence of plan [i] is the set of cost
    vectors under which plan [i] is optimal:

    {v V_i = { v in box | A_i . v <= A_j . v  for all j <> i } v}

    Regions of influence are convex polytopes bounded by switchover planes;
    restricted to the cone through the origin they are Voronoi-like cones
    (Figure 4).  Plans whose region is empty are not candidate optimal. *)

open Qsens_linalg

type t

val of_plans : plans:Vec.t array -> index:int -> Box.t -> t
(** [of_plans ~plans ~index box] is the region of influence of
    [plans.(index)] against all other entries of [plans], intersected
    with [box]. *)

val halfspaces : t -> Halfspace.t list
(** Switchover half-spaces plus the box facets. *)

val box : t -> Box.t

val contains : ?eps:float -> t -> Vec.t -> bool

val interior_point : ?margin:float -> t -> Vec.t option
(** A point of the region with every switchover constraint satisfied with
    slack at least [margin] times the constraint normal's norm (default
    [1e-9]); [None] when the (shrunken) region is empty.  Uses the simplex
    solver. *)

val vertices : ?max_subsets:int -> t -> Vec.t list
(** Vertices via {!Vertex_enum.vertices}; raises {!Vertex_enum.Too_large}
    in high dimension. *)

val contract : float -> t -> t
(** [contract d r] shifts every switchover half-space inward by [d]
    (leaving box facets in place) — the small contraction applied before
    probing vertices in Section 6.2.1, which keeps probe points strictly
    inside a single plan's optimality region. *)

val dominated : Vec.t array -> int -> bool
(** [dominated plans i] is true when some other plan's usage vector
    dominates [plans.(i)] componentwise (Section 4.4, Figure 3): such a
    plan can never be candidate optimal under positive costs. *)
