(** Dense floating-point vectors.

    Vectors are immutable from the point of view of this interface: every
    operation returns a fresh array.  They back the resource usage vectors
    [U] and resource cost vectors [C] of the paper's framework, where the
    cost of a plan is the dot product [U . C] (Equation 3).

    {2 Thread safety}

    No function in this module mutates its arguments or touches shared
    state, so concurrent {e reads} of the same vector from multiple
    domains (as done by {!Qsens_parallel.Pool} users: vertex enumeration,
    worst-case curves, Monte-Carlo sampling) are safe without locks.
    The representation is a bare [float array]; callers that mutate a
    vector in place through the array syntax must not share it across
    domains while doing so. *)

type t = float array

val make : int -> float -> t
(** [make n x] is the [n]-dimensional vector with every component [x]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val of_list : float list -> t

val to_list : t -> float list

val dim : t -> int
(** Number of components. *)

val get : t -> int -> float

val copy : t -> t

val zero : int -> t
(** [zero n] is the [n]-dimensional zero vector. *)

val basis : int -> int -> t
(** [basis n i] is the [i]-th standard basis vector of dimension [n]. *)

val dot : t -> t -> float
(** [dot u c] is the inner product; raises [Invalid_argument] on dimension
    mismatch.  This is the total plan cost [T = U . C] of Equation 3. *)

val dot_sub : t -> int -> int -> t -> float
(** [dot_sub a pos len x] is the inner product of the slice
    [a.(pos) .. a.(pos + len - 1)] with [x], accumulated in ascending
    index order exactly like {!dot} — allocation-free, for packed
    row-major plan matrices (see [Qsens_linalg.Kernel]).  Raises
    [Invalid_argument] if the slice lies outside [a] or
    [len <> dim x]. *)

val dot_sub_fa : floatarray -> int -> int -> t -> float
(** [dot_sub_fa a pos len x] is {!dot_sub} over an unboxed [floatarray]
    slice: ascending accumulation, bit-identical to [dot_sub] on a boxed
    copy of the slice.  Backs the unboxed plan matrices of
    [Qsens_linalg.Kernel]. *)

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is the normal direction [A - B] of the switchover plane
    between two plans (Section 4.2). *)

val scale : float -> t -> t

val neg : t -> t

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val normalize : t -> t
(** Unit vector in the same direction; the zero vector is returned
    unchanged. *)

val equal : ?eps:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance [eps]
    (default [1e-9]). *)

val compare : t -> t -> int
(** Total order: shorter vectors first, then lexicographic by
    [Float.compare] on components.  NaN is handled by [Float.compare]'s
    total order — equal to itself and smaller than every other float
    (including [neg_infinity]) — so sorting never loses or reorders
    vectors containing NaN, unlike the polymorphic [compare] whose
    [=]-consistency NaN breaks.  Suitable as a deterministic tie-break
    key; not a numeric tolerance — use {!equal} for eps comparisons. *)

val dominates : t -> t -> bool
(** [dominates a b] is true when [b] lies in the positive first quadrant
    relative to [a] (Section 4.4): [b = a + q] with [q >= 0] componentwise
    and [b <> a].  A dominated plan can never be candidate optimal. *)

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val max_elt : t -> float

val min_elt : t -> float

val argmax : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [(x1, x2, ..., xn)] with compact float formatting. *)

val to_string : t -> string
