(** Dense matrices and linear solvers.

    Provides the Gaussian elimination and least-squares machinery used to
    recover resource usage vectors from total-cost observations through a
    narrow optimizer interface (Section 6.1.1 of the paper). *)

type t
(** A dense [rows x cols] matrix of floats. *)

val make : int -> int -> float -> t
(** [make rows cols x] is the matrix with every entry [x]. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val of_rows : Vec.t list -> t
(** Builds a matrix whose rows are the given vectors; they must share a
    dimension.  Raises [Invalid_argument] on an empty list or ragged rows. *)

val identity : int -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m v] is the matrix-vector product [m v]. *)

val add : t -> t -> t

val scale : float -> t -> t

val equal : ?eps:float -> t -> t -> bool

exception Singular
(** Raised by the solvers when the system matrix is (numerically)
    singular. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] solves the square system [a x = b] by Gaussian elimination
    with partial pivoting.  Raises [Singular] when no unique solution
    exists.  This is the elimination routine referenced in Section 6.1.1. *)

val solve_in_place : int -> float array -> Vec.t -> unit
(** [solve_in_place n aug x] solves the [n x n] system held in [aug]
    together with its right-hand side: row-major, [n] rows of [n + 1]
    entries [a_i0 .. a_i(n-1) b_i].  Writes the solution into [x]
    (length [n]) and destroys [aug].  It is {!factor} on the matrix
    columns followed by {!solve_factored}'s replay and back
    substitution on column [n], and {!solve}, {!inverse} and
    {!determinant} run the same three passes, so the tree has one
    elimination: pivot search with strict [>], the [< 1e-12] singular
    test, row swaps, updates that skip a zero multiplier, back
    substitution in ascending column order.  Each right-hand side gets
    exactly the operations it got as an extra column of one augmented
    elimination, so the results are bit for bit those of eliminating
    [aug] whole.  Its back substitution runs {!solve_factored}'s loop
    with infinite bounds, which never stop it.  Allocates only its
    [n]-entry pivot record and those bounds.  Raises [Singular] as
    {!solve} does, leaving [aug] partly reduced, and [Invalid_argument]
    when the buffer lengths do not match [n]. *)

val factor : int -> float array -> int array -> int
(** [factor n lu piv] factors the [n x n] row-major matrix in [lu] in
    place by Gaussian elimination with partial pivoting and returns the
    number of row swaps.  On return the upper triangle of [lu] holds
    the reduced matrix, step [k]'s pivot row is [piv.(k)], and the
    entry below the diagonal at row [i], column [k] is the multiplier
    step [k] applied to the row then at position [i] (swaps move only
    columns [k ..], so a multiplier stays where it was computed).  The
    pivots and multipliers depend on the matrix alone, so one
    factorization serves every right-hand side through
    {!solve_factored}, and a system is singular for every right-hand
    side or for none.  Allocates nothing.  Raises [Singular] when a
    pivot is below [1e-12] in magnitude, leaving [lu] partly reduced,
    and [Invalid_argument] unless [lu] has [n * n] entries and [piv] at
    least [n]. *)

val solve_factored :
  int ->
  float array ->
  int array ->
  lo:float array ->
  hi:float array ->
  eps:float ->
  Vec.t ->
  bool
(** [solve_factored n lu piv ~lo ~hi ~eps x] solves the system
    {!factor} left in [lu] and [piv] for the right-hand side held in
    [x], overwriting it with the solution: each step's swap and nonzero
    multipliers in step order, then back substitution, coordinate
    [n - 1] first.  Back substitution stops as soon as a computed
    coordinate has [x_i -. hi.(i) > eps] or [lo.(i) -. x_i > eps] and
    returns [false]; [x] then holds that coordinate and the ones above
    it, each bit-identical to the full solve's, and partly reduced
    entries below it.  Otherwise it returns [true] with the whole
    solution.  An infinite bound ([neg_infinity] in [lo], [infinity] in
    [hi]) never stops it, and with such bounds the solution is
    bit-identical to {!solve_in_place} on the same matrix and
    right-hand side.  [lu] and [piv] are not modified.  Allocates
    nothing.  Raises [Invalid_argument] when the buffer lengths do not
    match [n]. *)

val inverse : t -> t
(** Matrix inverse via Gaussian elimination.  Raises [Singular]. *)

val determinant : t -> float

val least_squares : t -> Vec.t -> Vec.t
(** [least_squares c t] returns the least-squares estimate
    [(cᵀc)⁻¹ cᵀ t] of [u] in the overdetermined system [c u = t]
    (Section 6.1.1: recovering a plan's resource usage vector from [m >= n]
    observed total costs).  Raises [Singular] when the observations do not
    span the resource space. *)

val ridge_least_squares : ridge:float -> prior:Vec.t -> t -> Vec.t -> Vec.t
(** Tikhonov-regularized least squares shrinking toward [prior]:
    [(cᵀc + λI) x = cᵀ t + λ prior], with [λ] scaled by the mean
    diagonal of [cᵀc] so [ridge] is unitless.  Solvable even when the
    plain normal equations are underdetermined or singular (any
    [ridge > 0] makes the system positive definite for full-rank-zero
    data too, barring exact cancellation); raises [Singular] only in
    the degenerate all-zero case.  Raises [Invalid_argument] when
    [ridge <= 0] or the prior dimension mismatches. *)

val irls : ?max_iter:int -> ?tol:float -> ?tuning:float -> t -> Vec.t -> Vec.t
(** Outlier-robust least squares: iteratively reweighted with Huber
    weights, residual scale 1.4826 x median absolute residual, weight
    [min 1 (k/|r|)] at [k = tuning * scale] (default 1.345, the classic
    95%-efficiency constant).  Observations the faults layer corrupted
    degrade the residual instead of dragging the estimate.  On clean,
    exactly-consistent data the residual scale is zero and the plain
    {!least_squares} solution is returned bit-identically.  Raises
    [Singular] like {!least_squares}. *)

val pp : Format.formatter -> t -> unit
