(** Flat, row-major plan matrices on unboxed storage.

    Candidate plans' usage vectors are packed into one contiguous
    [floatarray] so the hot paths — worst-case sweeps, Monte-Carlo
    sampling, vertex feasibility checks — evaluate all plan costs at a
    cost vector with a blocked, allocation-free matrix-vector product
    instead of per-plan {!Vec.dot} calls over an array of boxed rows.
    The [_into] variants plus {!Scratch} make steady-state evaluation
    allocate zero minor-heap words (measured by [Gc.minor_words] deltas;
    see DESIGN.md section 16).

    {2 Determinism contract}

    Every row product accumulates in ascending column order, exactly like
    {!Vec.dot}: [matvec], [matvec_into] and [dot_row] results are
    bit-identical to the naive per-row dots.  Blocking is over rows only
    (independent accumulators); columns are never reordered or split.

    {2 Thread safety}

    A packed matrix is immutable after {!pack}; concurrent reads from
    multiple domains are safe.  [matvec]/[matvec_into] write only to the
    caller's output buffer.  A {!Scratch.t} is single-owner mutable
    state: never share one across domains. *)

type t

val pack : Vec.t array -> t
(** [pack plans] copies the rows into one contiguous row-major unboxed
    array.  Raises [Invalid_argument] if the rows have unequal lengths.
    The empty array packs to a 0x0 matrix. *)

val rows : t -> int
val cols : t -> int

val bytes : t -> int
(** Resident size of the packed matrix in bytes, computed from its
    dimensions (8 bytes per entry plus fixed overhead) — the honest
    [size_of] for byte-budgeted caches, with no marshalling guesswork. *)

val get : t -> int -> int -> float
(** [get t i j] is entry (i, j); raises [Invalid_argument] out of range. *)

val row : t -> int -> Vec.t
(** [row t i] is a fresh boxed copy of row [i]. *)

val dot_row : t -> int -> Vec.t -> float
(** [dot_row t i x] is [Vec.dot (row t i) x] without the copy —
    bit-identical, allocation-free. *)

(** Reusable unboxed output buffers for the [_into] paths.  A scratch
    grows to the largest size ever requested and is then reused, so
    repeated evaluations allocate nothing after warm-up. *)
module Scratch : sig
  type t

  val create : unit -> t

  val ensure : t -> int -> floatarray
  (** [ensure s n] is a buffer of length at least [n], growing the
      scratch if needed.  Contents beyond what the caller writes are
      unspecified.  Raises [Invalid_argument] on negative [n]. *)

  val capacity : t -> int
end

val matvec : t -> Vec.t -> Vec.t -> unit
(** [matvec t x out] stores the product [t x] into [out]
    ([dim out = rows t]).  Each entry is bit-identical to
    [dot_row t i x].  Raises [Invalid_argument] on dimension
    mismatch. *)

val matvec_into : t -> Vec.t -> floatarray -> unit
(** [matvec_into t x out] is {!matvec} into an unboxed buffer of length
    at least [rows t] (extra entries untouched) — the zero-allocation
    steady-state form.  Bit-identical to {!matvec}. *)

val dot_rows : t -> Vec.t -> float array
(** [dot_rows t x] is {!matvec} into a fresh array: every plan's cost at
    the cost vector [x] in one blocked product.  Entry [i] is
    bit-identical to [dot_row t i x].  The plan-selection paths
    ({!Qsens_core.Select}) evaluate all candidate expected costs with a
    single call. *)
