(** Vertex enumeration for H-polytopes in low dimension.

    A region of influence (Section 4.5) is the intersection of switchover
    half-spaces with the feasible cost region — a convex polytope.  The
    candidate-plan completeness check of Section 6.2.1 probes the
    optimizer at (slightly contracted) vertices of these polytopes.  This
    module enumerates vertices by solving every [n]-subset of boundary
    hyperplanes and keeping the solutions that satisfy all constraints:
    adequate for the low-dimensional layouts; higher-dimensional layouts
    fall back to sampling (see {!Qsens_core}). *)

open Qsens_linalg

exception Too_large
(** Raised when the number of hyperplane subsets to examine exceeds the
    [max_subsets] budget. *)

val vertices :
  ?eps:float ->
  ?max_subsets:int ->
  ?pool:Qsens_parallel.Pool.t ->
  Halfspace.t list ->
  Vec.t list
(** [vertices hs] enumerates the vertices of [{ x | h . x <= o for all
    (h, o) in hs }].  Duplicate vertices (within [eps], default [1e-7],
    infinity norm) are merged greedily in subset rank order: a solution
    is dropped when a kept vertex lies within [eps] of it and in one of
    the neighbouring cells of the [eps]-grid.  Raises [Too_large] if
    [C(|hs|, n) > max_subsets] (default [200_000]); the budget counts
    every subset, including those the skip rules below never solve.
    Raises [Invalid_argument] when the normals' dimensions differ.

    Each subset's vertex is the solution of {!Mat.solve_in_place}
    followed by a feasibility scan of every constraint.  A subset is
    skipped without solving when it provably makes that solve raise
    {!Mat.Singular}: some column is an exact zero in all its rows, or
    two of its rows are equal or opposite (the [lo]/[hi] box facets of
    one coordinate, or the switchovers of duplicated plans).  The rules
    apply only when every normal entry is finite and below
    [2^(1022 - n)], so no elimination step can overflow (DESIGN.md
    section 18).  Skipping therefore never changes the result: it is
    the vertex list, in the same order and bit for bit, that solving
    every subset yields.  The counters [vertex_enum.subsets],
    [.skipped], [.solved] and [.vertices] are added once per call.
    The loop over subsets allocates nothing per subset; only a
    feasible solution is copied out.

    With [?pool], the rank-ordered space of [n]-subsets is partitioned
    into contiguous chunks solved concurrently (each domain starts its
    own combination stream via {!nth_subset}, with its own scratch);
    chunk outputs are merged in rank order, so the result is
    {e identical} — same vertices, same order — to the sequential
    run. *)

(** {2 Branch-and-bound vertex search}

    Maximizes a ratio [num(k) / den(k)] over box sign patterns
    [k] in [0 .. 2^dim - 1] without enumerating them all: coordinates
    are fixed one at a time from the highest index down, each subtree is
    bounded optimistically from the per-coordinate suffix bounds, and
    subtrees that cannot beat the incumbent are pruned.  Replaces the
    [2^dim] wall of the worst-case GTC path (DESIGN.md section 12). *)
module Bnb : sig
  type spec = {
    dim : int;
    num_hi : float array;  (** numerator term of coordinate [i], bit set *)
    num_lo : float array;  (** numerator term of coordinate [i], bit clear *)
    den_hi : float array;  (** denominator term, bit set *)
    den_lo : float array;  (** denominator term, bit clear *)
    num_bound : float array;
        (** [num_bound.(d)] bounds (from above, up to rounding covered
            by the internal inflation) the best numerator completion
            over free coordinates [0 .. d]:
            [sum of max(num_hi, num_lo) over j <= d]. *)
    num_bound_eq : float array;
        (** The Section-5.6 complementary-pair tightening: as
            [num_bound], but coordinates whose num and den terms are
            bitwise equal on both sides contribute their {e min} term —
            the analytic pin to the twin leaf that dominates whenever
            the ratio is at least 1.  Only consulted while the incumbent
            exceeds [1 + 1e-9]. *)
    den_bound : float array;
        (** [den_bound.(d)] bounds from below the least denominator
            completion: [sum of min(den_hi, den_lo) over j <= d]. *)
    pinned : bool array;
        (** Coordinates whose branches are bitwise inert (e.g. zero
            weight on both sides): never branched, fixed to the cleared
            bit — the tie-winning lower pattern. *)
    identical : bool;
        (** All leaves share one value bitwise (numerator and
            denominator kernels coincide): only pattern 0 — the
            tie-winner — is evaluated. *)
    leaf : int -> float;
        (** Exact ratio at a full pattern.  This is the kernel the
            result is bit-identical to: the search returns exactly the
            [(value, pattern)] a flat ascending scan of [leaf] over all
            patterns (strict improvement, NaN skipped) would return. *)
  }

  type stats = { mutable nodes : int; mutable leaves : int }
  (** Visited bound-check nodes and evaluated leaves.  Deterministic for
      a fixed pool size; pooled runs visit more nodes than sequential
      ones because the incumbent does not travel between shards. *)

  val fresh_stats : unit -> stats

  val search :
    ?pool:Qsens_parallel.Pool.t ->
    ?stats:stats ->
    ?budget:Qsens_budget.Budget.t ->
    spec array ->
    float * int * int
  (** [search specs] is [(value, pattern, spec_index)] of the maximal
      leaf ratio over all specs, ties to the lowest (spec, pattern) —
      bit-identical to scanning every [leaf] of every spec in ascending
      order with strict improvement.  [(neg_infinity, -1, -1)] when no
      leaf compares above [neg_infinity] (all NaN, or no specs).

      The incumbent is pre-seeded with a value strictly below the best
      leaf a per-spec Dinkelbach warm start reaches, so near-optimal
      subtrees prune immediately; the seed carries no pattern, which
      preserves first-tie-wins.

      With [?pool], each spec's top branch prefixes become independent
      tasks (fresh incumbent each, same shared seed) reduced in
      (spec, prefix) order with strict improvement — the result is
      identical to the sequential scan for any pool size.

      With [?budget], every visited node charges one unit and the search
      aborts with {!Qsens_budget.Budget.Exhausted} once the allowance is
      spent — the cooperative checkpoint behind the graceful-degradation
      dispatchers (DESIGN.md section 14).  A budgeted search always runs
      sequentially, ignoring [?pool]: the trip point is then a pure
      function of (budget, specs) rather than of incumbent travel
      between shards. *)

  (** {2 Node-pool engine}

      The same sequential search run over unboxed state: spec term
      tables are caller-owned [floatarray]s refilled in place per delta,
      the DFS runs on an explicit preallocated {!Flat.stack} instead of
      recursion (whose float arguments box at every call), and the leaf
      kernel is inlined — so descending the frontier allocates nothing
      per node.  Visit order, bound arithmetic, warm-start seed and
      budget spends are identical operation for operation to {!search}
      without a pool, hence results {e and} budget trip points are
      bit-identical to it. *)
  module Flat : sig
    type spec = {
      dim : int;
      num_hi : floatarray;
      num_lo : floatarray;
      den_hi : floatarray;
      den_lo : floatarray;
      num_bound : floatarray;
      num_bound_eq : floatarray;
      den_bound : floatarray;
      pinned : bool array;
      wn : floatarray;
          (** Numerator leaf weights; the leaf ratio at pattern [k] is
              [fma delta an (bn * inv) / fma delta ad (bd * inv)] with
              [an]/[bn] the ascending partial sums of [wn] over
              set/cleared bits and [ad]/[bd] likewise over [wd] — the
              exact {!Qsens_core} sweep kernel. *)
      wd : floatarray;  (** Denominator leaf weights. *)
      mutable identical : bool;
          (** As {!Bnb.spec.identical}: only pattern 0 is evaluated. *)
      mutable delta : float;
      mutable inv : float;  (** [1 / delta], computed once by the filler. *)
    }

    val make_spec : dim:int -> spec
    (** All tables preallocated at [dim], zero-filled; the caller fills
        them in place before each {!search}. *)

    type stack
    (** The preallocated node pool; grows to the largest dimension ever
        searched and is then reused.  Single-owner mutable state — never
        share one across domains. *)

    val make_stack : unit -> stack

    val search :
      ?stats:stats ->
      ?budget:Qsens_budget.Budget.t ->
      stack:stack ->
      spec array ->
      float * int * int
    (** Bit-identical to the sequential {!Bnb.search} on equivalent
        specs, including budget trip points; allocates no minor-heap
        words per visited node once [stack] has warmed up. *)
  end
end

val count_subsets : int -> int -> int
(** [count_subsets n k] is [C(n, k)] exactly when it is at most
    [max_int], and [max_int] otherwise; [0] unless [0 <= k <= n]. *)

val nth_subset : int -> int -> int -> int array
(** [nth_subset n k rank] is the [rank]-th [k]-subset of [0 .. n-1] in
    lexicographic order (the combinatorial number system), as a strictly
    increasing index array.  Raises [Invalid_argument] unless
    [1 <= k <= n] and [0 <= rank < count_subsets n k]. *)
