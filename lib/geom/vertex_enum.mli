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
    section 18).

    Inside that gate a row is grouped with the next one when the next
    is its exact opposite (entrywise under [Float.equal] after
    negation), which pairs every box coordinate of a
    [Region.halfspaces] list.  Subsets that differ only in which row
    of a pair they take form one class: the elimination's pivots and
    multipliers do not depend on the right-hand side or, up to sign, on
    which row of a pair is taken, so the class's representative rows
    are factored once ({!Mat.factor}) and each of its facet choices is
    solved as a right-hand side ({!Mat.solve_factored}), a partner's
    offset negated.  A choice that takes a partner row and whose
    solution has a zero or non-finite coordinate, where a zero's sign
    or a non-finite intermediate could differ, is solved again with
    {!Mat.solve_in_place} on its own rows.  The feasible solutions are
    sorted by the rank of their subset before the dedup.

    A facet choice is dropped without that guard or the scan when back
    substitution computes a coordinate [x_i] outside its box bounds:
    [x_i -. hi_i > eps] or [lo_i -. x_i > eps], where [hi_i] is the
    smallest offset among the rows that are exactly [+e_i] (a [1.] in
    column [i], zeros of either sign elsewhere) and [lo_i] the largest
    negated offset among the rows that are exactly [-e_i].  That is the
    scan's own comparison on the tightest such row, so it rejects
    exactly what the scan would, but only while every coordinate stays
    finite: a NaN coordinate makes every row product NaN, which the
    scan passes.  The bounds are therefore derived only when a bound on
    every solve of the call, computed once in log2 from the largest
    normal entry and offset, stays far below overflow; otherwise they
    are infinite and every choice is solved in full (DESIGN.md section
    18).  Skipping, sharing, rejecting and sorting therefore never
    change the result: it is the vertex list, in the same order and bit
    for bit, that solving every subset yields.

    The counters [vertex_enum.subsets] (every subset), [.skipped]
    (subsets the rules proved singular, including those that take both
    rows of a pair), [.factored] (classes factored, singular ones
    included), [.solved] (right-hand sides replayed), [.rejected]
    (facet choices stopped on a box bound), [.resolved] (surviving
    facet choices solved again directly) and [.vertices] are added once
    per call.  The loop over classes and facet choices allocates
    nothing per subset; only a feasible solution is copied out.

    With [?pool], the rank-ordered space of [n]-subsets of groups is
    partitioned into contiguous chunks solved concurrently (each domain
    starts its own combination stream via {!nth_subset}, with its own
    scratch); the feasible solutions of every chunk are sorted by rank
    together, so the result is {e identical} — same vertices, same
    order — to the sequential run. *)

(** {2 Branch-and-bound vertex search}

    Maximizes a ratio over box sign patterns [k] in [0 .. 2^dim - 1]
    without enumerating them all: coordinates are fixed one at a time
    from the highest index down, each subtree is bounded by the exact
    threshold completion of its free coordinates, and subtrees that
    cannot beat the incumbent are pruned.  Replaces the [2^dim] wall of
    the worst-case GTC path (DESIGN.md sections 12 and 20). *)
module Bnb : sig
  type spec
  (** One search: a numerator and a denominator weight per coordinate.
      The leaf ratio at pattern [k] is
      [(delta * an + bn * inv) / (delta * ad + bd * inv)], with
      [inv = 1 / delta], [an]/[bn] the ascending partial sums of the
      numerator weights over the set/cleared bits of [k] and [ad]/[bd]
      likewise over the denominator weights — the exact {!Qsens_core}
      sweep kernel. *)

  val make_spec : wn:float array -> wd:float array -> spec
  (** [make_spec ~wn ~wd] over nonnegative numerator weights [wn] and
      denominator weights [wd], which the spec shares, not copies.  It
      records what the search derives from them once: coordinates whose
      weights are both bitwise [+0.] are inert, never branched and fixed
      to the cleared bit (the tie-winning lower pattern); when the two
      weight arrays are bitwise equal and the spec is in the range where
      {!search} prunes, every leaf has pattern 0's value and only
      pattern 0 — the tie-winner — is evaluated.  Raises
      [Invalid_argument] if the lengths differ or exceed
      [Sys.int_size - 2]. *)

  type stats = { mutable nodes : int; mutable leaves : int }
  (** Visited bound-check nodes and evaluated leaves, which {!search}
      adds to; a function of the specs and [delta] alone. *)

  val fresh_stats : unit -> stats

  type stack
  (** The preallocated node pool and threshold tables; grows to the
      largest dimension ever searched and is then reused.  Single-owner
      mutable state — never share one across domains. *)

  val make_stack : unit -> stack

  val search :
    stats:stats ->
    ?budget:Qsens_budget.Budget.t ->
    stack:stack ->
    delta:float ->
    spec array ->
    float * int * int
  (** [search ~stats ~stack ~delta specs] is
      [(value, pattern, spec_index)] of the maximal leaf ratio over all
      specs, ties to the lowest (spec, pattern) — bit-identical to
      scanning every leaf of every spec in ascending order with strict
      improvement, NaN skipped.
      [(neg_infinity, -1, -1)] when no leaf compares above
      [neg_infinity] (all NaN, or no specs).  At [delta = 1] the box is
      its center and each spec evaluates pattern 0 only, as the
      exhaustive sweep does.

      A subtree is pruned when the threshold completion of its free
      coordinates — the ones with [wn > lambda * wd] at their set
      terms, the rest at their cleared terms, near-ties at the loose
      pair — cannot beat the incumbent [lambda] after a [1e-12]
      inflation.  Rounding can then only keep a subtree, never drop a
      better leaf (DESIGN.md section 20), as long as every product stays
      normal: a spec whose weight sums times [delta] exceed [2^1020], or
      whose smallest positive weight over [delta] falls below
      [2^-1020], is searched without pruning.

      With [?budget], every visited node charges one unit and the
      search aborts with {!Qsens_budget.Budget.Exhausted} once the
      allowance is spent: it trips iff the allowance is below the node
      count, and otherwise returns the unbudgeted result.  Allocates no
      minor-heap words per node once [stack] has warmed up.  Raises
      [Invalid_argument] if [delta < 1]. *)
end

val count_subsets : int -> int -> int
(** [count_subsets n k] is [C(n, k)] exactly when it is at most
    [max_int], and [max_int] otherwise; [0] unless [0 <= k <= n]. *)

val nth_subset : int -> int -> int -> int array
(** [nth_subset n k rank] is the [rank]-th [k]-subset of [0 .. n-1] in
    lexicographic order (the combinatorial number system), as a strictly
    increasing index array.  Raises [Invalid_argument] unless
    [1 <= k <= n] and [0 <= rank < count_subsets n k]. *)
