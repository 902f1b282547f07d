open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Budget = Qsens_budget.Budget
module Obs = Qsens_obs.Obs

exception Too_large

(* C(n - k + i, i) for i = 1 .. k, each step multiplying by (n - k + i)
   and dividing by i after cancelling their common factor with the
   running value: [i / g] then divides [n - k + i] exactly, so no
   intermediate exceeds the step's result and the overflow test is
   exact.  The sequence is non-decreasing, so the first step past
   [max_int] decides saturation. *)
let count_subsets n k =
  if k < 0 || k > n then 0
  else begin
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let g = gcd acc i in
        let a = acc / g and m = (n - k + i) / (i / g) in
        if a > max_int / m then max_int else go (a * m) (i + 1)
    in
    go 1 1
  end

(* Advance [idx] to the next [k]-subset of [0 .. n-1] in lexicographic
   order, in place; false when [idx] was the last subset.  A plain loop,
   not a local recursive function: called once per subset, it must not
   allocate a closure. *)
let advance_subset n k idx =
  let i = ref (k - 1) in
  while !i >= 0 && idx.(!i) >= n - (k - !i) do
    decr i
  done;
  if !i < 0 then false
  else begin
    idx.(!i) <- idx.(!i) + 1;
    for j = !i + 1 to k - 1 do
      idx.(j) <- idx.(j - 1) + 1
    done;
    true
  end

(* Combinatorial number system: the [rank]-th [k]-subset of [0 .. n-1]
   in lexicographic order.  Lets each domain of a pool start its own
   combination stream mid-sequence. *)
let nth_subset n k rank =
  if k < 1 || k > n then invalid_arg "Vertex_enum.nth_subset: bad k";
  if rank < 0 || rank >= count_subsets n k then
    invalid_arg "Vertex_enum.nth_subset: rank out of range";
  let idx = Array.make k 0 in
  let r = ref rank and lo = ref 0 in
  for i = 0 to k - 1 do
    let c = ref !lo in
    let rec settle () =
      let block = count_subsets (n - !c - 1) (k - i - 1) in
      if !r >= block then begin
        r := !r - block;
        incr c;
        settle ()
      end
    in
    settle ();
    idx.(i) <- !c;
    lo := !c + 1
  done;
  idx

(* ------------------------------------------------------------------ *)
(* Region-of-influence vertex enumeration (DESIGN.md section 18) *)

let m_subsets =
  Obs.counter ~help:"hyperplane subsets examined" "vertex_enum.subsets"

let m_skipped =
  Obs.counter ~help:"subsets a skip rule proved singular" "vertex_enum.skipped"

let m_factored =
  Obs.counter ~help:"classes of subsets factored once" "vertex_enum.factored"

let m_solved =
  Obs.counter ~help:"right-hand sides solved" "vertex_enum.solved"

let m_rejected =
  Obs.counter ~help:"facet choices stopped on a box bound" "vertex_enum.rejected"

let m_resolved =
  Obs.counter ~help:"facet choices re-solved directly" "vertex_enum.resolved"

let m_vertices = Obs.counter ~help:"distinct vertices returned" "vertex_enum.vertices"

(* The hyperplanes of one call, flattened once: normals row-major, one
   row per half-space, beside their offsets.  [skip] is the overflow
   gate of the skip rules; [nonzero] and [twin] are their per-row
   tables, filled only when the gate holds.  Rows are walked in groups:
   a row and the next one when the next is its exact opposite (a box
   coordinate's [hi] and [lo] facets), otherwise the row alone.  Inside
   the gate only; outside it every group is one row.  [lo] and [hi] are
   the box bounds back substitution tests each coordinate against. *)
type system = {
  n : int;
  count : int;
  normals : float array;
  offsets : float array;
  lo : float array;
  hi : float array;
  skip : bool;
  nonzero : int array;
      (** bit [j] set when the row's column [j] is not an exact zero *)
  twin : int array;
      (** lowest row equal or opposite to this one, or -1 if it has none *)
  groups : int;
  first : int array;  (** each group's first row, its representative *)
  partner : int array;  (** the group's second row, [first + 1], or -1 *)
}

let system n arr =
  let count = Array.length arr in
  let normals = Array.make (count * n) 0. in
  Array.iteri
    (fun r h ->
      let v = h.Halfspace.normal in
      if Array.length v <> n then
        invalid_arg
          (Printf.sprintf
             "Vertex_enum.vertices: normal %d has dimension %d, expected %d" r
             (Array.length v) n);
      Array.blit v 0 normals (r * n) n)
    arr;
  let offsets = Array.map (fun h -> h.Halfspace.offset) arr in
  (* Coordinate [j]'s tightest bounds: the smallest offset among the
     rows that are exactly [+e_j] and the largest negated offset among
     those that are exactly [-e_j].  A choice is dropped as soon as back
     substitution computes a coordinate outside them by more than
     [eps], which is the scan's own comparison on that row only while
     every coordinate of every solve of this call stays finite
     (DESIGN.md section 18, "Rejecting a choice on its box bounds").
     Pivots are at least 1e-12 and partial pivoting grows the reduced
     matrix and right-hand side at most 2^(n-1)-fold, so with [u] and
     [y] the grown largest normal entry and offset, every coordinate is
     below [(y / 1e-12) (1 + n u / 1e-12)^(n-1)] and every row product
     below [n] times the largest normal entry times that.  The bounds
     are set only when the log2 of that product is at most 960, far
     below 2^1023; NaN and infinite entries fail the test.  Otherwise
     they stay infinite and never stop a solve. *)
  let lo = Array.make n neg_infinity and hi = Array.make n infinity in
  let largest v = Array.fold_left (fun m a -> Float.max m (Float.abs a)) 0. v in
  let a = largest normals and b = largest offsets in
  let fn = Float.of_int n in
  let log2_bound =
    Float.log2 (Float.ldexp b (n - 1) /. 1e-12)
    +. (Float.of_int (n - 1) *. Float.log2 (1. +. (fn *. Float.ldexp a (n - 1) /. 1e-12)))
    +. Float.log2 (fn *. a)
  in
  (* The column of row [r]'s one nonzero entry when that entry is 1 or
     -1 and the others are zeros of either sign, otherwise -1. *)
  let unit_column r =
    let col = ref (-1) and single = ref true in
    for j = 0 to n - 1 do
      let v = normals.((r * n) + j) in
      if not (Float.equal v 0.) then
        if !col < 0 && Float.equal (Float.abs v) 1. then col := j else single := false
    done;
    if !single then !col else -1
  in
  if log2_bound <= 960. then
    for r = 0 to count - 1 do
      let j = unit_column r in
      if j >= 0 then
        if normals.((r * n) + j) > 0. then hi.(j) <- Float.min hi.(j) offsets.(r)
        else lo.(j) <- Float.max lo.(j) (-.offsets.(r))
    done;
  (* Partial pivoting grows entries at most 2^(n-1)-fold; below this
     bound no elimination of these normals can overflow to an infinity,
     so every step of the skip-rule proofs stays finite.  NaN and
     infinite entries fail the test too.  The bitmask caps n. *)
  let limit = Float.ldexp 1. (1022 - n) in
  let skip = ref (n <= Sys.int_size - 2) in
  for k = 0 to (count * n) - 1 do
    if not (Float.abs normals.(k) <= limit) then skip := false
  done;
  let skip = !skip in
  let nonzero = Array.make count 0 and twin = Array.make count (-1) in
  (* Rows [r] and [r'] equal ([sign] 1) or opposite ([sign] -1), entry
     by entry under [Float.equal]. *)
  let related sign r r' =
    let ok = ref true and j = ref 0 in
    while !ok && !j < n do
      ok :=
        Float.equal normals.((r * n) + !j)
          (if sign > 0 then normals.((r' * n) + !j)
           else -.normals.((r' * n) + !j));
      incr j
    done;
    !ok
  in
  if skip then begin
    for r = 0 to count - 1 do
      for j = 0 to n - 1 do
        if not (Float.equal normals.((r * n) + j) 0.) then
          nonzero.(r) <- nonzero.(r) lor (1 lsl j)
      done
    done;
    for r = 0 to count - 1 do
      if twin.(r) < 0 then
        for r' = r + 1 to count - 1 do
          if twin.(r') < 0 && (related 1 r r' || related (-1) r r') then begin
            twin.(r) <- r;
            twin.(r') <- r
          end
        done
    done
  end;
  let first = Array.make count 0 and partner = Array.make count (-1) in
  let groups = ref 0 and r = ref 0 in
  while !r < count do
    first.(!groups) <- !r;
    if skip && !r + 1 < count && related (-1) !r (!r + 1) then begin
      partner.(!groups) <- !r + 1;
      r := !r + 2
    end
    else r := !r + 1;
    incr groups
  done;
  {
    n;
    count;
    normals;
    offsets;
    lo;
    hi;
    skip;
    nonzero;
    twin;
    groups = !groups;
    first;
    partner;
  }

(* Per-task scratch: the factored representative rows with their pivot
   record, the right-hand side and solution, the augmented buffer of a
   direct re-solve, the group subset with the positions of its pairs,
   and the twin-rule stamps (one tick per group subset). *)
type scratch = {
  lu : float array;
  piv : int array;
  rhs : float array;  (** the representatives' offsets *)
  x : float array;
  aug : float array;
  idx : int array;
  pairs : int array;
  alt : float array;  (** each pair's partner offset, negated *)
  stamp : int array;
  mutable tick : int;
}

let scratch sys ~start =
  {
    lu = Array.make (sys.n * sys.n) 0.;
    piv = Array.make sys.n 0;
    rhs = Array.make sys.n 0.;
    x = Array.make sys.n 0.;
    aug = Array.make (sys.n * (sys.n + 1)) 0.;
    idx = nth_subset sys.groups sys.n start;
    pairs = Array.make sys.n 0;
    alt = Array.make sys.n 0.;
    stamp = Array.make sys.count 0;
    tick = 0;
  }

(* What one range of group subsets yields. *)
type tally = {
  found : (int * float array) list;
      (** feasible solutions, each with the rank of its row subset *)
  covered : int;  (** row subsets in the classes factored *)
  factored : int;
  solved : int;
  rejected : int;
  resolved : int;
}

(* The row that facet choice [mask] takes at position [i] of the group
   subset in [sc.idx]: the group's partner when the position is the
   [b]-th pair of the subset ([sc.pairs.(b) = i]) and bit [b] of [mask]
   is set. *)
let chosen_row sys sc ~mask i =
  let g = sc.idx.(i) in
  if sys.partner.(g) < 0 then sys.first.(g)
  else begin
    let b = ref 0 in
    while sc.pairs.(!b) <> i do
      incr b
    done;
    if mask land (1 lsl !b) <> 0 then sys.partner.(g) else sys.first.(g)
  end

(* The lexicographic rank, among all [n]-subsets of the rows, of the
   subset facet choice [mask] takes: [C(count, n) - 1 - sum_i C(count -
   1 - c_i, n - i)] over its ascending rows [c_i].  Every term is at
   most [C(count, n)], so nothing overflows.  Called once per feasible
   solution, never per subset. *)
let rank sys sc ~mask =
  let n = sys.n in
  let acc = ref (count_subsets sys.count n - 1) in
  for i = 0 to n - 1 do
    let c = chosen_row sys sc ~mask i in
    acc := !acc - count_subsets (sys.count - 1 - c) (n - i)
  done;
  !acc

(* qsens-hot: begin *)

(* True when [Mat.solve_in_place] provably raises [Singular] on every
   facet choice of the group subset in [sc.idx] (DESIGN.md section 18):
   some column is an exact zero in every chosen row, or two chosen rows
   are equal or opposite.  A group's rows share their zero columns and
   their twin class, so the representatives decide for every choice.
   Only called when [sys.skip] holds. *)
let provably_singular sys sc =
  let n = sys.n in
  let cols = ref 0 in
  for i = 0 to n - 1 do
    cols := !cols lor sys.nonzero.(sys.first.(sc.idx.(i)))
  done;
  if !cols <> (1 lsl n) - 1 then true
  else begin
    sc.tick <- sc.tick + 1;
    let twins = ref false and i = ref 0 in
    while (not !twins) && !i < n do
      let c = sys.twin.(sys.first.(sc.idx.(!i))) in
      if c >= 0 then
        if sc.stamp.(c) = sc.tick then twins := true else sc.stamp.(c) <- sc.tick;
      incr i
    done;
    !twins
  end

(* Every constraint holds within [eps] at [x]: each row product
   accumulates in ascending column order from 0, exactly as
   [Kernel.dot_row] and [Halfspace.eval] compute it, with an early exit
   on the first violated row. *)
let feasible sys eps x =
  let n = sys.n in
  let ok = ref true and r = ref 0 in
  while !ok && !r < sys.count do
    let base = !r * n in
    let acc = ref 0. in
    for j = 0 to n - 1 do
      acc := !acc +. (sys.normals.(base + j) *. x.(j))
    done;
    if !acc -. sys.offsets.(!r) > eps then ok := false;
    incr r
  done;
  !ok

(* Every coordinate of [x] is finite and nonzero: the solutions on
   which a facet choice's replay provably equals its direct solve
   (DESIGN.md section 18, "One factorization per facet choice"). *)
let replay_exact x =
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if not (a > 0. && a < infinity) then ok := false
  done;
  !ok

(* Solves facet choice [mask] directly: its real rows and offsets are
   copied into the augmented buffer and reduced by [Mat.solve_in_place].
   False when the solve raises [Singular], which the factorization of
   its class has already ruled out. *)
let resolve sys sc ~mask =
  let n = sys.n and nc = sys.n + 1 in
  for i = 0 to n - 1 do
    let r = chosen_row sys sc ~mask i in
    for j = 0 to n - 1 do
      sc.aug.((i * nc) + j) <- sys.normals.((r * n) + j)
    done;
    sc.aug.((i * nc) + n) <- sys.offsets.(r)
  done;
  match Mat.solve_in_place n sc.aug sc.x with
  | () -> true
  | exception Mat.Singular -> false

(* The tally of [len] consecutive group subsets from the one in
   [sc.idx].  A group subset that passes the skip rules is one class:
   its representative rows are factored once, and each of its [2^pairs]
   facet choices is a right-hand side, a partner's offset negated
   because its row is the representative's negation.  A choice is
   dropped as soon as back substitution computes a coordinate outside
   [sys.lo]/[sys.hi] by more than [eps].  A surviving choice that takes
   a partner and whose solution has a zero or non-finite coordinate is
   solved again directly.  Only a feasible solution is copied out. *)
let enumerate_classes sys eps sc ~len =
  let n = sys.n in
  let found = ref [] and covered = ref 0 and factored = ref 0 in
  let solved = ref 0 and rejected = ref 0 and resolved = ref 0 in
  let remaining = ref len and more = ref (len > 0) in
  while !more do
    if not (sys.skip && provably_singular sys sc) then begin
      let pairs = ref 0 in
      for i = 0 to n - 1 do
        let g = sc.idx.(i) in
        let r = sys.first.(g) in
        for j = 0 to n - 1 do
          sc.lu.((i * n) + j) <- sys.normals.((r * n) + j)
        done;
        sc.rhs.(i) <- sys.offsets.(r);
        if sys.partner.(g) >= 0 then begin
          sc.pairs.(!pairs) <- i;
          sc.alt.(!pairs) <- -.sys.offsets.(sys.partner.(g));
          incr pairs
        end
      done;
      let pairs = !pairs in
      covered := !covered + (1 lsl pairs);
      incr factored;
      match Mat.factor n sc.lu sc.piv with
      | exception Mat.Singular -> ()
      | _ ->
          for mask = 0 to (1 lsl pairs) - 1 do
            for i = 0 to n - 1 do
              sc.x.(i) <- sc.rhs.(i)
            done;
            for b = 0 to pairs - 1 do
              if mask land (1 lsl b) <> 0 then sc.x.(sc.pairs.(b)) <- sc.alt.(b)
            done;
            incr solved;
            if not (Mat.solve_factored n sc.lu sc.piv ~lo:sys.lo ~hi:sys.hi ~eps sc.x)
            then incr rejected
            else begin
              let solved_exactly =
                mask = 0 || replay_exact sc.x
                || begin
                     incr resolved;
                     resolve sys sc ~mask
                   end
              in
              if solved_exactly && feasible sys eps sc.x then
                (* qsens-lint: disable=K003 — one copy per surviving vertex, not per subset *)
                found := (rank sys sc ~mask, Array.copy sc.x) :: !found
            end
          done
    end;
    decr remaining;
    more := !remaining > 0 && advance_subset sys.groups n sc.idx
  done;
  (* qsens-hot: end *)
  {
    found = !found;
    covered = !covered;
    factored = !factored;
    solved = !solved;
    rejected = !rejected;
    resolved = !resolved;
  }

(* [Vec.norm_inf (Vec.sub x y) <= eps] without the intermediate vector:
   false when any difference is NaN (the fold's [Float.max] propagates
   it), otherwise the largest absolute difference, floored at 0, against
   [eps]. *)
let within eps x y =
  let m = ref 0. and nan = ref false in
  for d = 0 to Array.length x - 1 do
    let a = Float.abs (x.(d) -. y.(d)) in
    if Float.is_nan a then nan := true else if a > !m then m := a
  done;
  (not !nan) && !m <= eps

(* Greedy dedup in candidate order.  A candidate is dropped when some
   kept vertex lies within [eps] of it ([within]) and in one of the 3^n
   grid cells around its own: cells quantise each coordinate to
   [floor (v / eps)], and a neighbour differs by at most one per
   coordinate.  Two points within [eps] nearly always pass the cell
   test; it is kept so the decision is exactly the one a grid hash
   probing those 3^n cells makes.  A scan over the kept vertices with
   their cells: regions keep at most a few hundred, fewer than the 729
   cells such a grid probes per candidate at n = 6, and only a kept
   vertex allocates. *)
let dedup ~eps ~n candidates =
  let key = Array.make n 0 in
  let neighbour cells =
    let ok = ref true and d = ref 0 in
    while !ok && !d < n do
      let c = cells.(!d) and b = key.(!d) in
      ok := c = b - 1 || c = b || c = b + 1;
      incr d
    done;
    !ok
  in
  let rec seen x = function
    | [] -> false
    | (cells, y) :: rest -> (neighbour cells && within eps x y) || seen x rest
  in
  let kept = ref [] in
  List.iter
    (fun x ->
      for d = 0 to n - 1 do
        key.(d) <- int_of_float (Float.floor (x.(d) /. eps))
      done;
      if not (seen x !kept) then kept := (Array.copy key, x) :: !kept)
    candidates;
  List.rev_map snd !kept

(* ------------------------------------------------------------------ *)
(* Branch-and-bound search over box sign patterns (DESIGN.md sections 12
   and 20).

   A box vertex is a bit pattern: coordinate [i] sits at its high value
   when bit [i] is set.  Leaf [k] of a spec has the exhaustive sweep's
   ratio [(delta * an + bn * inv) / (delta * ad + bd * inv)], [an]/[bn]
   the ascending sums of [wn] over the set/cleared bits of [k] and
   [ad]/[bd] likewise over [wd], so the search returns exactly what a
   flat ascending scan of every leaf (strict improvement, NaN skipped)
   returns.  Coordinates are fixed from the highest index down with the
   cleared branch first, so leaves appear in ascending pattern order and
   specs in ascending index order: the scan's tie order.

   The prune test is the exact threshold bound.  For an incumbent
   [lambda >= 0], the completion of a subtree's free coordinates that
   maximizes [num - lambda * den] sets exactly the coordinates with
   [wn_i > lambda * wd_i] (Dinkelbach's condition), and no completion
   beats [lambda] iff that one does not.  Prefix sums [nlam.(d)] and
   [dlam.(d)] of its terms over the free coordinates [0 .. d] make the
   test one cross-multiplied comparison per node; they are rebuilt in
   O(dim) at each spec's start and whenever the incumbent improves.  A
   coordinate within a relative 1e-13 of the threshold takes the loose
   side ([delta * wn] over [wd / delta]) and the bound is inflated by
   [inflate], which makes the test sound under rounding wherever every
   product stays normal and finite; a spec whose weights leave that
   range at this delta is searched without pruning (section 20). *)

module Bnb = struct
  type spec = {
    dim : int;
    wn : float array;
    wd : float array;
    pinned : int;  (* bit i: both weights bitwise +0., never branched *)
    identical : bool;  (* weights bitwise equal: every leaf is pattern 0's *)
    sum_max : float;  (* the larger ascending weight sum; NaN if either is *)
    pos_min : float;  (* the smallest positive weight, +inf if none *)
  }

  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  (* One pass over the weights; allocates the record alone, since
     selection binds one spec per (candidate, plan). *)
  let make_spec ~wn ~wd =
    let dim = Array.length wn in
    if dim > Sys.int_size - 2 then
      invalid_arg
        (Printf.sprintf "Vertex_enum.Bnb: dimension %d out of range" dim);
    if Array.length wd <> dim then
      invalid_arg "Vertex_enum.Bnb.make_spec: weight lengths differ";
    let pinned = ref 0 and identical = ref true in
    let sn = ref 0. and sd = ref 0. and pos_min = ref infinity in
    for i = 0 to dim - 1 do
      let x = wn.(i) and y = wd.(i) in
      if same_bits x 0. && same_bits y 0. then pinned := !pinned lor (1 lsl i);
      if not (same_bits x y) then identical := false;
      sn := !sn +. x;
      sd := !sd +. y;
      if x > 0. && x < !pos_min then pos_min := x;
      if y > 0. && y < !pos_min then pos_min := y
    done;
    {
      dim;
      wn;
      wd;
      pinned = !pinned;
      identical = !identical;
      sum_max = Float.max !sn !sd;
      pos_min = !pos_min;
    }

  type stats = { mutable nodes : int; mutable leaves : int }

  let fresh_stats () = { nodes = 0; leaves = 0 }

  (* The DFS stack: columns of one preallocated node pool, plus the
     threshold tables and the incumbent they were built for.  Depth
     strictly decreases along a path and each node pushes at most one
     pending sibling per level, so [dim + 2] slots always suffice. *)
  type stack = {
    mutable depth : int array;
    mutable pattern : int array;
    mutable pnum : floatarray;
    mutable pden : floatarray;
    mutable nlam : floatarray;
    mutable dlam : floatarray;
    lambda : floatarray;  (* one slot: keeps the incumbent unboxed *)
  }

  let make_stack () =
    let empty () = Float.Array.create 0 in
    {
      depth = [||];
      pattern = [||];
      pnum = empty ();
      pden = empty ();
      nlam = empty ();
      dlam = empty ();
      lambda = Float.Array.make 1 neg_infinity;
    }

  let reserve st dim =
    let cap = dim + 2 in
    if Array.length st.depth < cap then begin
      st.depth <- Array.make cap 0;
      st.pattern <- Array.make cap 0;
      st.pnum <- Float.Array.make cap 0.;
      st.pden <- Float.Array.make cap 0.;
      st.nlam <- Float.Array.make cap 0.;
      st.dlam <- Float.Array.make cap 0.
    end

  (* Covers the rounding gap between the bound, summed term by term,
     and a leaf computed by the exact kernel: each is within
     O(dim * eps) of its real value, orders of magnitude below 1e-12. *)
  let inflate = 1. +. 1e-12

  (* Relative width of the threshold's near-tie window: above every
     leaf's rounding error at 61 dimensions (~1.5e-14), below the
     inflation's margin (section 20). *)
  let tie_hi = 1. +. 1e-13
  let tie_lo = 1. -. 1e-13

  (* qsens-hot: begin *)

  (* The threshold tables for the incumbent in [st.lambda]: coordinate
     [i] takes its set terms when [wn_i] clears [lambda * wd_i] by the
     near-tie margin, its cleared terms when it falls short by the
     margin, and the loose pair otherwise — including every NaN
     comparison, so a table entry never undershoots.  Takes [delta]
     alone (boxed already) and recomputes [inv]: a computed float
     argument would be boxed at every call. *)
  let fill_lambda st s ~delta =
    let inv = 1. /. delta in
    let lambda = Float.Array.unsafe_get st.lambda 0 in
    let nlam = st.nlam and dlam = st.dlam in
    let n = ref 0. and d = ref 0. in
    for i = 0 to s.dim - 1 do
      let wni = Array.unsafe_get s.wn i
      and wdi = Array.unsafe_get s.wd i in
      let t = lambda *. wdi in
      if wni > t *. tie_hi then begin
        n := !n +. (delta *. wni);
        d := !d +. (delta *. wdi)
      end
      else if wni < t *. tie_lo then begin
        n := !n +. (wni *. inv);
        d := !d +. (wdi *. inv)
      end
      else begin
        n := !n +. (delta *. wni);
        d := !d +. (wdi *. inv)
      end;
      Float.Array.unsafe_set nlam i !n;
      Float.Array.unsafe_set dlam i !d
    done

  let search ~stats ?budget ~stack ~delta specs =
    if not (delta >= 1.) then
      invalid_arg "Vertex_enum.Bnb.search: delta must be >= 1";
    for si = 0 to Array.length specs - 1 do
      reserve stack specs.(si).dim
    done;
    let inv = 1. /. delta in
    let collapsed = Float.equal delta 1. in
    let best = ref neg_infinity in
    let best_pat = ref (-1) and best_spec = ref (-1) in
    for si = 0 to Array.length specs - 1 do
      let s = specs.(si) in
      let dim = s.dim and wn = s.wn and wd = s.wd in
      (* Every product in the bound and the leaves stays normal and
         finite while the weight sums times delta are at most 2^1020
         and the smallest positive weight over delta at least 2^-1020:
         the range where section 20's rounding argument holds.  NaN
         weights fail the first test. *)
      let prunes =
        s.sum_max *. delta <= 0x1p1020 && s.pos_min *. inv >= 0x1p-1020
      in
      if (s.identical && prunes) || dim = 0 || collapsed then begin
        (* One leaf: the box is its center (delta = 1), or the weights
           are bitwise equal and in range.  Then every leaf divides a
           float by itself, and no product underflows, so the leaves
           are all 1 or (all weights zero) all NaN.  Out of range one
           pattern's products can underflow to 0/0 while another's do
           not, so such a spec is scanned.  Pattern 0 is the
           tie-winner. *)
        Budget.spend_opt budget ~who:"Vertex_enum.Bnb" 1;
        stats.nodes <- stats.nodes + 1;
        stats.leaves <- stats.leaves + 1;
        let bn = ref 0. and bd = ref 0. in
        for i = 0 to dim - 1 do
          bn := !bn +. Array.unsafe_get wn i;
          bd := !bd +. Array.unsafe_get wd i
        done;
        let v =
          ((delta *. 0.) +. (!bn *. inv)) /. ((delta *. 0.) +. (!bd *. inv))
        in
        if v > !best then begin
          best := v;
          best_pat := 0;
          best_spec := si
        end
      end
      else begin
        let sd = stack.depth
        and sk = stack.pattern
        and sn = stack.pnum
        and sp = stack.pden
        and nlam = stack.nlam
        and dlam = stack.dlam
        and pinned = s.pinned in
        (* Out of range, [lambda] stays -inf and no test prunes: [-inf]
           times a nonnegative or NaN sum is never above a bound. *)
        let lambda = ref (if prunes then !best else neg_infinity) in
        Float.Array.unsafe_set stack.lambda 0 !lambda;
        fill_lambda stack s ~delta;
        (* The walk keeps the current node in locals and spills only the
           pending set-bit sibling: frames pop in preorder, so leaves
           come in ascending pattern order. *)
        let depth = ref (dim - 1) in
        let pattern = ref 0 in
        let pnum = ref 0. in
        let pden = ref 0. in
        let top = ref 0 in
        let walking = ref true in
        while !walking do
          (match budget with
          | None -> ()
          | Some b -> Budget.spend b ~who:"Vertex_enum.Bnb" 1);
          stats.nodes <- stats.nodes + 1;
          let d = !depth in
          let descend =
            if d < 0 then begin
              stats.leaves <- stats.leaves + 1;
              let k = !pattern in
              let an = ref 0. and bn = ref 0. in
              let ad = ref 0. and bd = ref 0. in
              for i = 0 to dim - 1 do
                if k land (1 lsl i) <> 0 then begin
                  an := !an +. Array.unsafe_get wn i;
                  ad := !ad +. Array.unsafe_get wd i
                end
                else begin
                  bn := !bn +. Array.unsafe_get wn i;
                  bd := !bd +. Array.unsafe_get wd i
                end
              done;
              let v =
                ((delta *. !an) +. (!bn *. inv))
                /. ((delta *. !ad) +. (!bd *. inv))
              in
              if v > !best then begin
                best := v;
                best_pat := k;
                best_spec := si;
                if prunes then begin
                  lambda := v;
                  Float.Array.unsafe_set stack.lambda 0 v;
                  fill_lambda stack s ~delta
                end
              end;
              false
            end
            else
              not
                ((!pnum +. Float.Array.unsafe_get nlam d) *. inflate
                <= !lambda *. (!pden +. Float.Array.unsafe_get dlam d))
          in
          if descend then begin
            let w = Array.unsafe_get wn d
            and x = Array.unsafe_get wd d in
            if pinned land (1 lsl d) = 0 then begin
              let t = !top in
              Array.unsafe_set sd t (d - 1);
              Array.unsafe_set sk t (!pattern lor (1 lsl d));
              Float.Array.unsafe_set sn t (!pnum +. (delta *. w));
              Float.Array.unsafe_set sp t (!pden +. (delta *. x));
              top := t + 1
            end;
            pnum := !pnum +. (w *. inv);
            pden := !pden +. (x *. inv);
            depth := d - 1
          end
          else if !top > 0 then begin
            decr top;
            let t = !top in
            depth := Array.unsafe_get sd t;
            pattern := Array.unsafe_get sk t;
            pnum := Float.Array.unsafe_get sn t;
            pden := Float.Array.unsafe_get sp t
          end
          else walking := false
        done
      end
    done;
    (!best, !best_pat, !best_spec)

  (* qsens-hot: end *)
end

let vertices ?(eps = 1e-7) ?(max_subsets = 200_000) ?pool hs =
  match hs with
  | [] -> []
  | h0 :: _ ->
      let n = Halfspace.dim h0 in
      let arr = Array.of_list hs in
      let count = Array.length arr in
      let total = count_subsets count n in
      if total > max_subsets then raise Too_large;
      if total = 0 then []
      else begin
        let sys = system n arr in
        (* The walk is over n-subsets of groups: a subset that takes both
           rows of a pair is twin-singular and never visited. *)
        let classes = count_subsets sys.groups n in
        let none =
          { found = []; covered = 0; factored = 0; solved = 0; rejected = 0; resolved = 0 }
        in
        (* One scratch per task, each starting its own combination
           stream at its first rank. *)
        let range ~start ~len =
          if len = 0 then none
          else enumerate_classes sys eps (scratch sys ~start) ~len
        in
        let parts =
          match pool with
          | Some p when Pool.domains p > 1 && classes > 1 ->
              let chunks = Pool.auto_chunks ~domains:(Pool.domains p) ~n:classes in
              let parts = Array.make chunks none in
              Pool.run p
                (Array.init chunks (fun c ->
                     let lo, hi = Pool.chunk_bounds ~n:classes ~chunks c in
                     (* qsens-lint: disable=P001; qsens-check: disable=C001 — each task writes only its own chunk slot *)
                     fun () -> parts.(c) <- range ~start:lo ~len:(hi - lo)));
              Array.to_list parts
          | _ -> [ range ~start:0 ~len:classes ]
        in
        (* Facet choices interleave with other classes in rank order, so
           the feasible solutions are sorted by the rank of their row
           subset (each rank occurs once) into the lexicographic
           candidate stream of solving every subset; the greedy dedup
           then returns exactly that enumeration's result. *)
        let found =
          List.concat_map (fun t -> t.found) parts
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        let out = dedup ~eps ~n found in
        let sum g = List.fold_left (fun acc p -> acc + g p) 0 parts in
        Obs.add m_subsets total;
        Obs.add m_skipped (total - sum (fun t -> t.covered));
        Obs.add m_factored (sum (fun t -> t.factored));
        Obs.add m_solved (sum (fun t -> t.solved));
        Obs.add m_rejected (sum (fun t -> t.rejected));
        Obs.add m_resolved (sum (fun t -> t.resolved));
        Obs.add m_vertices (List.length out);
        out
      end
