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

let m_solved = Obs.counter ~help:"subsets solved" "vertex_enum.solved"
let m_vertices = Obs.counter ~help:"distinct vertices returned" "vertex_enum.vertices"

(* The hyperplanes of one call, flattened once: normals row-major, one
   row per half-space, beside their offsets.  [skip] is the overflow
   gate of the skip rules; [nonzero] and [twin] are their per-row
   tables, filled only when the gate holds. *)
type system = {
  n : int;
  count : int;
  normals : float array;
  offsets : float array;
  skip : bool;
  nonzero : int array;
      (** bit [j] set when the row's column [j] is not an exact zero *)
  twin : int array;
      (** lowest row equal or opposite to this one, or -1 if it has none *)
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
  if skip then begin
    for r = 0 to count - 1 do
      for j = 0 to n - 1 do
        if not (Float.equal normals.((r * n) + j) 0.) then
          nonzero.(r) <- nonzero.(r) lor (1 lsl j)
      done
    done;
    (* Rows [r] and [r'] equal ([sign] 1) or opposite ([sign] -1),
       entry by entry under [Float.equal]. *)
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
  { n; count; normals; offsets; skip; nonzero; twin }

(* Per-task scratch: the augmented buffer, the solution, the subset's
   row indices, and the twin-rule stamps (one tick per subset). *)
type scratch = {
  aug : float array;
  x : float array;
  idx : int array;
  stamp : int array;
  mutable tick : int;
}

let scratch sys ~start =
  {
    aug = Array.make (sys.n * (sys.n + 1)) 0.;
    x = Array.make sys.n 0.;
    idx = nth_subset sys.count sys.n start;
    stamp = Array.make sys.count 0;
    tick = 0;
  }

(* qsens-hot: begin *)

(* True when [Mat.solve_in_place] provably raises [Singular] on the
   subset in [sc.idx] (DESIGN.md section 18): some column is an exact
   zero in every chosen row, or two chosen rows are equal or opposite.
   Only called when [sys.skip] holds. *)
let provably_singular sys sc =
  let n = sys.n in
  let cols = ref 0 in
  for i = 0 to n - 1 do
    cols := !cols lor sys.nonzero.(sc.idx.(i))
  done;
  if !cols <> (1 lsl n) - 1 then true
  else begin
    sc.tick <- sc.tick + 1;
    let twins = ref false and i = ref 0 in
    while (not !twins) && !i < n do
      let c = sys.twin.(sc.idx.(!i)) in
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

(* The feasible solutions of [len] consecutive subsets from the one in
   [sc.idx], in rank order, with the numbers of skipped and solved
   subsets.  Each solved subset's rows are copied into the augmented
   buffer and reduced in place; only a survivor's solution is copied
   out. *)
let enumerate_range sys eps sc ~len =
  let n = sys.n and nc = sys.n + 1 in
  let found = ref [] and skipped = ref 0 and solved = ref 0 in
  let remaining = ref len and more = ref (len > 0) in
  while !more do
    if sys.skip && provably_singular sys sc then incr skipped
    else begin
      incr solved;
      for i = 0 to n - 1 do
        let r = sc.idx.(i) in
        for j = 0 to n - 1 do
          sc.aug.((i * nc) + j) <- sys.normals.((r * n) + j)
        done;
        sc.aug.((i * nc) + n) <- sys.offsets.(r)
      done;
      match Mat.solve_in_place n sc.aug sc.x with
      | () ->
          if feasible sys eps sc.x then
            (* qsens-lint: disable=K003 — one copy per surviving vertex, not per subset *)
            found := Array.copy sc.x :: !found
      | exception Mat.Singular -> ()
    end;
    decr remaining;
    more := !remaining > 0 && advance_subset sys.count n sc.idx
  done;
  (* qsens-hot: end *)
  (List.rev !found, !skipped, !solved)

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
let dedup ~eps ~n streams =
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
    (List.iter (fun x ->
         for d = 0 to n - 1 do
           key.(d) <- int_of_float (Float.floor (x.(d) /. eps))
         done;
         if not (seen x !kept) then kept := (Array.copy key, x) :: !kept))
    streams;
  List.rev_map snd !kept

(* ------------------------------------------------------------------ *)
(* Branch-and-bound search over box sign patterns (DESIGN.md sec. 12).

   A box vertex is a bit pattern: coordinate [i] sits at its high value
   when bit [i] is set.  The search maximizes a ratio [num(k) / den(k)]
   whose numerator and denominator are (near-)separable per coordinate:
   fixing coordinates from the highest index down, each subtree is
   bounded by [partial + suffix completion] on both sides of the ratio,
   and subtrees whose optimistic ratio cannot beat the incumbent are
   pruned.  The exact leaf value comes from a caller-supplied kernel, so
   the surviving argmax is bit-identical to exhaustive enumeration with
   the same kernel: leaves are visited in ascending pattern order with
   strict improvement, specs in ascending index order — the same
   tie-breaking as a flat scan — and the bound is inflated before the
   incumbent comparison so floating-point slack in the bound arithmetic
   can only keep subtrees, never drop a strictly-better leaf. *)

module Bnb = struct
  type spec = {
    dim : int;
    num_hi : float array;
    num_lo : float array;
    den_hi : float array;
    den_lo : float array;
    num_bound : float array;
    num_bound_eq : float array;
    den_bound : float array;
    pinned : bool array;
    identical : bool;
    leaf : int -> float;
  }

  type stats = { mutable nodes : int; mutable leaves : int }

  let fresh_stats () = { nodes = 0; leaves = 0 }

  (* Covers the floating-point gap between a bound computed by plain
     summation and a leaf computed by the caller's kernel: both agree
     with the exact value to O(dim * eps) relative — orders of magnitude
     below 1e-12 — so inflating the bound before comparing with the
     incumbent can only keep subtrees the exact bound would keep. *)
  let inflate = 1. +. 1e-12

  (* The complementary-pair bound [num_bound_eq] is only valid against
     incumbents above 1 (see the module interface); the margin dwarfs
     the evaluation noise of any leaf whose exact ratio is below 1. *)
  let eq_threshold = 1. +. 1e-9

  let check_spec s =
    if s.dim < 0 || s.dim > Sys.int_size - 2 then
      invalid_arg
        (Printf.sprintf "Vertex_enum.Bnb: dimension %d out of range" s.dim);
    List.iter
      (fun (name, len) ->
        if len <> s.dim then
          invalid_arg
            (Printf.sprintf
               "Vertex_enum.Bnb: %s has length %d, expected %d" name len
               s.dim))
      [
        ("num_hi", Array.length s.num_hi);
        ("num_lo", Array.length s.num_lo);
        ("den_hi", Array.length s.den_hi);
        ("den_lo", Array.length s.den_lo);
        ("num_bound", Array.length s.num_bound);
        ("num_bound_eq", Array.length s.num_bound_eq);
        ("den_bound", Array.length s.den_bound);
        ("pinned", Array.length s.pinned);
      ]

  (* Dinkelbach warm start.  The bound terms are coordinate-separable,
     so the pattern maximizing [num - lambda * den] is computed greedily
     per coordinate; iterating [lambda := leaf value] climbs to a (near)
     maximal leaf in a handful of rounds.  The result only seeds the
     incumbent — correctness never depends on how good it is. *)
  let greedy_pattern s lambda =
    let k = ref 0 in
    for i = 0 to s.dim - 1 do
      if
        s.num_hi.(i) -. (lambda *. s.den_hi.(i))
        > s.num_lo.(i) -. (lambda *. s.den_lo.(i))
      then k := !k lor (1 lsl i)
    done;
    !k

  let seed_value s =
    let best = ref neg_infinity in
    let lambda = ref (s.leaf 0) in
    if Float.is_finite !lambda && !lambda > 0. then best := !lambda
    else lambda := 1.;
    (try
       for _ = 1 to 8 do
         let k = greedy_pattern s !lambda in
         let v = s.leaf k in
         if Float.equal v infinity then begin
           best := Float.max !best Float.max_float;
           raise Exit
         end;
         if Float.is_finite v && v > !best then best := v;
         if Float.is_nan v || v <= !lambda then raise Exit;
         lambda := v
       done
     with Exit -> ());
    !best

  (* The shared incumbent seed: strictly below the best leaf value any
     spec's warm start reached, so the true argmax leaf — whose value is
     at least that — still strictly improves on it and is recorded with
     its pattern.  Value-only: no pattern is attached, preserving
     first-tie-wins exactly. *)
  let shared_seed specs =
    let v = Array.fold_left (fun acc s -> Float.max acc (seed_value s)) neg_infinity specs in
    if Float.is_finite v && v > 0. then
      Float.min (v *. (1. -. 1e-12)) (Float.pred v)
    else neg_infinity

  let eval_identical s ~si ~stats ~budget ~best ~best_pat ~best_spec =
    Budget.spend_opt budget ~who:"Vertex_enum.Bnb" 1;
    stats.nodes <- stats.nodes + 1;
    stats.leaves <- stats.leaves + 1;
    let v = s.leaf 0 in
    if v > !best then begin
      best := v;
      best_pat := 0;
      best_spec := si
    end

  (* Depth-first search below [depth0]: coordinates above it are fixed
     in [pattern0].  The cleared branch recurses first, so leaves appear
     in ascending pattern order. *)
  let descend s ~si ~stats ~budget ~best ~best_pat ~best_spec ~depth0 ~pattern0
      ~pnum0 ~pden0 =
    let rec node depth pattern pnum pden =
      (match budget with
      | None -> ()
      | Some b -> Budget.spend b ~who:"Vertex_enum.Bnb" 1);
      stats.nodes <- stats.nodes + 1;
      if depth < 0 then begin
        stats.leaves <- stats.leaves + 1;
        let v = s.leaf pattern in
        if v > !best then begin
          best := v;
          best_pat := pattern;
          best_spec := si
        end
      end
      else begin
        let nb =
          if !best > eq_threshold then s.num_bound_eq.(depth)
          else s.num_bound.(depth)
        in
        (* Cross-multiplied prune test: [(n /. d) *. inflate <= best] costs
           a division per node, and internal nodes outnumber leaves ~1000:1
           on deep searches.  With [d >= 0] the multiplied form decides the
           same real inequality within 2 ulps — absorbed by [inflate]'s
           1e-12 margin — and degenerates conservatively: [best = -inf] or
           [d = 0] make the comparison false, so the subtree is kept.  The
           node-pool engine uses the identical form, term for term. *)
        if (pnum +. nb) *. inflate <= !best *. (pden +. s.den_bound.(depth))
        then ()
        else if s.pinned.(depth) then
          node (depth - 1) pattern
            (pnum +. s.num_lo.(depth))
            (pden +. s.den_lo.(depth))
        else begin
          node (depth - 1) pattern
            (pnum +. s.num_lo.(depth))
            (pden +. s.den_lo.(depth));
          node (depth - 1)
            (pattern lor (1 lsl depth))
            (pnum +. s.num_hi.(depth))
            (pden +. s.den_hi.(depth))
        end
      end
    in
    node depth0 pattern0 pnum0 pden0

  let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

  (* Top-level branch prefixes sharded across a pool: enough tasks to
     feed every domain about four ways, never more than 2^10 per spec. *)
  let prefix_bits ~domains ~nspecs ~dim =
    if domains <= 1 || dim <= 1 then 0
    else
      let want = ceil_log2 (max 1 (((4 * domains) + nspecs - 1) / nspecs)) in
      min want (min (dim - 1) 10)

  let search_sequential ~stats ~seed ~budget specs =
    let best = ref seed and best_pat = ref (-1) and best_spec = ref (-1) in
    Array.iteri
      (fun si s ->
        if s.identical || s.dim = 0 then
          eval_identical s ~si ~stats ~budget ~best ~best_pat ~best_spec
        else
          descend s ~si ~stats ~budget ~best ~best_pat ~best_spec
            ~depth0:(s.dim - 1) ~pattern0:0 ~pnum0:0. ~pden0:0.)
      specs;
    (!best, !best_pat, !best_spec)

  let search_pooled p ~stats ~seed specs =
    let domains = Pool.domains p in
    let nspecs = Array.length specs in
    (* Tasks in (spec, prefix) lexicographic order; the reduction below
       folds them in that order with strict improvement, so the outcome
       — though not the node counts, which depend on how the incumbent
       travels — is identical to the sequential scan. *)
    let tasks = ref [] in
    for si = nspecs - 1 downto 0 do
      let s = specs.(si) in
      if s.identical || s.dim = 0 then tasks := (si, 0, 0) :: !tasks
      else begin
        let t = prefix_bits ~domains ~nspecs ~dim:s.dim in
        for prefix = (1 lsl t) - 1 downto 0 do
          tasks := (si, t, prefix) :: !tasks
        done
      end
    done;
    let tasks = Array.of_list !tasks in
    let nt = Array.length tasks in
    let results = Array.make nt (neg_infinity, -1, -1, 0, 0) in
    Pool.run p
      (Array.init nt (fun ti ->
           fun () ->
             let si, top, prefix = tasks.(ti) in
             let s = specs.(si) in
             let st = fresh_stats () in
             let best = ref seed
             and best_pat = ref (-1)
             and best_spec = ref (-1) in
             (* qsens-check: disable=C003 — budget is pinned to None in pooled tasks (spend_opt None never raises; budgeted searches run sequentially) *)
             (if s.identical || s.dim = 0 then begin
                eval_identical s ~si ~stats:st ~budget:None ~best ~best_pat
                  ~best_spec
              end
              else begin
                let base = s.dim - top in
                (* Partial sums of the prefix coordinates, accumulated
                   from the top coordinate down — the same order
                   [descend] adds them in, hence the same bits. *)
                let rec partial j pnum pden feasible =
                  if j < base then (pnum, pden, feasible)
                  else
                    let set = (prefix lsr (j - base)) land 1 = 1 in
                    partial (j - 1)
                      (pnum +. if set then s.num_hi.(j) else s.num_lo.(j))
                      (pden +. if set then s.den_hi.(j) else s.den_lo.(j))
                      (feasible && not (set && s.pinned.(j)))
                in
                let pnum, pden, feasible = partial (s.dim - 1) 0. 0. true in
                if feasible then
                  (* qsens-check: disable=C003 — budget is pinned to None in pooled tasks (spend_opt None never raises) *)
                  descend s ~si ~stats:st ~budget:None ~best ~best_pat
                    ~best_spec ~depth0:(base - 1) ~pattern0:(prefix lsl base)
                    ~pnum0:pnum ~pden0:pden
              end);
             (* qsens-lint: disable=P001; qsens-check: disable=C001 — each task writes only its own slot *)
             results.(ti) <- (!best, !best_pat, !best_spec, st.nodes, st.leaves)));
    let best = ref seed and best_pat = ref (-1) and best_spec = ref (-1) in
    Array.iter
      (fun (v, pat, sp, nd, lv) ->
        stats.nodes <- stats.nodes + nd;
        stats.leaves <- stats.leaves + lv;
        if pat >= 0 && v > !best then begin
          best := v;
          best_pat := pat;
          best_spec := sp
        end)
      results;
    (!best, !best_pat, !best_spec)

  let search ?pool ?stats ?budget specs =
    let stats = match stats with Some s -> s | None -> fresh_stats () in
    Array.iter check_spec specs;
    if Array.length specs = 0 then (neg_infinity, -1, -1)
    else begin
      let seed = shared_seed specs in
      (* A budgeted search runs sequentially even when a pool is at
         hand: node accounting is then exact and the trip point a pure
         function of (budget, specs), not of how the incumbent happened
         to travel between shards. *)
      match pool with
      | Some p when Pool.domains p > 1 && Option.is_none budget ->
          search_pooled p ~stats ~seed specs
      | _ -> search_sequential ~stats ~seed ~budget specs
    end

  (* ---------------------------------------------------------------- *)
  (* Node-pool engine: the same search as [search_sequential] — same
     visit order, same bound arithmetic, same budget spends, hence
     bit-identical results and trip points — run over unboxed state.
     The recursive [descend] boxes its two float arguments at every
     call and its leaf kernel returns a boxed float; at dim 24 that is
     hundreds of kilowords of minor-heap traffic per grid point.  Here
     the DFS runs on an explicit, preallocated stack of parallel
     int/floatarray columns (the "node pool"), the leaf kernel is
     inlined into the loop (no flambda: a cross-function float return
     would allocate), and the spec's term tables are caller-owned
     [floatarray]s refilled in place per delta — so descending the
     frontier allocates nothing per node. *)
  module Flat = struct
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
      wn : floatarray;  (* numerator leaf weights, ascending order *)
      wd : floatarray;  (* denominator leaf weights *)
      mutable identical : bool;
      mutable delta : float;
      mutable inv : float;
    }

    let make_spec ~dim =
      if dim < 0 || dim > Sys.int_size - 2 then
        invalid_arg
          (Printf.sprintf "Vertex_enum.Bnb.Flat: dimension %d out of range" dim);
      let fa () = Float.Array.make dim 0. in
      {
        dim;
        num_hi = fa ();
        num_lo = fa ();
        den_hi = fa ();
        den_lo = fa ();
        num_bound = fa ();
        num_bound_eq = fa ();
        den_bound = fa ();
        pinned = Array.make dim false;
        wn = fa ();
        wd = fa ();
        identical = false;
        delta = 1.;
        inv = 1.;
      }

    (* The DFS stack: columns of one preallocated node pool.  Depth
       strictly decreases along a path and each node pushes at most one
       pending sibling per level, so [dim + 2] slots always suffice. *)
    type stack = {
      mutable depth : int array;
      mutable pattern : int array;
      mutable pnum : floatarray;
      mutable pden : floatarray;
    }

    let make_stack () =
      {
        depth = [||];
        pattern = [||];
        pnum = Float.Array.create 0;
        pden = Float.Array.create 0;
      }

    let reserve st dim =
      let cap = dim + 2 in
      if Array.length st.depth < cap then begin
        st.depth <- Array.make cap 0;
        st.pattern <- Array.make cap 0;
        st.pnum <- Float.Array.make cap 0.;
        st.pden <- Float.Array.make cap 0.
      end

    (* Same Dinkelbach warm start as the boxed engine, term for term:
       identical float operations on identical values, so the shared
       seed — and with it every budget trip point — is bit-identical. *)
    let leaf_value s k =
      let an = ref 0. and bn = ref 0. and ad = ref 0. and bd = ref 0. in
      for i = 0 to s.dim - 1 do
        if k land (1 lsl i) <> 0 then begin
          an := !an +. Float.Array.unsafe_get s.wn i;
          ad := !ad +. Float.Array.unsafe_get s.wd i
        end
        else begin
          bn := !bn +. Float.Array.unsafe_get s.wn i;
          bd := !bd +. Float.Array.unsafe_get s.wd i
        end
      done;
      ((s.delta *. !an) +. (!bn *. s.inv))
      /. ((s.delta *. !ad) +. (!bd *. s.inv))

    let greedy_pattern s lambda =
      let k = ref 0 in
      for i = 0 to s.dim - 1 do
        if
          Float.Array.get s.num_hi i -. (lambda *. Float.Array.get s.den_hi i)
          > Float.Array.get s.num_lo i -. (lambda *. Float.Array.get s.den_lo i)
        then k := !k lor (1 lsl i)
      done;
      !k

    let seed_value s =
      let best = ref neg_infinity in
      let lambda = ref (leaf_value s 0) in
      if Float.is_finite !lambda && !lambda > 0. then best := !lambda
      else lambda := 1.;
      (try
         for _ = 1 to 8 do
           let k = greedy_pattern s !lambda in
           let v = leaf_value s k in
           if Float.equal v infinity then begin
             best := Float.max !best Float.max_float;
             raise Exit
           end;
           if Float.is_finite v && v > !best then best := v;
           if Float.is_nan v || v <= !lambda then raise Exit;
           lambda := v
         done
       with Exit -> ());
      !best

    let shared_seed specs =
      let v =
        Array.fold_left
          (fun acc s -> Float.max acc (seed_value s))
          neg_infinity specs
      in
      if Float.is_finite v && v > 0. then
        Float.min (v *. (1. -. 1e-12)) (Float.pred v)
      else neg_infinity

    let search ?stats ?budget ~stack specs =
      let stats = match stats with Some s -> s | None -> fresh_stats () in
      if Array.length specs = 0 then (neg_infinity, -1, -1)
      else begin
        Array.iter (fun s -> reserve stack s.dim) specs;
        let seed = shared_seed specs in
        let best = ref seed and best_pat = ref (-1) and best_spec = ref (-1) in
        (* qsens-hot: begin *)
        for si = 0 to Array.length specs - 1 do
          let s = specs.(si) in
          let dim = s.dim
          and delta = s.delta
          and inv = s.inv
          and wn = s.wn
          and wd = s.wd in
          if s.identical || dim = 0 then begin
            Budget.spend_opt budget ~who:"Vertex_enum.Bnb" 1;
            stats.nodes <- stats.nodes + 1;
            stats.leaves <- stats.leaves + 1;
            (* Pattern-0 leaf, inlined (see module comment). *)
            let bn = ref 0. and bd = ref 0. in
            for i = 0 to dim - 1 do
              bn := !bn +. Float.Array.unsafe_get wn i;
              bd := !bd +. Float.Array.unsafe_get wd i
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
            and sp = stack.pden in
            let num_hi = s.num_hi
            and num_lo = s.num_lo
            and den_hi = s.den_hi
            and den_lo = s.den_lo
            and num_bound = s.num_bound
            and num_bound_eq = s.num_bound_eq
            and den_bound = s.den_bound
            and pinned = s.pinned in
            (* The numerator-bound table depends only on whether the
               incumbent exceeds [eq_threshold], and the incumbent only
               grows — the predicate flips at most once per search, so
               re-select the table when a leaf improves [best] instead
               of re-testing at every node.  Per-node values are the
               ones the boxed engine computes. *)
            let nb_tab = ref (if !best > eq_threshold then num_bound_eq else num_bound) in
            (* The recursion walks its lo child immediately (pop follows
               push), so keep the current node in locals and only spill
               the pending hi sibling to the pool: one frame write per
               binary branch instead of two writes and a reload.  Frames
               still pop in the recursion's preorder, so node order —
               and with it stats and the budget charge sequence — is
               unchanged. *)
            let depth = ref (dim - 1) in
            let pattern = ref 0 in
            let pnum = ref 0. in
            let pden = ref 0. in
            let top = ref 0 in
            let walking = ref true in
            while !walking do
              (* Inlined [Budget.spend_opt]: the cross-module call is pure
                 overhead on the unbudgeted path, which pays it once per
                 node.  The charge sequence under a budget is unchanged. *)
              (match budget with
              | None -> ()
              | Some b -> Budget.spend b ~who:"Vertex_enum.Bnb" 1);
              stats.nodes <- stats.nodes + 1;
              let d = !depth in
              if d < 0 then begin
                stats.leaves <- stats.leaves + 1;
                let k = !pattern in
                let an = ref 0. and bn = ref 0. in
                let ad = ref 0. and bd = ref 0. in
                for i = 0 to dim - 1 do
                  if k land (1 lsl i) <> 0 then begin
                    an := !an +. Float.Array.unsafe_get wn i;
                    ad := !ad +. Float.Array.unsafe_get wd i
                  end
                  else begin
                    bn := !bn +. Float.Array.unsafe_get wn i;
                    bd := !bd +. Float.Array.unsafe_get wd i
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
                  if v > eq_threshold then nb_tab := num_bound_eq
                end;
                if !top > 0 then begin
                  decr top;
                  let t = !top in
                  depth := Array.unsafe_get sd t;
                  pattern := Array.unsafe_get sk t;
                  pnum := Float.Array.unsafe_get sn t;
                  pden := Float.Array.unsafe_get sp t
                end
                else walking := false
              end
              else begin
                let nb = Float.Array.unsafe_get !nb_tab d in
                (* Same cross-multiplied prune test as the boxed engine,
                   term for term (see [descend]). *)
                if
                  (!pnum +. nb) *. inflate
                  <= !best *. (!pden +. Float.Array.unsafe_get den_bound d)
                then
                  if !top > 0 then begin
                    decr top;
                    let t = !top in
                    depth := Array.unsafe_get sd t;
                    pattern := Array.unsafe_get sk t;
                    pnum := Float.Array.unsafe_get sn t;
                    pden := Float.Array.unsafe_get sp t
                  end
                  else walking := false
                else begin
                  if not (Array.unsafe_get pinned d) then begin
                    let t = !top in
                    Array.unsafe_set sd t (d - 1);
                    Array.unsafe_set sk t (!pattern lor (1 lsl d));
                    Float.Array.unsafe_set sn t
                      (!pnum +. Float.Array.unsafe_get num_hi d);
                    Float.Array.unsafe_set sp t
                      (!pden +. Float.Array.unsafe_get den_hi d);
                    top := t + 1
                  end;
                  pnum := !pnum +. Float.Array.unsafe_get num_lo d;
                  pden := !pden +. Float.Array.unsafe_get den_lo d;
                  depth := d - 1
                end
              end
            done
          end
        done;
        (* qsens-hot: end *)
        (!best, !best_pat, !best_spec)
      end
  end
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
        (* One scratch per task, each starting its own combination
           stream at its first rank. *)
        let range ~start ~len =
          if len = 0 then ([], 0, 0)
          else enumerate_range sys eps (scratch sys ~start) ~len
        in
        let parts =
          match pool with
          | Some p when Pool.domains p > 1 && total > 1 ->
              let chunks = Pool.auto_chunks ~domains:(Pool.domains p) ~n:total in
              let parts = Array.make chunks ([], 0, 0) in
              Pool.run p
                (Array.init chunks (fun c ->
                     let lo, hi = Pool.chunk_bounds ~n:total ~chunks c in
                     (* qsens-lint: disable=P001; qsens-check: disable=C001 — each task writes only its own chunk slot *)
                     fun () -> parts.(c) <- range ~start:lo ~len:(hi - lo)));
              Array.to_list parts
          | _ -> [ range ~start:0 ~len:total ]
        in
        (* Merge in chunk order: the concatenation of chunk streams is
           the full lexicographic candidate stream, so the greedy dedup
           returns exactly the sequential result. *)
        let out = dedup ~eps ~n (List.map (fun (f, _, _) -> f) parts) in
        let sum g = List.fold_left (fun acc p -> acc + g p) 0 parts in
        Obs.add m_subsets total;
        Obs.add m_skipped (sum (fun (_, k, _) -> k));
        Obs.add m_solved (sum (fun (_, _, k) -> k));
        Obs.add m_vertices (List.length out);
        out
      end
