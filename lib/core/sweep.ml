open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs
module Vertex_enum = Qsens_geom.Vertex_enum
module Budget = Qsens_budget.Budget

(* Same name as in Framework: registration is idempotent, both sites
   feed one counter. *)
let m_degenerate_ratios =
  Obs.counter
    ~help:"degenerate (NaN) plan ratios skipped in worst-case argmax"
    "wc.degenerate_ratios"

let m_plans_pruned =
  Obs.counter ~help:"plans removed by dominance pruning before table build"
    "sweep.plans_pruned"

let m_evals =
  Obs.counter ~help:"separable per-delta sweep evaluations" "sweep.evals"

let m_bnb_evals =
  Obs.counter ~help:"branch-and-bound worst-case evaluations" "bnb.evals"

let m_bnb_nodes =
  Obs.counter ~help:"branch-and-bound search nodes visited" "bnb.nodes"

let m_bnb_leaves =
  Obs.counter ~help:"branch-and-bound leaf ratios evaluated" "bnb.leaves"

let max_dim = Limits.exhaustive_max_dim
let supported ~dim = dim >= 1 && dim <= max_dim

(* Shared by the exhaustive and branch-and-bound builders: everything but
   the dimension gate, which differs between them. *)
let validate_inputs ~who ~plans ~initial ~center =
  let m = Vec.dim center in
  if Vec.dim initial <> m then invalid_arg (who ^ ": dimension mismatch");
  Array.iter
    (fun p -> if Vec.dim p <> m then invalid_arg (who ^ ": dimension mismatch"))
    plans;
  Array.iter
    (fun x -> if x <= 0. then invalid_arg (who ^ ": center must be > 0"))
    center;
  let check_nonneg v =
    Array.iter
      (fun x -> if x < 0. then invalid_arg (who ^ ": negative component"))
      v
  in
  check_nonneg initial;
  Array.iter check_nonneg plans

(* Dominance pruning (Section 4.4): a plan with a componentwise-cheaper
   rival can never win the argmax — monotone rounding keeps its computed
   denominator at least the rival's at every vertex, so its ratio never
   strictly exceeds the rival's.  Only lower-index dominators prune
   (preserving lowest-index tie-breaking), and only dominators whose
   computed total is positive (an all-underflow dominator could turn a
   finite ratio into a skipped NaN). *)
let dominance_kept ~prune ~plans ~totals =
  let np = Array.length plans in
  if not prune then Array.init np Fun.id
  else begin
    let keep = Array.make np true in
    for j = 1 to np - 1 do
      let i = ref 0 in
      while keep.(j) && !i < j do
        if totals.(!i) > 0. && Vec.dominates plans.(!i) plans.(j) then
          keep.(j) <- false;
        incr i
      done
    done;
    let n = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep in
    let kept = Array.make n 0 in
    let next = ref 0 in
    Array.iteri
      (fun j k ->
        if k then begin
          kept.(!next) <- j;
          incr next
        end)
      keep;
    kept
  end

module FA = Float.Array

type t = {
  center : Vec.t;
  dim : int;
  nv : int;
  mask : int;
  kept : int array;
  sums : floatarray;  (* nkept x 2^dim, flat and unboxed *)
  num_sums : floatarray;
  degenerate : bool array;
  initial_zero : bool;
}

let dim t = t.dim
let num_patterns t = t.nv
let kept t = Array.copy t.kept
let center t = Vec.copy t.center

let bytes t =
  (* Unboxed tables at 8 bytes per entry, boxed metadata at one word per
     element, plus fixed record/header overhead — an honest resident
     size computed from dimensions alone, with no marshalling. *)
  8
  * (FA.length t.sums + FA.length t.num_sums + Array.length t.center
    + Array.length t.kept + Array.length t.degenerate)
  + 96

(* Subset sums by the highest-bit recurrence: the entry for a pattern
   whose top bit is [i] extends the entry with that bit cleared by
   [w.(i)], so every subset accumulates its terms in ascending index
   order — the same association as an ascending fold, which keeps the
   full-pattern entry bit-identical to the [s_total] prepass sum.
   Bounds: callers pass [pos] with [pos + 2^m <= length out], so the
   fill runs on unsafe accessors. *)
let subset_sums w m out pos =
  FA.set out pos 0.;
  for i = 0 to m - 1 do
    let bit = 1 lsl i in
    let wi = Array.unsafe_get w i in
    for k = bit to (2 * bit) - 1 do
      FA.unsafe_set out (pos + k) (FA.unsafe_get out (pos + k - bit) +. wi)
    done
  done

let ascending_sum w =
  let acc = ref 0. in
  for i = 0 to Array.length w - 1 do
    acc := !acc +. w.(i)
  done;
  !acc

(* Two-rounding product-sum, NOT [Float.fma]: ocamlopt (no flambda)
   compiles [Float.fma] to a [caml_fma] C call whose call overhead
   dominates the grid scan (measured ~35% of the inner loop).  Every
   engine — per-point, grid, both branch-and-bound kernels — computes
   vertex costs through this exact expression, so cross-engine
   bit-identity is preserved by construction. *)
let vertex_value ~delta ~inv a b = (delta *. a) +. (b *. inv)

let build ?pool ?(prune = true) ~plans ~initial ~center () =
  let np = Array.length plans in
  if np = 0 then invalid_arg "Sweep.build: no plans";
  let m = Vec.dim center in
  if m < 1 then
    invalid_arg (Printf.sprintf "Sweep.build: dimension %d outside 1..%d" m max_dim);
  if not (supported ~dim:m) then
    invalid_arg (Limits.exhaustive_gate_message ~who:"Sweep.build" ~dim:m);
  validate_inputs ~who:"Sweep.build" ~plans ~initial ~center;
  Obs.with_span "sweep.build" @@ fun () ->
  let nv = 1 lsl m in
  let mask = nv - 1 in
  let weights = Array.map (fun p -> Vec.map2 ( *. ) p center) plans in
  let totals = Array.map ascending_sum weights in
  let degenerate = Array.map (fun s -> Float.equal s 0.) totals in
  let num_weights = Vec.map2 ( *. ) initial center in
  let initial_zero = Float.equal (ascending_sum num_weights) 0. in
  let kept = dominance_kept ~prune ~plans ~totals in
  Obs.add m_plans_pruned (np - Array.length kept);
  let nkept = Array.length kept in
  let sums = FA.make (nkept * nv) 0. in
  let fill lo hi =
    for kp = lo to hi - 1 do
      (* qsens-check: disable=C001 — each chunk writes the disjoint [kp*nv, (kp+1)*nv) block of [sums] *)
      subset_sums weights.(kept.(kp)) m sums (kp * nv)
    done
  in
  (match pool with
  | Some p when Pool.domains p > 1 && nkept > 1 ->
      Pool.parallel_for_chunked p ~n:nkept fill
  | _ -> fill 0 nkept);
  let num_sums = FA.make nv 0. in
  subset_sums num_weights m num_sums 0;
  {
    center = Vec.copy center;
    dim = m;
    nv;
    mask;
    kept;
    sums;
    num_sums;
    degenerate;
    initial_zero;
  }

let eval ?budget t ~delta =
  if delta < 1. then invalid_arg "Sweep.eval: delta must be >= 1";
  Obs.add m_evals 1;
  let inv = 1. /. delta in
  let nv = t.nv and mask = t.mask in
  let sums = t.sums and num_sums = t.num_sums in
  let best = ref neg_infinity and best_pat = ref (-1) and degen = ref 0 in
  (* delta = 1 collapses the box to its center: every pattern names the
     same vertex, differing only in summation order.  Evaluate pattern 0
     alone — the ascending scan's tie-winner up to that ulp wobble — so
     the branch-and-bound path, which pins every branch at a collapsed
     box, stays bit-identical to this reference. *)
  let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
  for kp = 0 to Array.length t.kept - 1 do
    let p = t.kept.(kp) in
    if t.degenerate.(p) && t.initial_zero then incr degen
    else begin
      (* Cooperative checkpoint: one unit per vertex about to be
         scanned, charged a plan row at a time.  Budget checks never
         touch the float pipeline, so a surviving eval is bit-identical
         to an unbudgeted one. *)
      Budget.spend_opt budget ~who:"Sweep.eval" (pattern_hi + 1);
      let off = kp * nv in
      for k = 0 to pattern_hi do
        let den =
          vertex_value ~delta ~inv
            (FA.unsafe_get sums (off + k))
            (FA.unsafe_get sums (off + (mask lxor k)))
        in
        let num =
          vertex_value ~delta ~inv (FA.unsafe_get num_sums k)
            (FA.unsafe_get num_sums (mask lxor k))
        in
        let r = num /. den in
        (* Strict improvement: lowest (plan, pattern) wins ties and NaN
           ratios fall through, exactly like the per-plan argmax. *)
        if r > !best then begin
          best := r;
          best_pat := k
        end
      done
    end
  done;
  Obs.add m_degenerate_ratios !degen;
  if !best_pat >= 0 then (!best, !best_pat)
  else ((if !degen > 0 then nan else !best), -1)

(* ------------------------------------------------------------------ *)
(* Incremental grid evaluation.  Two observations over [eval]:

   - The numerator vertex values [fma delta num_sums(k)
     (num_sums(~k) * inv)] do not depend on the plan, yet the per-point
     scan recomputes them for every kept plan.  Hoisting them into a
     per-delta buffer — carried in the caller's scratch across the whole
     grid — halves the FMA count.  The hoisted values are produced by
     the exact expression [eval] evaluates inline, so every ratio (and
     hence the argmax) is bit-identical.

   - All storage is unboxed and every index is in range by construction
     ([k <= mask], [off + mask < length sums]), so the scan runs on
     unsafe accessors and writes results into caller-owned buffers:
     steady state allocates zero minor-heap words per grid point
     (enforced by the bench kernel gate in CI). *)

module Scratch = struct
  type t = {
    mutable num : floatarray;
        (* eval_grid: hoisted numerators; regret_grid: one numerator
           subset-sum row per candidate *)
    mutable den_min : floatarray;  (* regret_grid: per-pattern minimum *)
    mutable den_max : floatarray;  (* regret_grid: per-pattern maximum *)
    mutable weights : float array;  (* regret_grid: one candidate's weights *)
  }

  let create () =
    {
      num = FA.create 0;
      den_min = FA.create 0;
      den_max = FA.create 0;
      weights = [||];
    }

  let ensure t n =
    if FA.length t.num < n then t.num <- FA.create n;
    t.num

  let ensure_regret t ~dim ~nv ~rows =
    ignore (ensure t (rows * nv) : floatarray);
    if FA.length t.den_min < nv then begin
      t.den_min <- FA.create nv;
      t.den_max <- FA.create nv
    end;
    if Array.length t.weights < dim then t.weights <- Array.make dim 0.
end

(* Division filter: the scans below are division-throughput-bound, yet
   almost no (plan, pattern) pair improves on the incumbent.  With num,
   den >= 0, [fl (num /. den) > best] implies [num > best * den] over
   the reals, and [thr = fl (best * (1 - 2^-52))] undershoots [best] by
   more than one rounding, so [fl (thr *. den) < best * den < num]
   whenever that product rounds with its relative error bound.  Hence
   testing [not (num <= thr *. den)] (a multiply) passes every pair
   whose exact ratio beats the incumbent; only those few pay the
   division, and the update itself still compares the bit-exact
   [num /. den], preserving [eval]'s value, argmax, and tie order.  The
   negated [<=] keeps NaN products conservative: [thr = -inf] (initial)
   or [thr = inf] (den = 0 incumbent) times [den = 0] is NaN, which
   must fall through to the exact division — a degenerate plan's
   [num /. 0. = inf] ratio is a real improvement.

   The bound fails in two corners, both decided once per delta from
   the numerator table's extremes: a numerator that overflowed to +inf
   ([thr *. den] may overflow with it, and [inf <= inf] would skip a
   ratio of +inf), and a positive subnormal numerator ([thr *. den]
   then rounds by up to half a subnormal ulp, past its relative bound).
   Every numerator vertex value lies in [[fl (w_min * inv), vertex_value
   total total]] or is 0, with [w_min] the smallest positive weight —
   single-bit entries of the subset-sum table are the weights
   themselves, and rounding is monotone — so when either end leaves the
   normal range the scan divides every pair instead.  Takes
   [deltas.(di)] rather than the float itself: a float argument to a
   call that is not inlined is boxed, which the zero-allocation contract
   forbids. *)
let filter_exact deltas di sums off m =
  let delta = Array.unsafe_get deltas di in
  let inv = 1. /. delta in
  let total = FA.unsafe_get sums (off + (1 lsl m) - 1) in
  let w_min = ref infinity in
  for i = 0 to m - 1 do
    let w = FA.unsafe_get sums (off + (1 lsl i)) in
    if w > 0. && w < !w_min then w_min := w
  done;
  vertex_value ~delta ~inv total total < infinity
  && !w_min *. inv >= Float.min_float

let shrink = 0x1.fffffffffffffp-1

let eval_grid ?scratch t ~deltas ~gtc ~patterns =
  let nd = Array.length deltas in
  if FA.length gtc < nd then
    invalid_arg "Sweep.eval_grid: gtc buffer shorter than deltas";
  if Array.length patterns < nd then
    invalid_arg "Sweep.eval_grid: patterns buffer shorter than deltas";
  (* Monomorphic validation loop: a polymorphic [Array.iter] over a float
     array boxes every element (2 minor words per delta), which would break
     the zero-allocation contract of the grid path. *)
  for i = 0 to nd - 1 do
    if Array.unsafe_get deltas i < 1. then
      invalid_arg "Sweep.eval_grid: delta must be >= 1"
  done;
  let scratch = match scratch with Some s -> s | None -> Scratch.create () in
  let nv = t.nv and mask = t.mask in
  let num_buf = Scratch.ensure scratch nv in
  let sums = t.sums and num_sums = t.num_sums in
  let kept = t.kept and degenerate = t.degenerate in
  let initial_zero = t.initial_zero in
  let nkept = Array.length kept in
  (* qsens-hot: begin *)
  for di = 0 to nd - 1 do
    let delta = Array.unsafe_get deltas di in
    Obs.add m_evals 1;
    let inv = 1. /. delta in
    (* Same collapsed-box shortcut as [eval]: pattern 0 only. *)
    let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
    for k = 0 to pattern_hi do
      FA.unsafe_set num_buf k
        ((delta *. FA.unsafe_get num_sums k)
        +. (FA.unsafe_get num_sums (mask lxor k) *. inv))
    done;
    let filter = filter_exact deltas di num_sums 0 t.dim in
    let best = ref neg_infinity and best_pat = ref (-1) and degen = ref 0 in
    let thr = ref neg_infinity in
    for kp = 0 to nkept - 1 do
      let p = Array.unsafe_get kept kp in
      if Array.unsafe_get degenerate p && initial_zero then incr degen
      else begin
        let off = kp * nv in
        for k = 0 to pattern_hi do
          let den =
            (delta *. FA.unsafe_get sums (off + k))
            +. (FA.unsafe_get sums (off + (mask lxor k)) *. inv)
          in
          let num = FA.unsafe_get num_buf k in
          if not (num <= !thr *. den) then begin
            let r = num /. den in
            if r > !best then begin
              best := r;
              best_pat := k;
              if filter then thr := r *. shrink
            end
          end
        done
      end
    done;
    Obs.add m_degenerate_ratios !degen;
    FA.unsafe_set gtc di
      (if !best_pat >= 0 then !best
       else if !degen > 0 then nan
       else !best);
    Array.unsafe_set patterns di !best_pat
  done
(* qsens-hot: end *)

(* ------------------------------------------------------------------ *)
(* Shared-denominator regret grid (DESIGN.md section 19).  Candidate
   [c]'s regret at [delta] is [eval] of the sweep built with [initial :=
   initials.(c)]: the max over kept plans [q] and patterns [k] of
   [fl (num_c(k) / den_q(k))], NaN ratios skipped.  For [num >= 0],
   correctly rounded division is non-increasing in the divisor, so the
   max over [q] is [fl (num_c(k) / min_q den_q(k))] — one per-pattern
   minimum table per delta serves every candidate.  Three cases the
   minimum alone would get wrong:

   - [num = 0]: [0 / den] is 0 for a positive divisor and NaN for a zero
     one, so the max is 0 iff some plan's cost is positive there —
     [0 /. den_max(k)] gives exactly that (NaN when the max is 0).
   - [num = +inf]: [inf / den] is NaN only for [den = +inf], so the max
     is NaN iff every plan's cost is infinite — [inf /. den_min(k)].
   - NaN denominators never win [eval]'s argmax, so the minimum skips
     them; a pattern with no other plan keeps its NaN minimum.

   Degenerate plans (all weights zero) cost 0 or NaN at every vertex, so
   they never raise [den_max]; skipping them for an all-zero candidate
   — whose numerators are all 0 or all NaN — therefore changes only the
   NaN-versus-[-inf] answer of an empty scan, which is decided from
   counts as [eval] decides it.  No witness pattern: the minimum forgets
   which plan attained it, and [eval]'s tie order is plan-major. *)

let regret_grid ?budget ?scratch t ~initials ~deltas ~out =
  let nd = Array.length deltas and ncand = Array.length initials in
  let m = t.dim and nv = t.nv and mask = t.mask in
  if Array.length out < nd then
    invalid_arg "Sweep.regret_grid: out has fewer rows than deltas";
  for di = 0 to nd - 1 do
    if Array.unsafe_get deltas di < 1. then
      invalid_arg "Sweep.regret_grid: delta must be >= 1";
    if Array.length (Array.unsafe_get out di) < ncand then
      invalid_arg "Sweep.regret_grid: out row shorter than initials"
  done;
  for c = 0 to ncand - 1 do
    let u = Array.unsafe_get initials c in
    if Array.length u <> m then
      invalid_arg "Sweep.regret_grid: dimension mismatch";
    for i = 0 to m - 1 do
      if Array.unsafe_get u i < 0. then
        invalid_arg "Sweep.regret_grid: negative component"
    done
  done;
  let scratch = match scratch with Some s -> s | None -> Scratch.create () in
  Scratch.ensure_regret scratch ~dim:m ~nv ~rows:ncand;
  let nums = scratch.Scratch.num and w = scratch.Scratch.weights in
  let den_min = scratch.Scratch.den_min and den_max = scratch.Scratch.den_max in
  let center = t.center and sums = t.sums in
  let kept = t.kept and nkept = Array.length t.kept in
  (* qsens-hot: begin *)
  (* Numerator side, as a rebuild with each candidate as the initial
     would compute it: weights [u_i * c_i], then the subset sums, whose
     full-pattern entry is the ascending total [build] tests for zero. *)
  let ndegen = ref 0 in
  for kp = 0 to nkept - 1 do
    if Array.unsafe_get t.degenerate (Array.unsafe_get kept kp) then incr ndegen
  done;
  let live = ref 0 in
  for c = 0 to ncand - 1 do
    let u = Array.unsafe_get initials c in
    for i = 0 to m - 1 do
      Array.unsafe_set w i (Array.unsafe_get u i *. Array.unsafe_get center i)
    done;
    subset_sums w m nums (c * nv);
    live :=
      !live + nkept
      - (if Float.equal (FA.unsafe_get nums ((c * nv) + mask)) 0. then !ndegen
         else 0)
  done;
  (* What per-candidate [eval]s would charge — one unit per vertex of
     every plan row they scan — as one up-front checkpoint. *)
  let charge = ref 0 in
  for di = 0 to nd - 1 do
    let vertices =
      if Float.equal (Array.unsafe_get deltas di) 1. then 1 else nv
    in
    charge := !charge + (vertices * !live)
  done;
  Budget.spend_opt budget ~who:"Sweep.regret_grid" !charge;
  for di = 0 to nd - 1 do
    let delta = Array.unsafe_get deltas di in
    let inv = 1. /. delta in
    let pattern_hi = if Float.equal delta 1. then 0 else nv - 1 in
    for k = 0 to pattern_hi do
      FA.unsafe_set den_min k nan;
      FA.unsafe_set den_max k 0.
    done;
    for kp = 0 to nkept - 1 do
      let off = kp * nv in
      for k = 0 to pattern_hi do
        let den =
          (delta *. FA.unsafe_get sums (off + k))
          +. (FA.unsafe_get sums (off + (mask lxor k)) *. inv)
        in
        let lo = FA.unsafe_get den_min k in
        if den < lo || Float.is_nan lo then FA.unsafe_set den_min k den;
        if den > FA.unsafe_get den_max k then FA.unsafe_set den_max k den
      done
    done;
    let row = Array.unsafe_get out di in
    let degen = ref 0 in
    for c = 0 to ncand - 1 do
      let off = c * nv in
      let skipped =
        if Float.equal (FA.unsafe_get nums (off + mask)) 0. then !ndegen else 0
      in
      degen := !degen + skipped;
      let filter = filter_exact deltas di nums off m in
      let best = ref neg_infinity and thr = ref neg_infinity in
      for k = 0 to pattern_hi do
        let num =
          (delta *. FA.unsafe_get nums (off + k))
          +. (FA.unsafe_get nums (off + (mask lxor k)) *. inv)
        in
        if not (num <= !thr *. FA.unsafe_get den_min k) then begin
          let r =
            if Float.equal num 0. then num /. FA.unsafe_get den_max k
            else num /. FA.unsafe_get den_min k
          in
          if r > !best then begin
            best := r;
            if filter then thr := r *. shrink
          end
        end
      done;
      (* Every scanned ratio is NaN or >= 0, so [-inf] means none
         counted: [eval]'s empty-argmax answer. *)
      Array.unsafe_set row c
        (if !best > neg_infinity then !best
         else if skipped > 0 then nan
         else neg_infinity)
    done;
    Obs.add m_evals ncand;
    Obs.add m_degenerate_ratios !degen
  done
(* qsens-hot: end *)

let check_pattern t pattern =
  if pattern < 0 || pattern >= t.nv then
    invalid_arg
      (Printf.sprintf "Sweep: pattern %d outside 0..%d" pattern (t.nv - 1))

let kept_slot t plan =
  if plan < 0 || plan >= Array.length t.degenerate then
    invalid_arg (Printf.sprintf "Sweep: plan %d out of range" plan);
  let rec go kp =
    if kp >= Array.length t.kept then
      invalid_arg (Printf.sprintf "Sweep: plan %d was pruned" plan)
    else if t.kept.(kp) = plan then kp
    else go (kp + 1)
  in
  go 0

let plan_a t ~plan ~pattern =
  check_pattern t pattern;
  FA.get t.sums ((kept_slot t plan * t.nv) + pattern)

let plan_b t ~plan ~pattern =
  check_pattern t pattern;
  FA.get t.sums ((kept_slot t plan * t.nv) + (t.mask lxor pattern))

let initial_a t ~pattern =
  check_pattern t pattern;
  FA.get t.num_sums pattern

let initial_b t ~pattern =
  check_pattern t pattern;
  FA.get t.num_sums (t.mask lxor pattern)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound evaluation: same worst-case GTC argmax as [eval],
   computed without the 2^dim subset-sum tables.  Per delta, every live
   kept plan is one {!Vertex_enum.Bnb.spec} over the initial's and the
   plan's weights, whose leaves re-derive the exact [eval] ratio —
   ascending-index partial sums through [vertex_value]'s two roundings —
   so the result is bit-identical to the exhaustive sweep wherever both
   are defined. *)
module Bnb = struct
  let max_dim = Limits.bnb_max_dim
  let supported ~dim = dim >= 1 && dim <= max_dim

  type t = {
    center : Vec.t;
    dim : int;
    kept : int array;
    weights : float array array;  (* kept-slot indexed *)
    num_weights : float array;
    degenerate : bool array;  (* original plan indexed *)
    initial_zero : bool;
  }

  let dim t = t.dim
  let kept t = Array.copy t.kept
  let center t = Vec.copy t.center

  let bytes t =
    let m = t.dim in
    let nkept = Array.length t.kept in
    (* Float rows at 8 bytes per entry, bool and int arrays at one word
       per element, one header word per row, fixed record overhead.
       Dimensions only — no marshalling. *)
    8
    * ((nkept * m) + m (* weights + num_weights *)
      + Array.length t.degenerate
      + nkept (* kept *) + m (* center *)
      + nkept (* row headers *))
    + 112

  (* The initial-dependent half of a search. *)
  let with_initial t ~initial =
    let num_weights = Vec.map2 ( *. ) initial t.center in
    let initial_zero = Float.equal (ascending_sum num_weights) 0. in
    { t with num_weights; initial_zero }

  let build ?(prune = true) ~plans ~initial ~center () =
    let np = Array.length plans in
    if np = 0 then invalid_arg "Sweep.Bnb.build: no plans";
    let m = Vec.dim center in
    if m < 1 then
      invalid_arg
        (Printf.sprintf "Sweep.Bnb.build: dimension %d outside 1..%d" m max_dim);
    if not (supported ~dim:m) then
      invalid_arg (Limits.bnb_gate_message ~who:"Sweep.Bnb.build" ~dim:m);
    validate_inputs ~who:"Sweep.Bnb.build" ~plans ~initial ~center;
    Obs.with_span "bnb.build" @@ fun () ->
    let all_weights = Array.map (fun p -> Vec.map2 ( *. ) p center) plans in
    let totals = Array.map ascending_sum all_weights in
    let kept = dominance_kept ~prune ~plans ~totals in
    Obs.add m_plans_pruned (np - Array.length kept);
    with_initial ~initial
      {
        center = Vec.copy center;
        dim = m;
        kept;
        weights = Array.map (fun p -> all_weights.(p)) kept;
        num_weights = [||];
        degenerate = Array.map (fun s -> Float.equal s 0.) totals;
        initial_zero = false;
      }

  (* Rebinding shares everything initial-independent: the kept set, the
     weights and the degenerate flags depend only on [plans] and
     [center]. *)
  let rebind t ~initial =
    if Vec.dim initial <> t.dim then
      invalid_arg "Sweep.Bnb.rebind: dimension mismatch";
    Array.iter
      (fun x ->
        if x < 0. then invalid_arg "Sweep.Bnb.rebind: negative component")
      initial;
    with_initial t ~initial

  type bnb = t

  (* Reusable state for the search: one spec per live kept plan (a
     degenerate plan against an all-zero initial is skipped and counted
     instead, as [eval] does), the node pool and the stats record.
     Binding is cached by physical identity, so sweeping a delta grid
     against one search binds once; a delta costs nothing beyond the
     search itself. *)
  module Scratch = struct
    type t = {
      mutable src : bnb option;
      mutable specs : Vertex_enum.Bnb.spec array;
      mutable ndegen : int;
      stack : Vertex_enum.Bnb.stack;
      stats : Vertex_enum.Bnb.stats;
    }

    let create () =
      {
        src = None;
        specs = [||];
        ndegen = 0;
        stack = Vertex_enum.Bnb.make_stack ();
        stats = Vertex_enum.Bnb.fresh_stats ();
      }

    let bind sc (t : bnb) =
      match sc.src with
      | Some s when s == t -> ()
      | _ ->
          let live = ref [] and ndegen = ref 0 in
          for s = Array.length t.kept - 1 downto 0 do
            if t.degenerate.(t.kept.(s)) && t.initial_zero then incr ndegen
            else
              live :=
                Vertex_enum.Bnb.make_spec ~wn:t.num_weights ~wd:t.weights.(s)
                :: !live
          done;
          sc.src <- Some t;
          sc.specs <- Array.of_list !live;
          sc.ndegen <- !ndegen
  end

  let eval_with_stats ?budget ?scratch t ~delta =
    if delta < 1. then invalid_arg "Sweep.Bnb.eval: delta must be >= 1";
    Obs.add m_bnb_evals 1;
    let sc = match scratch with Some sc -> sc | None -> Scratch.create () in
    Scratch.bind sc t;
    let stats = sc.Scratch.stats in
    stats.nodes <- 0;
    stats.leaves <- 0;
    let v, pat, _ =
      Vertex_enum.Bnb.search ?budget ~stats ~stack:sc.Scratch.stack ~delta
        sc.Scratch.specs
    in
    Obs.add m_bnb_nodes stats.nodes;
    Obs.add m_bnb_leaves stats.leaves;
    Obs.add m_degenerate_ratios sc.Scratch.ndegen;
    let res =
      if pat >= 0 then (v, pat)
      else ((if sc.Scratch.ndegen > 0 then nan else v), -1)
    in
    (res, (stats.nodes, stats.leaves))

  let eval ?budget ?scratch t ~delta =
    fst (eval_with_stats ?budget ?scratch t ~delta)
end
