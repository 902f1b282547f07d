open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs
module Budget = Qsens_budget.Budget

let m_curve_points = Obs.counter ~help:"worst-case curve points" "wc.curve_points"

let m_budget_fallbacks =
  Obs.counter
    ~help:
      "grid points where the branch-and-bound node budget tripped and the \
       linear-fractional path answered instead"
    "wc.budget_fallbacks"

type point = { delta : float; gtc : float; witness : Vec.t }

let default_deltas =
  (* 10^0, 10^0.25, ..., 10^4 *)
  List.init 17 (fun i -> Float.pow 10. (0.25 *. Float.of_int i))

(* All curves sweep boxes around the estimated cost point, which is the
   all-ones vector in the (active) group subspace. *)
let ones_center ~initial = Vec.make (Vec.dim initial) 1.

(* ------------------------------------------------------------------ *)
(* Kernel path: separable subset-sum tables, built once per sweep. *)

let point_of_eval ~center ~delta (gtc, pattern) =
  let box = Box.around center ~delta in
  let witness =
    if pattern < 0 then Box.center box else Box.vertex box pattern
  in
  { delta; gtc; witness }

let curve_kernel ~deltas ?pool ~plans ~initial () =
  let center = ones_center ~initial in
  let sweep = Sweep.build ?pool ~plans ~initial ~center () in
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let results = Array.make nd { delta = nan; gtc = nan; witness = [||] } in
  (match pool with
  | Some p when Pool.domains p > 1 && nd > 1 ->
      Pool.parallel_for_chunked p ~n:nd (fun lo hi ->
          for di = lo to hi - 1 do
            let delta = darr.(di) in
            (* qsens-lint: disable=P001; qsens-check: disable=C001 — disjoint [lo, hi) slices *)
            results.(di) <-
              (* qsens-check: disable=C003 — no budget here, so Sweep.eval cannot raise Exhausted *)
              point_of_eval ~center ~delta (Sweep.eval sweep ~delta)
          done)
  | _ ->
      (* Sequential: evaluate the whole grid through the incremental
         kernel — bit-identical to per-point [Sweep.eval], with the
         numerator vertex values hoisted once per delta and zero
         minor-heap words per point in steady state. *)
      let gtc = Float.Array.make nd nan in
      let patterns = Array.make nd (-1) in
      Sweep.eval_grid sweep ~deltas:darr ~gtc ~patterns;
      for di = 0 to nd - 1 do
        results.(di) <-
          point_of_eval ~center ~delta:darr.(di)
            (Float.Array.get gtc di, patterns.(di))
      done);
  Obs.add m_curve_points nd;
  Array.to_list results

let curve_naive ?(deltas = default_deltas) ?pool ~plans ~initial () =
  (* Reference for the kernel path: rebuild the (delta-independent)
     tables from scratch at every delta, pruning disabled — bit-identical
     to [curve] by the Sweep determinism contract, at naive cost. *)
  let center = ones_center ~initial in
  List.map
    (fun delta ->
      let sweep = Sweep.build ?pool ~prune:false ~plans ~initial ~center () in
      Obs.add m_curve_points 1;
      point_of_eval ~center ~delta (Sweep.eval sweep ~delta))
    deltas

(* ------------------------------------------------------------------ *)
(* Linear-fractional single-point evaluation: the budget-exhaustion
   fallback below and the whole answer past the branch-and-bound gate.
   One program per plan, through Framework's argmax. *)

let gtc_at_full_legacy ?pool ~plans ~initial delta =
  let box = Box.around (ones_center ~initial) ~delta in
  Framework.worst_case_gtc_fractional ?pool ~plans ~a:initial box

(* ------------------------------------------------------------------ *)
(* Branch-and-bound path: no 2^dim tables, so it covers the dimensions
   the exhaustive kernel gates out — and doubles as a cross-checkable
   shadow of the kernel below the gate, where the two are bit-identical
   (Sweep.Bnb's determinism contract).

   [node_budget] is the per-grid-point allowance: each delta's search
   runs under a fresh budget, and a point whose search trips it degrades
   to the linear-fractional program for that point alone (recorded in
   [fell] and the wc.budget_fallbacks counter).  Whether a point trips
   is a pure function of (budget, plans, delta), so the fallback set is
   the same for any pool size. *)

let curve_bnb ?node_budget ~deltas ?pool ~plans ~initial () =
  let center = ones_center ~initial in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let results = Array.make nd { delta = nan; gtc = nan; witness = [||] } in
  let fell = Array.make nd false in
  let point ~scratch delta di =
    match node_budget with
    | None ->
        (* qsens-check: disable=C003 — unbudgeted branch: Bnb.eval cannot raise Exhausted without a budget *)
        point_of_eval ~center ~delta (Sweep.Bnb.eval ~scratch bnb ~delta)
    | Some n -> (
        let budget = Budget.create n in
        try
          point_of_eval ~center ~delta
            (Sweep.Bnb.eval ~budget ~scratch bnb ~delta)
        with Budget.Exhausted _ ->
          (* qsens-check: disable=C001 — each chunk fills a disjoint [lo, hi) slice *)
          fell.(di) <- true;
          let gtc, witness = gtc_at_full_legacy ~plans ~initial delta in
          { delta; gtc; witness })
  in
  (* One scratch per chunk of the grid: a scratch is single-owner
     state, and its search visits the same nodes wherever it runs. *)
  let fill lo hi =
    let scratch = Sweep.Bnb.Scratch.create () in
    for di = lo to hi - 1 do
      (* qsens-check: disable=C001 — each chunk fills a disjoint [lo, hi) slice *)
      results.(di) <- point ~scratch darr.(di) di
    done
  in
  (match pool with
  | Some p when Pool.domains p > 1 && nd > 1 ->
      Pool.parallel_for_chunked p ~n:nd fill
  | _ -> fill 0 nd);
  let fallbacks = Array.fold_left (fun a f -> if f then a + 1 else a) 0 fell in
  Obs.add m_budget_fallbacks fallbacks;
  Obs.add m_curve_points nd;
  (Array.to_list results, fallbacks)

(* ------------------------------------------------------------------ *)
(* Legacy path: the single-point fallback mapped over the grid.
   High-dimension fallback, and the pre-kernel baseline the sweep
   benchmark reports speedups against.  With [?pool] each point's
   per-plan programs run across domains. *)

let curve_legacy ?(deltas = default_deltas) ?pool ~plans ~initial () =
  List.map
    (fun delta ->
      let gtc, witness = gtc_at_full_legacy ?pool ~plans ~initial delta in
      Obs.add m_curve_points 1;
      { delta; gtc; witness })
    deltas

(* ------------------------------------------------------------------ *)
(* Dispatchers. *)

let use_kernel ~plans ~initial =
  Array.length plans > 0 && Sweep.supported ~dim:(Vec.dim initial)

let use_bnb ~plans ~initial =
  Array.length plans > 0 && Sweep.Bnb.supported ~dim:(Vec.dim initial)

let path_name ~dim =
  if Sweep.supported ~dim then "exhaustive sweep"
  else if Sweep.Bnb.supported ~dim then "branch-and-bound"
  else "linear-fractional fallback"

let describe_path ~nd ~node_budget ~fallbacks =
  if fallbacks = 0 then "branch-and-bound"
  else
    Printf.sprintf
      "branch-and-bound (%d/%d points past the %d-node budget -> \
       linear-fractional)"
      fallbacks nd node_budget

let gtc_at_full ?pool ?(node_budget = Limits.default_bnb_node_budget) ~plans
    ~initial delta =
  if use_kernel ~plans ~initial then begin
    (* Through the same Sweep tables as [curve], so a single-delta query
       is bit-identical to the matching curve point. *)
    let center = ones_center ~initial in
    let sweep = Sweep.build ?pool ~plans ~initial ~center () in
    let p = point_of_eval ~center ~delta (Sweep.eval sweep ~delta) in
    (p.gtc, p.witness)
  end
  else if use_bnb ~plans ~initial then begin
    (* Same per-point budget and fallback as [curve], so the single-delta
       query stays bit-identical to the matching curve point even when
       that point degraded to the fractional program. *)
    let center = ones_center ~initial in
    let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
    let budget = Budget.create node_budget in
    match Sweep.Bnb.eval ~budget bnb ~delta with
    | res ->
        let p = point_of_eval ~center ~delta res in
        (p.gtc, p.witness)
    | exception Budget.Exhausted _ ->
        Obs.add m_budget_fallbacks 1;
        gtc_at_full_legacy ~plans ~initial delta
  end
  else gtc_at_full_legacy ?pool ~plans ~initial delta

let gtc_at ?pool ~plans ~initial delta =
  fst (gtc_at_full ?pool ~plans ~initial delta)

let curve_with_path ?(deltas = default_deltas) ?pool
    ?(node_budget = Limits.default_bnb_node_budget) ~plans ~initial () =
  let dim = Vec.dim initial in
  if deltas = [] then ([], path_name ~dim)
  else if use_kernel ~plans ~initial then
    (curve_kernel ~deltas ?pool ~plans ~initial (), "exhaustive sweep")
  else if use_bnb ~plans ~initial then begin
    let points, fallbacks =
      curve_bnb ~node_budget ~deltas ?pool ~plans ~initial ()
    in
    (points, describe_path ~nd:(List.length deltas) ~node_budget ~fallbacks)
  end
  else
    ( curve_legacy ~deltas ?pool ~plans ~initial (),
      "linear-fractional fallback" )

let curve ?deltas ?pool ~plans ~initial () =
  fst (curve_with_path ?deltas ?pool ~plans ~initial ())

let curve_pruned ?(deltas = default_deltas) ?pool ?node_budget ~plans ~initial
    () =
  if deltas = [] then []
  else fst (curve_bnb ?node_budget ~deltas ?pool ~plans ~initial ())

let asymptote points =
  match points with
  | [] -> `Bounded 1.
  | first :: rest ->
      (* Robust to input order: [last] is the largest-delta point and
         [before] the point one decade earlier — the *largest* delta not
         exceeding [last.delta / 10], never merely the first qualifying
         point encountered. *)
      let last =
        List.fold_left
          (fun acc p -> if p.delta > acc.delta then p else acc)
          first rest
      in
      let threshold = last.delta /. 10. *. 1.0001 in
      let before =
        List.fold_left
          (fun acc p ->
            if p.delta <= threshold then
              match acc with
              | Some q when q.delta >= p.delta -> acc
              | _ -> Some p
            else acc)
          None points
      in
      let growth =
        match before with
        | Some p when p.gtc > 0. -> last.gtc /. p.gtc
        | _ -> 1.
      in
      if growth < 3. then `Bounded last.gtc
      else `Quadratic (last.gtc /. (last.delta *. last.delta))
