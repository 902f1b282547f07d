(* Test-only reference for [Select.curve]: the per-candidate regret loops
   as they stood before the shared-denominator kernel.  The exhaustive
   tier builds one sweep per candidate (initial := that candidate) and
   evaluates each over the whole delta grid with [Sweep.eval_grid]; the
   branch-and-bound tier runs delta-outer, candidate-inner, with a fresh
   node budget per cell and the linear-fractional program where one
   trips.  Tier dispatch, path strings and counters are [Select.curve]'s,
   so the production curve must match this one bit for bit: points,
   path, fallbacks and the counters both feed. *)

open Qsens_core
open Qsens_linalg
open Qsens_geom
module Budget = Qsens_budget.Budget
module Obs = Qsens_obs.Obs

(* Registration is idempotent per name: these are Select's counters. *)
let m_selections = Obs.counter "select.points"
let m_budget_fallbacks = Obs.counter "select.budget_fallbacks"

let curve_exhaustive ?pool ~plans ~center ~deltas () =
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let np = Array.length plans in
  let regrets = Array.init nd (fun _ -> Array.make np nan) in
  let gtc = Float.Array.make nd nan in
  let patterns = Array.make nd (-1) in
  let scratch = Sweep.Scratch.create () in
  Array.iteri
    (fun i initial ->
      let sw = Sweep.build ?pool ~plans ~initial ~center () in
      Sweep.eval_grid ~scratch sw ~deltas:darr ~gtc ~patterns;
      for di = 0 to nd - 1 do
        regrets.(di).(i) <- Float.Array.get gtc di
      done)
    plans;
  List.init nd (fun di -> (darr.(di), regrets.(di), 0))

let curve_bnb ?(node_budget = Limits.default_bnb_node_budget) ~plans ~center
    ~deltas () =
  let base = Sweep.Bnb.build ~plans ~initial:plans.(0) ~center () in
  let searches =
    Array.mapi
      (fun i initial ->
        if i = 0 then base else Sweep.Bnb.rebind base ~initial)
      plans
  in
  let scratch = Sweep.Bnb.Scratch.create () in
  List.map
    (fun delta ->
      let fallbacks = ref 0 in
      let regret =
        Array.mapi
          (fun i bnb ->
            let budget = Budget.create node_budget in
            match Sweep.Bnb.eval ~budget ~scratch bnb ~delta with
            | gtc, _ -> gtc
            | exception Budget.Exhausted _ ->
                incr fallbacks;
                let box = Box.around center ~delta in
                fst
                  (Framework.worst_case_gtc_fractional ~plans ~a:plans.(i) box))
          searches
      in
      Obs.add m_budget_fallbacks !fallbacks;
      (delta, regret, !fallbacks))
    deltas

let describe_path ~cells ~node_budget ~fallbacks =
  if fallbacks = 0 then "branch-and-bound"
  else
    Printf.sprintf
      "branch-and-bound (%d/%d searches past the %d-node budget -> \
       linear-fractional)"
      fallbacks cells node_budget

let curve ?(deltas = Worst_case.default_deltas) ?pool ?node_budget
    ?(engine = `Auto) ~plans () =
  let center = Vec.make (Vec.dim plans.(0)) 1. in
  let dim = Vec.dim center in
  let kernel = Kernel.pack plans in
  let classic = Framework.optimal_index ~plans ~costs:center in
  let finish (delta, regret, fallbacks) =
    Obs.add m_selections 1;
    Select.point_of_regrets ~kernel ~center ~classic ~delta ~regret
      ~fallbacks
  in
  let exhaustive () =
    ( List.map finish (curve_exhaustive ?pool ~plans ~center ~deltas ()),
      "exhaustive sweep" )
  in
  let bnb () =
    let rows = curve_bnb ?node_budget ~plans ~center ~deltas () in
    let fallbacks = List.fold_left (fun a (_, _, f) -> a + f) 0 rows in
    let cells = Array.length plans * List.length deltas in
    let node_budget =
      Option.value ~default:Limits.default_bnb_node_budget node_budget
    in
    (List.map finish rows, describe_path ~cells ~node_budget ~fallbacks)
  in
  match engine with
  | `Exhaustive -> exhaustive ()
  | `Bnb -> bnb ()
  | `Auto ->
      if Sweep.supported ~dim then exhaustive ()
      else if Sweep.Bnb.supported ~dim then bnb ()
      else
        ( List.map
            (fun delta ->
              finish
                (delta, Select.regrets_fractional ?pool ~plans ~center delta, 0))
            deltas,
          "linear-fractional fallback" )
