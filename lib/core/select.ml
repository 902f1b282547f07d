open Qsens_linalg
open Qsens_geom
module Budget = Qsens_budget.Budget
module Pool = Qsens_parallel.Pool
module Obs = Qsens_obs.Obs

let m_selections = Obs.counter ~help:"plan selections computed" "select.points"

let m_budget_fallbacks =
  Obs.counter
    ~help:
      "selection regret searches where the branch-and-bound node budget \
       tripped and the linear-fractional path answered instead"
    "select.budget_fallbacks"

type point = {
  delta : float;
  classic : int;
  lec : int;
  minimax : int;
  expected : float array;
  regret : float array;
  fallbacks : int;
}

type engine = [ `Auto | `Exhaustive | `Bnb ]

(* All selection sweeps the same boxes as the worst-case analysis:
   multiplicative error around the estimated costs, the all-ones point of
   the active group subspace. *)
let ones_center ~plans = Vec.make (Vec.dim plans.(0)) 1.

let validate ~who plans =
  if Array.length plans = 0 then invalid_arg (who ^ ": no plans");
  let dim = Vec.dim plans.(0) in
  Array.iteri
    (fun i p ->
      if Vec.dim p <> dim then
        invalid_arg
          (Printf.sprintf "%s: plan %d has dimension %d, expected %d" who i
             (Vec.dim p) dim))
    plans

let classic_index ~plans =
  validate ~who:"Select.classic_index" plans;
  Framework.optimal_index ~plans ~costs:(ones_center ~plans)

(* E[C_i] under the per-coordinate uniform prior over
   [c_i/delta, c_i*delta] is the interval midpoint c_i*(delta+1/delta)/2,
   so every plan's expected cost is one kernel dot against the midpoint
   vector.  For the symmetric all-ones center this scales U.c by a common
   positive factor, which is why LEC provably coincides with the classic
   choice there (DESIGN.md section 15) — the closed form is kept general
   in the center so the identity is a theorem of the inputs, not an
   assumption of the code. *)
let expected_costs ~kernel ~center ~delta =
  if delta < 1. then invalid_arg "Select.expected_costs: delta < 1";
  let half = 0.5 *. (delta +. (1. /. delta)) in
  let mid = Array.map (fun c -> c *. half) center in
  Kernel.dot_rows kernel mid

(* Lowest-index argmin with strict improvement; NaN entries are skipped
   (a NaN score never beats a finite one).  [default] answers the
   all-NaN case. *)
let argmin ~default scores =
  let best = ref nan and best_i = ref default in
  Array.iteri
    (fun i s ->
      if (not (Float.is_nan s)) && (Float.is_nan !best || s < !best) then begin
        best := s;
        best_i := i
      end)
    scores;
  !best_i

let point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks =
  let expected = expected_costs ~kernel ~center ~delta in
  {
    delta;
    classic;
    lec = argmin ~default:classic expected;
    minimax = argmin ~default:classic regret;
    expected;
    regret;
    fallbacks;
  }

(* ------------------------------------------------------------------ *)
(* Per-candidate worst-case regret over the box, through the same three
   tiers as Worst_case.curve_with_path: exhaustive subset-sum sweeps
   below the table gate, budgeted branch-and-bound below the pattern
   gate (a search that trips its per-(candidate, delta) node budget
   degrades to the linear-fractional program for that cell alone), and
   the linear-fractional program beyond.  Candidate [i]'s regret is the
   worst-case GTC with [initial := plans.(i)] against the whole set, so
   the classic candidate's column reproduces Worst_case.curve
   bit-for-bit. *)

let regrets_fractional ?pool ~plans ~center delta =
  let box = Box.around center ~delta in
  Array.map
    (fun initial ->
      fst (Framework.worst_case_gtc_fractional ?pool ~plans ~a:initial box))
    plans

let curve_exhaustive ?pool ~plans ~center ~deltas () =
  (* One subset-sum build for the whole candidate set, then every
     candidate scored against one per-pattern minimum table per delta
     (Sweep.regret_grid) — bit-identical to a per-candidate sweep. *)
  let base = Sweep.build ?pool ~plans ~initial:plans.(0) ~center () in
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let regrets = Array.init nd (fun _ -> Array.make (Array.length plans) nan) in
  Sweep.regret_grid base ~initials:plans ~deltas:darr ~out:regrets;
  List.init nd (fun di -> (darr.(di), regrets.(di), 0))

let curve_bnb ?(node_budget = Limits.default_bnb_node_budget) ~plans ~center
    ~deltas () =
  (* One build, then a numerator-only [rebind] per further candidate.
     Candidate-outer, so the scratch binds each candidate's specs once
     for the whole delta grid. *)
  let base = Sweep.Bnb.build ~plans ~initial:plans.(0) ~center () in
  let darr = Array.of_list deltas in
  let nd = Array.length darr in
  let regrets = Array.init nd (fun _ -> Array.make (Array.length plans) nan) in
  let fallbacks = Array.make nd 0 in
  let scratch = Sweep.Bnb.Scratch.create () in
  Array.iteri
    (fun i initial ->
      let bnb = if i = 0 then base else Sweep.Bnb.rebind base ~initial in
      Array.iteri
        (fun di delta ->
          let budget = Budget.create node_budget in
          regrets.(di).(i) <-
            (match Sweep.Bnb.eval ~budget ~scratch bnb ~delta with
            | gtc, _ -> gtc
            | exception Budget.Exhausted _ ->
                fallbacks.(di) <- fallbacks.(di) + 1;
                let box = Box.around center ~delta in
                fst
                  (Framework.worst_case_gtc_fractional ~plans ~a:initial box)))
        darr)
    plans;
  Obs.add m_budget_fallbacks (Array.fold_left ( + ) 0 fallbacks);
  List.init nd (fun di -> (darr.(di), regrets.(di), fallbacks.(di)))

let describe_path ~cells ~node_budget ~fallbacks =
  if fallbacks = 0 then "branch-and-bound"
  else
    Printf.sprintf
      "branch-and-bound (%d/%d searches past the %d-node budget -> \
       linear-fractional)"
      fallbacks cells node_budget

let curve ?(deltas = Worst_case.default_deltas) ?pool ?node_budget
    ?(engine = `Auto) ~plans () =
  validate ~who:"Select.curve" plans;
  let center = ones_center ~plans in
  let dim = Vec.dim center in
  let kernel = Kernel.pack plans in
  let classic = Framework.optimal_index ~plans ~costs:center in
  let finish (delta, regret, fallbacks) =
    Obs.add m_selections 1;
    point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks
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
              finish (delta, regrets_fractional ?pool ~plans ~center delta, 0))
            deltas,
          "linear-fractional fallback" )

let select ?pool ?node_budget ?engine ~plans ~delta () =
  match curve ~deltas:[ delta ] ?pool ?node_budget ?engine ~plans () with
  | [ p ], _ -> p
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Monte-Carlo floor: a seeded log-uniform sample of the box estimates
   every candidate's worst regret when the exact tiers are out of
   budget.  Classic and LEC stay exact — they are single dots — only the
   regret column is an estimate (a lower bound: sampling can only miss
   the worst vertex). *)

let estimate ?(seed = 97) ?(samples = 4096) ?budget ~plans ~delta () =
  validate ~who:"Select.estimate" plans;
  if delta < 1. then invalid_arg "Select.estimate: delta < 1";
  let center = ones_center ~plans in
  let kernel = Kernel.pack plans in
  let classic = Framework.optimal_index ~plans ~costs:center in
  let np = Array.length plans in
  let box = Box.around center ~delta in
  let st = Random.State.make [| seed |] in
  let n =
    match budget with
    | None -> samples
    | Some b ->
        (* Cooperative checkpoint, Monte_carlo-style: draw what the
           remaining allowance affords (one unit per plan ratio), never
           less than one sample, and charge it up front — capped at the
           remainder so the floor degrades instead of aborting. *)
        let n = max 1 (min samples (Budget.remaining b / max 1 np)) in
        Budget.spend b ~who:"Select.estimate"
          (min (Budget.remaining b) (n * np));
        n
  in
  let regret = Array.make np nan in
  let costs = Array.make np 0. in
  for _ = 1 to n do
    let x = Box.sample st box in
    Kernel.matvec kernel x costs;
    let best = ref infinity in
    for i = 0 to np - 1 do
      if costs.(i) < !best then best := costs.(i)
    done;
    for i = 0 to np - 1 do
      let r = costs.(i) /. !best in
      if not (Float.is_nan r) then
        if Float.is_nan regret.(i) || r > regret.(i) then regret.(i) <- r
    done
  done;
  Obs.add m_selections 1;
  point_of_regrets ~kernel ~center ~classic ~delta ~regret ~fallbacks:0
