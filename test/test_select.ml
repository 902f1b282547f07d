(* Tier-1 tests for robust plan selection (Qsens_core.Select).

   The load-bearing properties, per DESIGN.md section 15:

   + at delta = 1 the error box collapses to a point and all three
     decision rules (classic / LEC / minimax) return the classic index;
   + LEC provably coincides with classic over the symmetric all-ones
     center — the midpoint vector is a common positive scaling of the
     estimate;
   + selections are bit-identical across pool sizes 1/2/3 and across the
     exhaustive and branch-and-bound tiers wherever both are defined
     (dims up to Limits.exhaustive_max_dim = 12);
   + the classic candidate's regret column reproduces Worst_case.curve
     bit-for-bit — selection is the worst-case engine pointed at each
     candidate in turn, not a reimplementation. *)

open Qsens_core
open Qsens_linalg
module Pool = Qsens_parallel.Pool
module Budget = Qsens_budget.Budget

let pool1 = Pool.create ~domains:1 ()
let pool2 = Pool.create ~domains:2 ()
let pool3 = Pool.create ~domains:3 ()

let () =
  at_exit (fun () ->
      Pool.shutdown pool1;
      Pool.shutdown pool2;
      Pool.shutdown pool3)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_farr a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let same_point (p : Select.point) (q : Select.point) =
  same_float p.Select.delta q.Select.delta
  && p.Select.classic = q.Select.classic
  && p.Select.lec = q.Select.lec
  && p.Select.minimax = q.Select.minimax
  && same_farr p.Select.expected q.Select.expected
  && same_farr p.Select.regret q.Select.regret

let same_points ps qs =
  List.length ps = List.length qs && List.for_all2 same_point ps qs

let deltas = [ 1.; 2.; 10.; 177.; 10_000. ]

let gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    int_range dim_lo dim_hi >>= fun m ->
    int_range plans_lo plans_hi >>= fun k ->
    array_size (return k) (array_size (return m) (float_range 0.1 10.))
    >>= fun plans ->
    if not degenerate then return plans
    else
      int_range 0 (k - 1) >>= fun zi ->
      let plans = Array.map Array.copy plans in
      plans.(zi) <- Array.make m 0.;
      return plans)

(* ------------------------------------------------------------------ *)
(* Point-box collapse and the LEC = classic theorem *)

let prop_point_box_collapse =
  QCheck.Test.make ~count:40
    ~name:"select: point box (delta = 1) degrades to the classic optimum"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    (fun plans ->
      let p = Select.select ~plans ~delta:1. () in
      let classic = Select.classic_index ~plans in
      p.Select.classic = classic
      && p.Select.lec = classic
      && p.Select.minimax = classic)

let prop_lec_is_classic =
  QCheck.Test.make ~count:40
    ~name:"select: LEC == classic over the symmetric ones-center box"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    (fun plans ->
      let points, _ = Select.curve ~deltas ~plans () in
      List.for_all
        (fun (p : Select.point) -> p.Select.lec = p.Select.classic)
        points)

(* ------------------------------------------------------------------ *)
(* Bit-identity: engines x pool sizes, and the classic regret column
   against the worst-case curve *)

let selection_property plans =
  let reference, ref_path = Select.curve ~deltas ~plans () in
  let classic = Select.classic_index ~plans in
  let wc =
    Worst_case.curve ~deltas ~plans ~initial:plans.(classic) ()
  in
  String.equal ref_path "exhaustive sweep"
  && List.for_all2
       (fun (p : Select.point) (w : Worst_case.point) ->
         same_float p.Select.regret.(classic) w.Worst_case.gtc)
       reference wc
  && List.for_all
       (fun engine ->
         List.for_all
           (fun pool ->
             same_points reference
               (fst (Select.curve ~deltas ?pool ~engine ~plans ())))
           [ None; Some pool1; Some pool2; Some pool3 ])
       [ `Auto; `Exhaustive; `Bnb ]

let prop_select_bits =
  QCheck.Test.make ~count:40
    ~name:"select: exhaustive == bnb == auto, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:false))
    selection_property

let prop_select_bits_degenerate =
  QCheck.Test.make ~count:25
    ~name:"select: engines and pools agree with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:6
          ~degenerate:true))
    selection_property

(* Subnormal, zero and near-overflow weights: the branch-and-bound tier
   must still return the exhaustive tier's selections bit for bit,
   including where a candidate's spec against itself leaves the range
   in which the search prunes. *)
let prop_select_bits_adversarial =
  QCheck.Test.make ~count:200
    ~name:"select: exhaustive == bnb, adversarial magnitudes"
    (QCheck.make
       ~print:(fun (plans, deltas) -> Adversarial.print_case plans deltas)
       QCheck.Gen.(
         pair (Adversarial.gen_plans ~dim_hi:5 ~plans_hi:6)
           Adversarial.gen_deltas))
    (fun (plans, deltas) ->
      same_points
        (fst (Select.curve ~deltas ~engine:`Exhaustive ~plans ()))
        (fst (Select.curve ~deltas ~engine:`Bnb ~plans ())))

let test_dim12_tiers () =
  (* The top of the exhaustive gate: both tiers are defined, so their
     selections must agree bitwise — the largest case the qcheck
     properties cannot reach cheaply. *)
  let m = Limits.exhaustive_max_dim in
  let rand = Random.State.make [| 41; m |] in
  let plans =
    Array.init 3 (fun _ ->
        Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
  in
  let deltas = [ 1.; 10. ] in
  let ex, ex_path = Select.curve ~deltas ~engine:`Exhaustive ~plans () in
  let bb, _ = Select.curve ~deltas ~engine:`Bnb ~plans () in
  Alcotest.(check string) "path" "exhaustive sweep" ex_path;
  Alcotest.(check bool) "dim-12 tiers bit-identical" true (same_points ex bb)

(* ------------------------------------------------------------------ *)
(* The shared-denominator kernel against the per-candidate loops it
   replaced (test/select_ref.ml): same points, path and fallbacks, and
   the same totals on every counter the two feed, for every engine and
   pool size — on ordinary plan sets, zero-usage ones, and adversarial
   magnitudes (DESIGN.md section 19). *)

let watched =
  [
    "sweep.evals";
    "wc.degenerate_ratios";
    "bnb.nodes";
    "bnb.leaves";
    "select.budget_fallbacks";
  ]

let counted f = Obs_totals.run watched f

let same_outcome (a, ca) (b, cb) =
  ca = cb
  &&
  match (a, b) with
  | Ok (ps, path), Ok (qs, path') ->
      String.equal path path'
      && same_points ps qs
      && List.for_all2
           (fun (p : Select.point) (q : Select.point) ->
             p.Select.fallbacks = q.Select.fallbacks)
           ps qs
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let matches_reference ?node_budget ~deltas plans =
  List.for_all
    (fun engine ->
      List.for_all
        (fun pool ->
          same_outcome
            (counted (fun () ->
                 Select.curve ~deltas ?pool ?node_budget ~engine ~plans ()))
            (counted (fun () ->
                 Select_ref.curve ~deltas ?pool ?node_budget ~engine ~plans ())))
        [ Some pool1; Some pool2; Some pool3 ])
    [ `Exhaustive; `Bnb; `Auto ]

let gen_node_budget = QCheck.Gen.oneofl [ None; Some 1; Some 4; Some 20 ]

let prop_matches_reference ~name ~count gen =
  QCheck.Test.make ~count ~name
    (QCheck.make QCheck.Gen.(pair gen gen_node_budget))
    (fun (plans, node_budget) -> matches_reference ?node_budget ~deltas plans)

let prop_reference_bits =
  prop_matches_reference ~count:30
    ~name:"select == per-candidate reference, engines x pools 1/2/3"
    (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
       ~degenerate:false)

let prop_reference_bits_degenerate =
  prop_matches_reference ~count:30
    ~name:"select == per-candidate reference, zero-usage plans"
    (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:6
       ~degenerate:true)

let prop_reference_bits_adversarial =
  QCheck.Test.make ~count:80
    ~name:"select == per-candidate reference, adversarial magnitudes"
    (QCheck.make
       ~print:(fun (plans, deltas, _) -> Adversarial.print_case plans deltas)
       QCheck.Gen.(
         triple
           (Adversarial.gen_plans ~dim_hi:5 ~plans_hi:6)
           Adversarial.gen_deltas gen_node_budget))
    (fun (plans, deltas, node_budget) ->
      matches_reference ?node_budget ~deltas plans)

let test_reference_beyond_exhaustive () =
  (* Past the table gate [`Auto] dispatches to branch-and-bound; the
     candidate-outer loop must still visit exactly the reference's
     searches. *)
  let m = Limits.exhaustive_max_dim + 2 in
  let rand = Random.State.make [| 19; m |] in
  let plans =
    Array.init 4 (fun _ ->
        Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
  in
  List.iter
    (fun node_budget ->
      Alcotest.(check bool) "matches reference" true
        (matches_reference ?node_budget ~deltas:[ 1.; 10.; 1000. ] plans))
    [ None; Some 30 ]

(* ------------------------------------------------------------------ *)
(* A hand-built case where minimax penalty separates from classic *)

(* Two specialist plans and one hedge.  At the estimate (1, 1) the
   specialists tie at cost 1 and the hedge costs 1.2, so classic picks
   plan 0.  Over the delta = 10 box the worst vertex for either
   specialist is the one that inflates its own resource tenfold while
   deflating the rival's — regret 10 / 0.1 = 100 — while the hedge's
   worst regret is 6.06 / 0.1 = 60.6.  Minimax buys the hedge. *)
let hedge_plans = [| [| 1.; 0. |]; [| 0.; 1. |]; [| 0.6; 0.6 |] |]

let test_minimax_beats_classic () =
  let p = Select.select ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check int) "classic picks the specialist" 0 p.Select.classic;
  Alcotest.(check int) "lec agrees with classic" 0 p.Select.lec;
  Alcotest.(check int) "minimax picks the hedge" 2 p.Select.minimax;
  Alcotest.(check (float 1e-9)) "specialist regret" 100. p.Select.regret.(0);
  Alcotest.(check (float 1e-9)) "hedge regret" 60.6 p.Select.regret.(2);
  Alcotest.(check bool) "strictly lower regret" true
    (p.Select.regret.(p.Select.minimax) < p.Select.regret.(p.Select.classic));
  (* The single-delta query is the matching curve point, bit for bit. *)
  let points, _ = Select.curve ~deltas:[ 10. ] ~plans:hedge_plans () in
  Alcotest.(check bool) "select == curve point" true
    (same_points [ p ] points)

let test_budget_fallback_cells () =
  (* A one-node budget trips every branch-and-bound search; each cell
     degrades to the linear-fractional program alone and the path says
     so.  The answers stay exact — fractional is an exact tier. *)
  let exact = Select.select ~plans:hedge_plans ~delta:10. () in
  let points, path =
    Select.curve ~deltas:[ 10. ] ~engine:`Bnb ~node_budget:1
      ~plans:hedge_plans ()
  in
  match points with
  | [ p ] ->
      Alcotest.(check bool) "cells fell back" true (p.Select.fallbacks > 0);
      Alcotest.(check bool) "path names the fallback" true
        (let needle = "linear-fractional" in
         let n = String.length needle and h = String.length path in
         let rec go i =
           i + n <= h && (String.sub path i n = needle || go (i + 1))
         in
         go 0);
      Alcotest.(check int) "minimax unchanged" exact.Select.minimax
        p.Select.minimax;
      Array.iteri
        (fun i r ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "regret %d within fractional tolerance" i)
            exact.Select.regret.(i) r)
        p.Select.regret
  | _ -> Alcotest.fail "expected one point"

(* ------------------------------------------------------------------ *)
(* Monte-Carlo floor *)

let test_estimate_floor () =
  let exact = Select.select ~plans:hedge_plans ~delta:10. () in
  let est = Select.estimate ~samples:2000 ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check int) "classic exact" exact.Select.classic est.Select.classic;
  Alcotest.(check int) "lec exact" exact.Select.lec est.Select.lec;
  Alcotest.(check bool) "expected column exact" true
    (same_farr exact.Select.expected est.Select.expected);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "regret %d is a lower bound" i)
        true
        (r <= exact.Select.regret.(i) *. (1. +. 1e-9)))
    est.Select.regret;
  (* Budget clamp: the floor never raises, draws what the allowance
     affords, and charges it up front. *)
  let b = Budget.create 7 in
  let clamped =
    Select.estimate ~budget:b ~samples:2000 ~plans:hedge_plans ~delta:10. ()
  in
  Alcotest.(check int) "allowance spent" 1 (Budget.remaining b);
  Alcotest.(check int) "classic still exact" exact.Select.classic
    clamped.Select.classic;
  (* Same seed, same sample count: the estimate is reproducible. *)
  let again = Select.estimate ~samples:2000 ~plans:hedge_plans ~delta:10. () in
  Alcotest.(check bool) "seeded estimate reproducible" true
    (same_point est again)

(* ------------------------------------------------------------------ *)
(* Argument gates *)

let test_gates () =
  Alcotest.check_raises "empty plan set"
    (Invalid_argument "Select.curve: no plans") (fun () ->
      ignore (Select.curve ~plans:[||] ()));
  Alcotest.check_raises "mismatched dimensions"
    (Invalid_argument "Select.curve: plan 1 has dimension 3, expected 2")
    (fun () ->
      ignore (Select.curve ~plans:[| [| 1.; 2. |]; [| 1.; 2.; 3. |] |] ()));
  let over = Limits.exhaustive_max_dim + 1 in
  let plans = [| Array.make over 1. |] in
  Alcotest.check_raises "forced exhaustive past the gate"
    (Invalid_argument
       (Limits.exhaustive_gate_message ~who:"Sweep.build" ~dim:over))
    (fun () -> ignore (Select.curve ~engine:`Exhaustive ~plans ()));
  let over_bnb = Limits.bnb_max_dim + 1 in
  let plans = [| Array.make over_bnb 1. |] in
  Alcotest.check_raises "forced bnb past the gate"
    (Invalid_argument
       (Limits.bnb_gate_message ~who:"Sweep.Bnb.build" ~dim:over_bnb))
    (fun () -> ignore (Select.curve ~engine:`Bnb ~plans ()));
  Alcotest.check_raises "expected_costs sub-1 delta"
    (Invalid_argument "Select.expected_costs: delta < 1") (fun () ->
      ignore
        (Select.expected_costs
           ~kernel:(Kernel.pack [| [| 1. |] |])
           ~center:[| 1. |] ~delta:0.5));
  Alcotest.check_raises "estimate sub-1 delta"
    (Invalid_argument "Select.estimate: delta < 1") (fun () ->
      ignore (Select.estimate ~plans:[| [| 1. |] |] ~delta:0.5 ()))

let () =
  Alcotest.run "select"
    [
      ( "rules",
        [
          QCheck_alcotest.to_alcotest prop_point_box_collapse;
          QCheck_alcotest.to_alcotest prop_lec_is_classic;
          Alcotest.test_case "minimax beats classic" `Quick
            test_minimax_beats_classic;
        ] );
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest prop_select_bits;
          QCheck_alcotest.to_alcotest prop_select_bits_degenerate;
          QCheck_alcotest.to_alcotest prop_select_bits_adversarial;
          Alcotest.test_case "dim-12 tiers" `Quick test_dim12_tiers;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_reference_bits;
          QCheck_alcotest.to_alcotest prop_reference_bits_degenerate;
          QCheck_alcotest.to_alcotest prop_reference_bits_adversarial;
          Alcotest.test_case "beyond the exhaustive gate" `Quick
            test_reference_beyond_exhaustive;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget fallback cells" `Quick
            test_budget_fallback_cells;
          Alcotest.test_case "monte-carlo floor" `Quick test_estimate_floor;
        ] );
      ("gates", [ Alcotest.test_case "arguments" `Quick test_gates ]);
    ]
