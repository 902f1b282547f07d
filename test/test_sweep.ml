(* Tier-1 tests for the flat cost kernel (Qsens_linalg.Kernel) and the
   separable delta-sweep cache (Qsens_core.Sweep).

   The load-bearing property is *bit-identity*: the kernel-path
   [Worst_case.curve] must agree with its naive reference down to the
   last IEEE bit — same gtc, same witness vertex, same argmax ties —
   sequentially and under pools of 1, 2 and 3 domains, including
   all-degenerate NaN plan sets. *)

open Qsens_core
open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool

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

let same_vec a b =
  Vec.dim a = Vec.dim b && Array.for_all2 same_float a b

let check_bits =
  Alcotest.testable (fun ppf f -> Format.fprintf ppf "%h" f) same_float

(* ------------------------------------------------------------------ *)
(* Vec micro-fixes *)

let test_dot_sub () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let x = [| 0.5; 0.25; 4. |] in
  Alcotest.check check_bits "prefix slice"
    (Vec.dot [| 1.; 2.; 3. |] x)
    (Vec.dot_sub a 0 3 x);
  Alcotest.check check_bits "inner slice"
    (Vec.dot [| 3.; 4.; 5. |] x)
    (Vec.dot_sub a 2 3 x);
  Alcotest.check check_bits "empty slice" 0. (Vec.dot_sub a 6 0 [||]);
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Vec.dot_sub: slice [4, 7) outside array of length 6")
    (fun () -> ignore (Vec.dot_sub a 4 3 x));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.dot_sub: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot_sub a 0 2 x))

let test_check_dims_names () =
  (* Every public binary operation must raise with its own name — not a
     shared internal one — so the failing call site is identifiable. *)
  let a = [| 1.; 2. |] and b = [| 1.; 2.; 3. |] in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument
           (Printf.sprintf "Vec.%s: dimension mismatch (2 vs 3)" name))
        (fun () -> ignore (f a b)))
    [
      ("dot", fun a b -> [| Vec.dot a b |]);
      ("add", Vec.add);
      ("sub", Vec.sub);
      ("map2", Vec.map2 ( +. ));
    ]

(* ------------------------------------------------------------------ *)
(* Kernel: packing and blocked matvec *)

let gen_matrix =
  QCheck.Gen.(
    int_range 1 9 >>= fun rows ->
    int_range 1 7 >>= fun cols ->
    pair
      (array_size (return rows)
         (array_size (return cols) (float_range (-10.) 10.)))
      (array_size (return cols) (float_range (-10.) 10.)))

let prop_matvec_bits =
  QCheck.Test.make ~count:200 ~name:"Kernel: matvec == per-row Vec.dot"
    (QCheck.make gen_matrix) (fun (plans, x) ->
      let t = Kernel.pack plans in
      let out = Vec.zero (Array.length plans) in
      Kernel.matvec t x out;
      Array.for_all2
        (fun row y ->
          same_float (Vec.dot row x) y
          && same_float (Kernel.dot_row t (Array.length plans - 1) x)
               (Vec.dot plans.(Array.length plans - 1) x))
        plans out)

let test_kernel_shapes () =
  let t = Kernel.pack [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  Alcotest.(check int) "rows" 3 (Kernel.rows t);
  Alcotest.(check int) "cols" 2 (Kernel.cols t);
  Alcotest.(check (float 0.)) "get" 4. (Kernel.get t 1 1);
  Alcotest.(check bool) "row copy" true (same_vec [| 5.; 6. |] (Kernel.row t 2));
  let empty = Kernel.pack [||] in
  Alcotest.(check int) "empty rows" 0 (Kernel.rows empty);
  Alcotest.check_raises "ragged"
    (Invalid_argument "Kernel.pack: row 1 has 1 columns, expected 2") (fun () ->
      ignore (Kernel.pack [| [| 1.; 2. |]; [| 3. |] |]));
  Alcotest.check_raises "matvec dim"
    (Invalid_argument "Kernel.matvec: vector has dimension 1, expected 2")
    (fun () -> Kernel.matvec t [| 1. |] (Vec.zero 3))

(* ------------------------------------------------------------------ *)
(* Sweep golden test: hand-computed A/B tables on the Section-4 style
   2-plan, 2-resource example. *)

let test_sweep_golden_tables () =
  (* Resources (c1, c2) = (2, 3); plan U = (1, 4), initial A = (5, 7).
     Weights u_i * c_i: plan (2, 12), initial (10, 21).  Patterns index
     bit i -> component i at c_i * delta:
       pattern 00: A = 0,      B = 2 + 12 = 14
       pattern 01: A = 2,      B = 12
       pattern 10: A = 12,     B = 2
       pattern 11: A = 14,     B = 0 *)
  let plans = [| [| 1.; 4. |]; [| 5.; 7. |] |] in
  let initial = [| 5.; 7. |] in
  let center = [| 2.; 3. |] in
  let t = Sweep.build ~plans ~initial ~center () in
  Alcotest.(check int) "dim" 2 (Sweep.dim t);
  Alcotest.(check int) "patterns" 4 (Sweep.num_patterns t);
  List.iter
    (fun (pattern, a, b) ->
      Alcotest.check check_bits
        (Printf.sprintf "A at %d" pattern)
        a
        (Sweep.plan_a t ~plan:0 ~pattern);
      Alcotest.check check_bits
        (Printf.sprintf "B at %d" pattern)
        b
        (Sweep.plan_b t ~plan:0 ~pattern))
    [ (0, 0., 14.); (1, 2., 12.); (2, 12., 2.); (3, 14., 0.) ];
  List.iter
    (fun (pattern, a, b) ->
      Alcotest.check check_bits
        (Printf.sprintf "initial A at %d" pattern)
        a
        (Sweep.initial_a t ~pattern);
      Alcotest.check check_bits
        (Printf.sprintf "initial B at %d" pattern)
        b
        (Sweep.initial_b t ~pattern))
    [ (0, 0., 31.); (1, 10., 21.); (2, 21., 10.); (3, 31., 0.) ];
  (* Vertex values at delta = 2: cost = 2A + B/2. *)
  let delta = 2. in
  let inv = 1. /. delta in
  Alcotest.check check_bits "vertex value 01" 10.
    (Sweep.vertex_value ~delta ~inv
       (Sweep.plan_a t ~plan:0 ~pattern:1)
       (Sweep.plan_b t ~plan:0 ~pattern:1));
  (* The eval result must match the direct vertex-enumeration maximum. *)
  let gtc, pattern = Sweep.eval t ~delta in
  let box = Box.around center ~delta in
  let expect, expect_k =
    let best = ref neg_infinity and bk = ref (-1) in
    for k = 0 to 3 do
      let v = Box.vertex box k in
      let r = Vec.dot initial v /. Vec.dot plans.(0) v in
      if r > !best then begin
        best := r;
        bk := k
      end
    done;
    (!best, !bk)
  in
  Alcotest.(check (float 1e-12)) "eval matches direct vertex max" expect gtc;
  Alcotest.(check int) "witness pattern" expect_k pattern

let test_sweep_pruning () =
  (* Plan 2 is dominated by plan 1 (componentwise cheaper): it must be
     pruned, leave the result unchanged, and asking for its table must
     raise.  The degenerate zero plan is never pruned. *)
  let plans = [| [| 3.; 1. |]; [| 1.; 2. |]; [| 2.; 3. |]; [| 0.; 0. |] |] in
  let initial = [| 3.; 1. |] in
  let center = [| 1.; 1. |] in
  let t = Sweep.build ~plans ~initial ~center () in
  Alcotest.(check (list int)) "kept" [ 0; 1; 3 ]
    (Array.to_list (Sweep.kept t));
  Alcotest.check_raises "pruned plan table"
    (Invalid_argument "Sweep: plan 2 was pruned") (fun () ->
      ignore (Sweep.plan_a t ~plan:2 ~pattern:0));
  let unpruned = Sweep.build ~prune:false ~plans ~initial ~center () in
  List.iter
    (fun delta ->
      let g1, k1 = Sweep.eval t ~delta in
      let g2, k2 = Sweep.eval unpruned ~delta in
      Alcotest.check check_bits "same gtc" g2 g1;
      Alcotest.(check int) "same witness pattern" k2 k1)
    [ 1.; 3.; 10.; 1000. ]

(* ------------------------------------------------------------------ *)
(* Bit-identity: kernel curve vs naive rebuild, all pool sizes *)

let gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    int_range dim_lo dim_hi >>= fun m ->
    int_range plans_lo plans_hi >>= fun k ->
    array_size (return k) (array_size (return m) (float_range 0.1 10.))
    >>= fun plans ->
    if not degenerate then return plans
    else
      int_range 0 (k - 1) >>= fun zi ->
      bool >>= fun zero_initial ->
      let plans = Array.map Array.copy plans in
      plans.(zi) <- Array.make m 0.;
      if zero_initial then plans.(0) <- Array.make m 0.;
      return plans)

let deltas = [ 1.; 2.; 10.; 177.; 10_000. ]

let same_points ps qs =
  List.length ps = List.length qs
  && List.for_all2
       (fun (p : Worst_case.point) (q : Worst_case.point) ->
         same_float p.delta q.delta
         && same_float p.gtc q.gtc
         && same_vec p.witness q.witness)
       ps qs

let curve_property plans =
  let initial = plans.(0) in
  let reference = Worst_case.curve_naive ~deltas ~plans ~initial () in
  same_points reference (Worst_case.curve ~deltas ~plans ~initial ())
  && List.for_all
       (fun pool ->
         same_points reference
           (Worst_case.curve ~deltas ~pool ~plans ~initial ())
         && same_points reference
              (Worst_case.curve_naive ~deltas ~pool ~plans ~initial ()))
       [ pool1; pool2; pool3 ]
  (* Single-delta queries must return the matching curve point bits. *)
  && List.for_all
       (fun p ->
         let open Worst_case in
         let g, w = (p.gtc, p.witness) in
         let g', w' = gtc_at_full ~plans ~initial p.delta in
         same_float g g' && same_vec w w')
       reference

let prop_curve_bits =
  QCheck.Test.make ~count:60 ~name:"curve: kernel == naive, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    curve_property

let prop_curve_bits_degenerate =
  QCheck.Test.make ~count:60
    ~name:"curve: kernel == naive with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:5 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    curve_property

(* The linear-fractional curve under a pool must reproduce the
   sequential run bit for bit: gtc, witness corner, and the NaN and
   centre-witness answer of zero-usage plans. *)
let prop_legacy_pools =
  QCheck.Test.make ~count:300 ~name:"curve_legacy: pools 2/3 == sequential"
    (QCheck.make
       QCheck.Gen.(
         bool >>= fun degenerate ->
         gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8 ~degenerate))
    (fun plans ->
      let initial = plans.(0) in
      let seq = Worst_case.curve_legacy ~deltas ~plans ~initial () in
      List.for_all
        (fun pool ->
          same_points seq
            (Worst_case.curve_legacy ~deltas ~pool ~plans ~initial ()))
        [ pool2; pool3 ])

let test_all_degenerate () =
  (* Every plan zero-usage and a zero initial: NaN gtc with the box
     center as witness, on both paths, every pool size. *)
  let plans = [| Array.make 3 0.; Array.make 3 0. |] in
  Alcotest.(check bool) "all-degenerate curves agree" true
    (curve_property plans);
  let p =
    List.hd (Worst_case.curve ~deltas:[ 10. ] ~plans ~initial:plans.(0) ())
  in
  Alcotest.(check bool) "gtc is NaN" true (Float.is_nan p.Worst_case.gtc);
  let box = Box.around (Vec.make 3 1.) ~delta:10. in
  Alcotest.(check bool) "witness is center" true
    (same_vec (Box.center box) p.Worst_case.witness)

(* ------------------------------------------------------------------ *)
(* Branch-and-bound path (Sweep.Bnb / Worst_case.curve_pruned) *)

let test_bnb_golden_node_count () =
  (* Same Section-4 style example as the golden tables; initial = plan 1,
     so plan 1 is dominated by plan 0 and pruned.  Weights: plan (2, 12),
     initial (10, 21); delta = 2 leaves (ascending pattern order):
       k=0: 15.5/7   k=1: 30.5/10 = 3.05   k=2: 47/25   k=3: 62/28.
     With no incumbent the root and the clear-bit-1 node are entered;
     leaf k=0 sets the incumbent to 15.5/7 and leaf k=1 raises it to
     3.05.  At the set-bit-1 node (partial sums 42 over 24) coordinate 0
     has 10 > 3.05 * 2, so its threshold completion sets it: the bound
     62/28 = 2.21 < 3.05 prunes.  Five nodes, two leaves. *)
  let plans = [| [| 1.; 4. |]; [| 5.; 7. |] |] in
  let initial = [| 5.; 7. |] in
  let center = [| 2.; 3. |] in
  let t = Sweep.Bnb.build ~plans ~initial ~center () in
  Alcotest.(check (list int)) "plan 1 pruned" [ 0 ]
    (Array.to_list (Sweep.Bnb.kept t));
  let (gtc, pattern), (nodes, leaves) =
    Sweep.Bnb.eval_with_stats t ~delta:2.
  in
  let ref_gtc, ref_pattern =
    Sweep.eval (Sweep.build ~plans ~initial ~center ()) ~delta:2.
  in
  Alcotest.check check_bits "gtc matches exhaustive" ref_gtc gtc;
  Alcotest.(check int) "witness pattern" ref_pattern pattern;
  Alcotest.(check int) "pattern is 1" 1 pattern;
  Alcotest.(check int) "visited nodes" 5 nodes;
  Alcotest.(check int) "evaluated leaves" 2 leaves

let test_bnb_inert_coordinate () =
  (* The golden example with a third coordinate that both plans and the
     initial leave at zero: it is never branched, so the search visits
     one node more (the root on that coordinate) and the same two
     leaves, with the same answer. *)
  let plans = [| [| 1.; 4.; 0. |]; [| 5.; 7.; 0. |] |] in
  let initial = [| 5.; 7.; 0. |] in
  let center = [| 2.; 3.; 1. |] in
  let t = Sweep.Bnb.build ~plans ~initial ~center () in
  let (gtc, pattern), (nodes, leaves) =
    Sweep.Bnb.eval_with_stats t ~delta:2.
  in
  let ref_gtc, ref_pattern =
    Sweep.eval (Sweep.build ~plans ~initial ~center ()) ~delta:2.
  in
  Alcotest.check check_bits "gtc matches exhaustive" ref_gtc gtc;
  Alcotest.(check int) "witness pattern" ref_pattern pattern;
  Alcotest.(check int) "visited nodes" 6 nodes;
  Alcotest.(check int) "evaluated leaves" 2 leaves

let test_limit_gates () =
  (* One constant feeds every gate; the exhaustive message names the
     branch-and-bound escape hatch. *)
  Alcotest.(check int) "sweep gate" Limits.exhaustive_max_dim Sweep.max_dim;
  Alcotest.(check int) "bnb gate" Limits.bnb_max_dim Sweep.Bnb.max_dim;
  let over = Limits.exhaustive_max_dim + 1 in
  let mk m = (Array.make m 1., Array.make m 1.) in
  let initial, center = mk over in
  Alcotest.check_raises "exhaustive gate"
    (Invalid_argument
       (Limits.exhaustive_gate_message ~who:"Sweep.build" ~dim:over))
    (fun () ->
      ignore (Sweep.build ~plans:[| initial |] ~initial ~center ()));
  let over_bnb = Limits.bnb_max_dim + 1 in
  let initial, center = mk over_bnb in
  Alcotest.check_raises "bnb gate"
    (Invalid_argument
       (Limits.bnb_gate_message ~who:"Sweep.Bnb.build" ~dim:over_bnb))
    (fun () ->
      ignore (Sweep.Bnb.build ~plans:[| initial |] ~initial ~center ()))

(* Messy (non-ones) centers: the pruned argmax must reproduce the
   exhaustive bits at every delta — including delta = 1, where both
   paths take the collapsed-box shortcut. *)
let same_result (g, k) (g', k') =
  (same_float g g' || (Float.is_nan g && Float.is_nan g')) && k = k'

let bnb_eval_property (plans, center) =
  let initial = plans.(0) in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  List.for_all
    (fun delta ->
      same_result (Sweep.eval sweep ~delta) (Sweep.Bnb.eval bnb ~delta))
    deltas

let bnb_curve_property plans =
  let initial = plans.(0) in
  let reference = Worst_case.curve ~deltas ~plans ~initial () in
  List.for_all
    (fun pool ->
      same_points reference
        (Worst_case.curve_pruned ~deltas ?pool ~plans ~initial ()))
    [ None; Some pool1; Some pool2; Some pool3 ]

let gen_plan_set_center ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate =
  QCheck.Gen.(
    gen_plan_set ~dim_lo ~dim_hi ~plans_lo ~plans_hi ~degenerate
    >>= fun plans ->
    array_size
      (return (Array.length plans.(0)))
      (float_range 0.1 10.)
    >>= fun center -> return (plans, center))

let prop_bnb_eval_bits =
  QCheck.Test.make ~count:60
    ~name:"Sweep.Bnb: eval == exhaustive eval, messy centers"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    bnb_eval_property

let prop_bnb_eval_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"Sweep.Bnb: eval == exhaustive eval, zero-usage plans"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    bnb_eval_property

let prop_bnb_curve_bits =
  QCheck.Test.make ~count:40
    ~name:"curve_pruned == curve, pools 1/2/3"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    bnb_curve_property

let prop_bnb_curve_bits_degenerate =
  QCheck.Test.make ~count:30
    ~name:"curve_pruned == curve with zero-usage plans"
    (QCheck.make
       (gen_plan_set ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    bnb_curve_property

(* ------------------------------------------------------------------ *)
(* The incremental grid (one of the paths BENCH_kernel.json measures)
   must reproduce the per-point bits exactly, cold or warm scratch. *)

let grid_deltas = [| 1.; 1.5; 2.; 10.; 177.; 10_000. |]

let grid_property (plans, center) =
  let initial = plans.(0) in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let n = Array.length grid_deltas in
  let gtc = Float.Array.make n 0. in
  let patterns = Array.make n 0 in
  let scratch = Sweep.Scratch.create () in
  let ok = ref true in
  (* Two passes through one scratch: the cold fill and the warm reuse
     must both match per-point eval. *)
  for _pass = 0 to 1 do
    Sweep.eval_grid ~scratch sweep ~deltas:grid_deltas ~gtc ~patterns;
    Array.iteri
      (fun i delta ->
        let g, k = Sweep.eval sweep ~delta in
        if not (same_float g (Float.Array.get gtc i) && k = patterns.(i))
        then ok := false)
      grid_deltas
  done;
  !ok

let prop_grid_bits =
  QCheck.Test.make ~count:60
    ~name:"eval_grid == per-point eval, shared scratch"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:10 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    grid_property

let prop_grid_bits_degenerate =
  QCheck.Test.make ~count:40
    ~name:"eval_grid == per-point eval, zero-usage plans"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:6 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    grid_property

(* ------------------------------------------------------------------ *)
(* Adversarial magnitudes (test/adversarial.ml): the grid's division
   filter and the shared-denominator regret kernel must both reproduce
   per-point [eval] where products overflow to +inf, vertex costs
   underflow to 0, and [0/0] and [inf/inf] ratios appear. *)

let gen_adversarial_sweep ~dim_hi =
  QCheck.Gen.(
    Adversarial.gen_plans ~dim_hi ~plans_hi:6 >>= fun plans ->
    let m = Array.length plans.(0) in
    oneof
      [
        return plans.(0);
        return (Array.make m 0.);
        array_size (return m) Adversarial.gen_weight;
      ]
    >>= fun initial ->
    oneof [ return (Vec.make m 1.); array_size (return m) (float_range 0.1 10.) ]
    >>= fun center ->
    Adversarial.gen_deltas >>= fun deltas ->
    bool >>= fun prune -> return (plans, initial, center, deltas, prune))

let print_adversarial_sweep (plans, initial, center, deltas, prune) =
  Printf.sprintf "%s, initial %s, center %s, prune %b"
    (Adversarial.print_case plans deltas)
    (Adversarial.print_case [| initial |] [])
    (Adversarial.print_case [| center |] [])
    prune

let prop_grid_bits_adversarial =
  QCheck.Test.make ~count:400
    ~name:"eval_grid == per-point eval, adversarial magnitudes"
    (QCheck.make ~print:print_adversarial_sweep
       (gen_adversarial_sweep ~dim_hi:5))
    (fun (plans, initial, center, deltas, prune) ->
      let sweep = Sweep.build ~prune ~plans ~initial ~center () in
      let deltas = Array.of_list deltas in
      let n = Array.length deltas in
      let gtc = Float.Array.make n 0. and patterns = Array.make n 0 in
      Sweep.eval_grid sweep ~deltas ~gtc ~patterns;
      let ok = ref true in
      Array.iteri
        (fun i delta ->
          let g, k = Sweep.eval sweep ~delta in
          if not (same_float g (Float.Array.get gtc i) && k = patterns.(i))
          then ok := false)
        deltas;
      !ok)

let test_grid_overflowing_numerator () =
  (* The first vertex sets the incumbent to 1e308; at the second the
     numerator overflows to +inf, and so does the filter's product
     [thr *. den]: the unguarded [not (num <= thr *. den)] test skipped
     the +inf ratio and reported 1e308. *)
  let plans = [| [| 1. |] |] and initial = [| 1e308 |] in
  let center = [| 1. |] in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let gtc = Float.Array.make 1 0. and patterns = Array.make 1 0 in
  Sweep.eval_grid sweep ~deltas:[| 10. |] ~gtc ~patterns;
  let g, k = Sweep.eval sweep ~delta:10. in
  Alcotest.check check_bits "eval is +inf" infinity g;
  Alcotest.check check_bits "grid == eval" g (Float.Array.get gtc 0);
  Alcotest.(check int) "same pattern" k patterns.(0);
  let curve = Worst_case.curve ~deltas:[ 10. ] ~plans ~initial () in
  let naive = Worst_case.curve_naive ~deltas:[ 10. ] ~plans ~initial () in
  Alcotest.(check bool) "curve == curve_naive" true (same_points naive curve)

let test_grid_subnormal_numerator () =
  (* With u = 2^-1074, plan 0 sets the incumbent to 6u; plan 1's first
     vertex has numerator 2u over cost 0.25, ratio 8u.  The filter's
     product [thr *. den] = 1.5u rounds up to 2u in the subnormal range,
     so the unguarded test skipped that vertex and took the same ratio
     one vertex later: the right value, the wrong witness. *)
  let u = 0x1p-1074 in
  let plans = [| [| 2. /. 3. |]; [| 0.5 |] |] and initial = [| 4. *. u |] in
  let sweep = Sweep.build ~plans ~initial ~center:[| 1. |] () in
  let gtc = Float.Array.make 1 0. and patterns = Array.make 1 0 in
  Sweep.eval_grid sweep ~deltas:[| 2. |] ~gtc ~patterns;
  let g, k = Sweep.eval sweep ~delta:2. in
  Alcotest.check check_bits "eval is 8u" (8. *. u) g;
  Alcotest.(check int) "eval's witness is the first vertex" 0 k;
  Alcotest.check check_bits "grid == eval" g (Float.Array.get gtc 0);
  Alcotest.(check int) "same witness" k patterns.(0)

(* Per-candidate [eval] on a sweep built with each candidate as the
   initial: the reference [regret_grid] must reproduce bit for bit. *)
let regret_reference ~prune ~plans ~center ~initials ~deltas =
  Array.map
    (fun delta ->
      Array.map
        (fun initial ->
          fst (Sweep.eval (Sweep.build ~prune ~plans ~initial ~center ()) ~delta))
        initials)
    deltas

let regret_property (plans, initials, center, deltas, prune) =
  let deltas = Array.of_list deltas in
  let expect = regret_reference ~prune ~plans ~center ~initials ~deltas in
  let base = Sweep.build ~prune ~plans ~initial:plans.(0) ~center () in
  let out =
    Array.map (fun _ -> Array.make (Array.length initials) 0.) deltas
  in
  let scratch = Sweep.Scratch.create () in
  (* Cold and warm scratch alike. *)
  List.for_all
    (fun () ->
      Sweep.regret_grid ~scratch base ~initials ~deltas ~out;
      Array.for_all2
        (fun e o -> Array.for_all2 same_float e o)
        expect out)
    [ (); () ]

let gen_regret_case gen_plans gen_weight gen_deltas =
  QCheck.Gen.(
    gen_plans >>= fun plans ->
    let m = Array.length plans.(0) in
    int_range 0 3 >>= fun extra ->
    list_size (return extra) (array_size (return m) gen_weight)
    >>= fun extra ->
    let initials =
      Array.append plans (Array.of_list (Array.make m 0. :: extra))
    in
    oneof [ return (Vec.make m 1.); array_size (return m) (float_range 0.1 10.) ]
    >>= fun center ->
    gen_deltas >>= fun deltas ->
    bool >>= fun prune -> return (plans, initials, center, deltas, prune))

let prop_regret_bits =
  QCheck.Test.make ~count:60
    ~name:"regret_grid == per-candidate eval"
    (QCheck.make
       (gen_regret_case
          (gen_plan_set ~dim_lo:1 ~dim_hi:8 ~plans_lo:1 ~plans_hi:10
             ~degenerate:true)
          (QCheck.Gen.float_range 0. 10.)
          (QCheck.Gen.return deltas)))
    regret_property

let prop_regret_bits_adversarial =
  QCheck.Test.make ~count:400
    ~name:"regret_grid == per-candidate eval, adversarial magnitudes"
    (QCheck.make
       ~print:(fun (plans, initials, _, deltas, _) ->
         Adversarial.print_case plans deltas ^ ", initials "
         ^ Adversarial.print_case initials [])
       (gen_regret_case
          (Adversarial.gen_plans ~dim_hi:5 ~plans_hi:6)
          Adversarial.gen_weight Adversarial.gen_deltas))
    regret_property

let test_regret_counters_and_budget () =
  (* Counters as the per-candidate evals count them, and the budget
     charged in one checkpoint: exactly their total fits, one unit less
     trips before anything is written or counted. *)
  let module B = Qsens_budget.Budget in
  let plans =
    [| [| 1.; 4.; 2. |]; [| 0.; 0.; 0. |]; [| 5.; 1.; 1. |]; [| 2.; 2.; 2. |] |]
  in
  let initials = Array.append plans [| [| 0.; 0.; 0. |] |] in
  let center = [| 1.; 2.; 0.5 |] in
  let deltas = [| 1.; 3.; 100. |] in
  let counters f =
    match Obs_totals.run [ "sweep.evals"; "wc.degenerate_ratios" ] f with
    | Ok (), totals -> totals
    | Error e, _ -> Alcotest.fail e
  in
  let total = ref 0 in
  let expected =
    counters (fun () ->
        Array.iter
          (fun delta ->
            Array.iter
              (fun initial ->
                let b = B.create max_int in
                let sw = Sweep.build ~plans ~initial ~center () in
                ignore (Sweep.eval ~budget:b sw ~delta : float * int);
                total := !total + B.spent b)
              initials)
          deltas)
  in
  let base = Sweep.build ~plans ~initial:plans.(0) ~center () in
  let out = Array.map (fun _ -> Array.make (Array.length initials) 0.) deltas in
  let b = B.create !total in
  let got =
    counters (fun () -> Sweep.regret_grid ~budget:b base ~initials ~deltas ~out)
  in
  Alcotest.(check (list int)) "counters" expected got;
  Alcotest.(check int) "charged the evals' total" !total (B.spent b);
  let short = B.create (!total - 1) in
  let out' = Array.map (fun _ -> Array.make (Array.length initials) 7.) deltas in
  let tripped =
    counters (fun () ->
        match Sweep.regret_grid ~budget:short base ~initials ~deltas ~out:out' with
        | () -> Alcotest.fail "expected Exhausted"
        | exception B.Exhausted { asked; _ } ->
            Alcotest.(check int) "one checkpoint" !total asked)
  in
  Alcotest.(check (list int)) "nothing counted" [ 0; 0 ] tripped;
  Alcotest.(check int) "nothing spent" 0 (B.spent short);
  Alcotest.(check bool) "nothing written" true
    (Array.for_all (Array.for_all (fun x -> x = 7.)) out')

let test_regret_allocation () =
  (* The allocation guard: with a warm scratch and caller-owned output
     the kernel allocates no minor words per (candidate, delta) cell. *)
  let m = 8 and np = 12 in
  let rand = Random.State.make [| 5; m |] in
  let plans =
    Array.init np (fun _ ->
        Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
  in
  let center = Vec.make m 1. in
  let deltas = Array.of_list Worst_case.default_deltas in
  let base = Sweep.build ~plans ~initial:plans.(0) ~center () in
  let out = Array.map (fun _ -> Array.make np 0.) deltas in
  (* Wrapped once: passing [~scratch] would allocate its [Some] per call. *)
  let scratch = Some (Sweep.Scratch.create ()) in
  let run () = Sweep.regret_grid ?scratch base ~initials:plans ~deltas ~out in
  run ();
  let reps = 20 in
  let (), minor, _ =
    Qsens_obs.Obs.measure_alloc
      ~n:(reps * np * Array.length deltas)
      (fun () ->
        for _ = 1 to reps do
          run ()
        done)
  in
  Printf.printf "regret_grid: %.4f minor words per cell\n" minor;
  Alcotest.(check bool) "<= 0.01 minor words per cell" true (minor <= 0.01)

(* ------------------------------------------------------------------ *)
(* The branch-and-bound engine against its predecessor (test/bnb_ref.ml:
   the boxed search with the all-delta over all-1/delta bound and the
   warm start).  The threshold bound may only change node counts: values
   and witness patterns must be the reference's, and the exhaustive
   sweep's wherever it is defined. *)

module B = Qsens_budget.Budget

(* Unbudgeted, then under exactly its node count (same result, that
   count spent) and one unit less (trips). *)
let budgeted_agrees bnb ~delta ((g, k), (nodes, _)) =
  let exact = B.create nodes in
  let fits = same_result (Sweep.Bnb.eval ~budget:exact bnb ~delta) (g, k) in
  let trips =
    nodes = 0
    ||
    match Sweep.Bnb.eval ~budget:(B.create (nodes - 1)) bnb ~delta with
    | _ -> false
    | exception B.Exhausted _ -> true
  in
  fits && B.spent exact = nodes && trips

let reference_property (plans, center) =
  let initial = plans.(0) in
  let m = Array.length center in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let reference = Bnb_ref.build ~plans ~initial ~center () in
  let sweep =
    if Sweep.supported ~dim:m then Some (Sweep.build ~plans ~initial ~center ())
    else None
  in
  List.for_all
    (fun delta ->
      let ((got, _) as full) = Sweep.Bnb.eval_with_stats bnb ~delta in
      same_result got (Bnb_ref.eval reference ~delta)
      && (match sweep with
         | Some sw -> same_result got (Sweep.eval sw ~delta)
         | None -> true)
      && budgeted_agrees bnb ~delta full)
    deltas

let prop_bnb_reference =
  QCheck.Test.make ~count:300
    ~name:"ordinary plans: == reference == eval, dims 2-14"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:14 ~plans_lo:2 ~plans_hi:10
          ~degenerate:false))
    reference_property

let prop_bnb_reference_degenerate =
  QCheck.Test.make ~count:200
    ~name:"zero-usage plans: == reference == eval, dims 2-14"
    (QCheck.make
       (gen_plan_set_center ~dim_lo:2 ~dim_hi:14 ~plans_lo:2 ~plans_hi:8
          ~degenerate:true))
    reference_property

(* Cells checked, and cells where the reference and the engine each
   disagree with [Sweep.eval]; reported by the test after the property.
   The engine must agree on every cell; the reference's count is logged
   for comparison. *)
let adversarial_cells = ref (0, 0, 0)

let prop_bnb_adversarial =
  QCheck.Test.make ~count:3000
    ~name:"adversarial magnitudes: wrong only where the reference is"
    (QCheck.make ~print:print_adversarial_sweep
       (gen_adversarial_sweep ~dim_hi:8))
    (fun (plans, initial, center, deltas, prune) ->
      let sweep = Sweep.build ~prune ~plans ~initial ~center () in
      let bnb = Sweep.Bnb.build ~prune ~plans ~initial ~center () in
      let reference = Bnb_ref.build ~prune ~plans ~initial ~center () in
      List.for_all
        (fun delta ->
          let want = Sweep.eval sweep ~delta in
          let ref_ok = same_result (Bnb_ref.eval reference ~delta) want in
          let ok = same_result (Sweep.Bnb.eval bnb ~delta) want in
          let cells, ref_bad, bad = !adversarial_cells in
          adversarial_cells :=
            ( cells + 1,
              (if ref_ok then ref_bad else ref_bad + 1),
              if ok then bad else bad + 1 );
          ok)
        deltas)

let test_bnb_adversarial_counts () =
  let cells, ref_bad, bad = !adversarial_cells in
  Printf.printf
    "adversarial cells: %d; disagreeing with Sweep.eval: reference %d, \
     engine %d\n"
    cells ref_bad bad;
  Alcotest.(check bool) "property ran" true (cells > 0);
  Alcotest.(check int) "engine disagreements" 0 bad

let test_bnb_identical_out_of_range () =
  (* Plan 3 is bitwise the initial plan.  At delta = 2 its weight
     5e-324 halves to 0, so its pattern 0 is 0/0 and its pattern 1 is
     exactly 1: the identical-spec shortcut, which scores pattern 0
     alone, may only run in range.  Plan 1 ([0.25]) then scores 2e-323
     at pattern 1, the answer a shortcut out of range returned. *)
  let plans = [| [| 8. |]; [| 0.25 |]; [| 1. |]; [| 5e-324 |] |] in
  let initial = plans.(3) and center = [| 1. |] and delta = 2. in
  let want = Sweep.eval (Sweep.build ~plans ~initial ~center ()) ~delta in
  Alcotest.check check_bits "exhaustive gtc" 1. (fst want);
  let got =
    Sweep.Bnb.eval (Sweep.Bnb.build ~plans ~initial ~center ()) ~delta
  in
  Alcotest.check check_bits "bnb gtc" 1. (fst got);
  Alcotest.(check int) "bnb pattern" (snd want) (snd got);
  let regrets engine =
    match Select.curve ~deltas:[ delta ] ~engine ~plans () with
    | [ p ], _ -> p.Select.regret
    | _ -> Alcotest.fail "one point expected"
  in
  let bnb = regrets `Bnb and exhaustive = regrets `Exhaustive in
  Alcotest.check check_bits "select regret of plan 3" 1. bnb.(3);
  Alcotest.(check bool) "select tiers agree" true
    (Array.for_all2 same_float bnb exhaustive)

let test_bnb_overflow_regression () =
  (* The numerator sums reach 1e308 and overflow to +inf at delta = 10.
     A bound that lets [inf <= lambda * inf] prune can drop the first
     infinite leaf (pattern 2): with both plans such a bound has
     reported pattern 4 (the reference gets this case right), and with
     the first plan alone it loses every infinite leaf (the reference
     does too). *)
  let initial = [| 0.; 1e307; 1e307; 0. |] in
  let center = [| 5.5; 5.36; 2.44; 3.77 |] in
  let delta = 10. in
  let check ~reference_agrees name plans =
    let want = Sweep.eval (Sweep.build ~plans ~initial ~center ()) ~delta in
    Alcotest.check check_bits (name ^ ": exhaustive gtc") infinity (fst want);
    Alcotest.(check int) (name ^ ": exhaustive pattern") 2 (snd want);
    let reference =
      Bnb_ref.eval (Bnb_ref.build ~plans ~initial ~center ()) ~delta
    in
    Alcotest.(check bool) (name ^ ": reference agrees") reference_agrees
      (same_result reference want);
    let got =
      Sweep.Bnb.eval (Sweep.Bnb.build ~plans ~initial ~center ()) ~delta
    in
    Alcotest.check check_bits (name ^ ": gtc") infinity (fst got);
    Alcotest.(check int) (name ^ ": pattern") 2 (snd got)
  in
  check ~reference_agrees:true "both plans"
    [| [| 0.; 1.; 0.; 4. |]; [| 0.; 0.; 0.; 1. |] |];
  check ~reference_agrees:false "first plan alone" [| [| 0.; 1.; 0.; 4. |] |]

let budget_plans =
  [| [| 1.; 4.; 2.; 7. |]; [| 5.; 1.; 1.; 2. |]; [| 2.; 2.; 2.; 2. |] |]

let test_bnb_budget_contract () =
  (* Every allowance from zero past the node count: a search trips iff
     its allowance is below its node count; otherwise it returns the
     unbudgeted result bit for bit, having spent exactly that count. *)
  let plans = budget_plans and center = [| 1.; 2.; 0.5; 3. |] in
  let bnb = Sweep.Bnb.build ~plans ~initial:plans.(0) ~center () in
  let scratch = Sweep.Bnb.Scratch.create () in
  List.iter
    (fun delta ->
      let want, (nodes, _) = Sweep.Bnb.eval_with_stats bnb ~delta in
      for allowance = 0 to nodes + 1 do
        let budget = B.create allowance in
        let label = Printf.sprintf "delta %g allowance %d" delta allowance in
        match Sweep.Bnb.eval ~budget ~scratch bnb ~delta with
        | got ->
            Alcotest.(check bool) (label ^ " fits") true (allowance >= nodes);
            Alcotest.(check bool) (label ^ " result") true
              (same_result got want);
            Alcotest.(check int) (label ^ " spent") nodes (B.spent budget)
        | exception B.Exhausted _ ->
            Alcotest.(check bool) (label ^ " trips") true (allowance < nodes)
      done)
    [ 1.; 2.; 100. ]

let test_bnb_node_counts_deterministic () =
  (* Node counts are a function of the search and delta alone: a cold
     scratch, a warm one (bound to another search in between) and none
     all visit the same tree. *)
  let plans = budget_plans and center = [| 1.; 2.; 0.5; 3. |] in
  let base = Sweep.Bnb.build ~plans ~initial:plans.(0) ~center () in
  let other = Sweep.Bnb.rebind base ~initial:plans.(1) in
  let warm = Sweep.Bnb.Scratch.create () in
  List.iter
    (fun delta ->
      let none = Sweep.Bnb.eval_with_stats base ~delta in
      let cold =
        Sweep.Bnb.eval_with_stats ~scratch:(Sweep.Bnb.Scratch.create ()) base
          ~delta
      in
      ignore (Sweep.Bnb.eval ~scratch:warm other ~delta);
      let rebound = Sweep.Bnb.eval_with_stats ~scratch:warm base ~delta in
      let again = Sweep.Bnb.eval_with_stats ~scratch:warm base ~delta in
      List.iter
        (fun (name, (res, counts)) ->
          Alcotest.(check bool) (name ^ " result") true
            (same_result res (fst none));
          Alcotest.(check (pair int int)) (name ^ " counts") (snd none) counts)
        [ ("cold", cold); ("rebound", rebound); ("warm", again) ])
    [ 1.; 2.; 10.; 10_000. ]

let test_bnb_allocation () =
  (* With a warm scratch one eval allocates its result and nothing per
     spec or node: the same few words at 200 plans as at 20, at every
     delta. *)
  let words ~plans ~delta =
    let m = 14 in
    let rand = Random.State.make [| 3; plans |] in
    let plans =
      Array.init plans (fun _ ->
          Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
    in
    let bnb =
      Sweep.Bnb.build ~prune:false ~plans ~initial:plans.(0)
        ~center:(Vec.make m 1.) ()
    in
    let scratch = Some (Sweep.Bnb.Scratch.create ()) in
    let _, (nodes, _) = Sweep.Bnb.eval_with_stats ?scratch bnb ~delta in
    let reps = 5 in
    let (), minor, _ =
      Qsens_obs.Obs.measure_alloc ~n:reps (fun () ->
          for _ = 1 to reps do
            ignore (Sweep.Bnb.eval ?scratch bnb ~delta : float * int)
          done)
    in
    Printf.printf
      "Sweep.Bnb.eval: %d plans, delta %g, %d nodes: %.1f minor words\n"
      (Array.length plans) delta nodes minor;
    minor
  in
  let large = words ~plans:200 ~delta:100. in
  Alcotest.(check bool) "at most 32 words" true (large <= 32.);
  List.iter
    (fun (plans, delta) ->
      Alcotest.(check (float 0.)) "independent of specs and nodes" large
        (words ~plans ~delta))
    [ (20, 100.); (200, 2.); (200, 10_000.) ]

(* ------------------------------------------------------------------ *)
(* Adversarial near-ties: plan pairs whose vertex values differ only in
   the last few ulps.  Swapping two components of a plan ties its vertex
   sums exactly at the patterns symmetric in those components; a
   relative perturbation of ~1e-15 turns the ties into near-ties, the
   worst case for both the argmax tie-breaking (bit-identity must still
   hold) and the branch-and-bound pruning (bounds cannot separate the
   pair, so the search degenerates toward full enumeration — the node
   blowup we log below). *)

let bnb_blowup = ref (0, 0, 0) (* worst (dim, nodes, exhaustive vertices) *)

let gen_near_tie_pair =
  QCheck.Gen.(
    int_range 4 (min 10 Sweep.max_dim) >>= fun m ->
    array_size (return m) (float_range 0.5 2.) >>= fun base ->
    int_range 0 (m - 1) >>= fun i ->
    int_range 0 (m - 1) >>= fun j ->
    float_range (-1e-15) 1e-15 >>= fun eps ->
    bool >>= fun perturb_initial ->
    let near = Array.copy base in
    let tmp = near.(i) in
    near.(i) <- near.(j);
    near.(j) <- tmp;
    Array.iteri (fun k x -> near.(k) <- x *. (1. +. eps)) near;
    let initial =
      if perturb_initial then Array.map (fun x -> x *. (1. -. eps)) base
      else base
    in
    return ([| base; near |], initial))

let near_tie_property (plans, initial) =
  let m = Array.length initial in
  let center = Vec.make m 1. in
  let sweep = Sweep.build ~plans ~initial ~center () in
  let bnb = Sweep.Bnb.build ~plans ~initial ~center () in
  let scratch = Sweep.Bnb.Scratch.create () in
  List.for_all
    (fun delta ->
      let g, k = Sweep.eval sweep ~delta in
      let (g', k'), (nodes, _leaves) =
        Sweep.Bnb.eval_with_stats bnb ~delta
      in
      (* Near-ties are the worst case for the node-pool engine too: the
         bounds cannot separate the pair, so the walk-down loop and the
         cached bound-table selection get no help from pruning. *)
      let gf, kf = Sweep.Bnb.eval ~scratch bnb ~delta in
      let _, worst, _ = !bnb_blowup in
      if nodes > worst then
        bnb_blowup := (m, nodes, Array.length (Sweep.kept sweep) * (1 lsl m));
      (same_float g g' || (Float.is_nan g && Float.is_nan g'))
      && k = k'
      && (same_float g' gf || (Float.is_nan g' && Float.is_nan gf))
      && k' = kf)
    [ 1.; 2.; 10.; 177.; 10_000. ]

let prop_near_tie_bits =
  QCheck.Test.make ~count:120
    ~name:"Sweep.Bnb: near-tie plan pairs stay bit-identical"
    (QCheck.make gen_near_tie_pair)
    near_tie_property

let test_near_tie_blowup_logged () =
  (* Runs after the property above; report how bad the adversarial
     search got so regressions in pruning are visible in the test log. *)
  let dim, nodes, vertices = !bnb_blowup in
  Alcotest.(check bool) "property visited at least one search" true (nodes > 0);
  Printf.printf
    "near-tie blowup: worst search visited %d nodes at dim %d (exhaustive \
     scan: %d plan-vertices)\n"
    nodes dim vertices

let test_bnb_beyond_exhaustive () =
  (* Above the exhaustive gate the dispatcher must route through the
     branch-and-bound path; pin it to the pre-kernel bisection semantics
     within its tolerance, and to the single-delta query bits. *)
  let m = Sweep.max_dim + 2 in
  let rand = Random.State.make [| 23; m |] in
  let plans =
    Array.init 6 (fun _ ->
        Array.init m (fun _ -> 0.1 +. Random.State.float rand 9.9))
  in
  let initial = plans.(0) in
  Alcotest.(check string)
    "path" "branch-and-bound"
    (Worst_case.path_name ~dim:m);
  let deltas = [ 1.; 10.; 1000. ] in
  let pruned = Worst_case.curve ~deltas ~plans ~initial () in
  let legacy = Worst_case.curve_legacy ~deltas ~plans ~initial () in
  List.iter2
    (fun (p : Worst_case.point) (q : Worst_case.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "gtc within bisection tol at delta %g" p.delta)
        true
        (Float.abs (p.gtc -. q.gtc) <= 1e-9 *. Float.max 1. (Float.abs q.gtc));
      let g, w = Worst_case.gtc_at_full ~plans ~initial p.delta in
      Alcotest.check check_bits "gtc_at_full matches curve" p.gtc g;
      Alcotest.(check bool) "witness matches curve" true (same_vec p.witness w))
    pruned legacy

let test_curve_matches_legacy () =
  (* The kernel curve must agree with the pre-kernel bisection path
     within its tolerance — this pins the kernel to the original
     semantics, not merely to itself. *)
  let plans = [| [| 1.; 4.; 2. |]; [| 5.; 1.; 1. |]; [| 2.; 2.; 2. |] |] in
  let initial = plans.(0) in
  let kernel = Worst_case.curve ~plans ~initial () in
  let legacy = Worst_case.curve_legacy ~plans ~initial () in
  List.iter2
    (fun (p : Worst_case.point) (q : Worst_case.point) ->
      Alcotest.check check_bits "same delta" q.delta p.delta;
      Alcotest.(check bool)
        (Printf.sprintf "gtc within bisection tol at delta %g" p.delta)
        true
        (Float.abs (p.gtc -. q.gtc) <= 1e-9 *. Float.max 1. (Float.abs q.gtc)))
    kernel legacy

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "sweep"
    [
      ( "vec",
        [
          Alcotest.test_case "dot_sub" `Quick test_dot_sub;
          Alcotest.test_case "check_dims names" `Quick test_check_dims_names;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "shapes and errors" `Quick test_kernel_shapes;
          QCheck_alcotest.to_alcotest prop_matvec_bits;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "golden tables" `Quick test_sweep_golden_tables;
          Alcotest.test_case "dominance pruning" `Quick test_sweep_pruning;
          Alcotest.test_case "all degenerate" `Quick test_all_degenerate;
          Alcotest.test_case "kernel vs legacy" `Quick test_curve_matches_legacy;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "golden node count" `Quick
            test_bnb_golden_node_count;
          Alcotest.test_case "inert coordinate" `Quick
            test_bnb_inert_coordinate;
          Alcotest.test_case "limit gates" `Quick test_limit_gates;
          Alcotest.test_case "beyond exhaustive gate" `Quick
            test_bnb_beyond_exhaustive;
        ] );
      qsuite "bit-identity"
        [
          prop_curve_bits;
          prop_curve_bits_degenerate;
          prop_legacy_pools;
          prop_bnb_eval_bits;
          prop_bnb_eval_bits_degenerate;
          prop_bnb_curve_bits;
          prop_bnb_curve_bits_degenerate;
        ];
      qsuite "incremental" [ prop_grid_bits; prop_grid_bits_degenerate ];
      ( "bnb ref",
        [
          QCheck_alcotest.to_alcotest prop_bnb_reference;
          QCheck_alcotest.to_alcotest prop_bnb_reference_degenerate;
          QCheck_alcotest.to_alcotest prop_bnb_adversarial;
          Alcotest.test_case "adversarial counts" `Quick
            test_bnb_adversarial_counts;
          Alcotest.test_case "overflow regression" `Quick
            test_bnb_overflow_regression;
          Alcotest.test_case "identical spec out of range" `Quick
            test_bnb_identical_out_of_range;
          Alcotest.test_case "budget contract" `Quick test_bnb_budget_contract;
          Alcotest.test_case "node-count determinism" `Quick
            test_bnb_node_counts_deterministic;
          Alcotest.test_case "allocation" `Quick test_bnb_allocation;
        ] );
      ( "adversarial",
        [
          QCheck_alcotest.to_alcotest prop_grid_bits_adversarial;
          Alcotest.test_case "overflowing numerator" `Quick
            test_grid_overflowing_numerator;
          Alcotest.test_case "subnormal numerator" `Quick
            test_grid_subnormal_numerator;
        ] );
      ( "regret",
        [
          QCheck_alcotest.to_alcotest prop_regret_bits;
          QCheck_alcotest.to_alcotest prop_regret_bits_adversarial;
          Alcotest.test_case "counters and budget" `Quick
            test_regret_counters_and_budget;
          Alcotest.test_case "allocation" `Quick test_regret_allocation;
        ] );
      ( "near-tie",
        [
          QCheck_alcotest.to_alcotest prop_near_tie_bits;
          Alcotest.test_case "node blowup logged" `Quick
            test_near_tie_blowup_logged;
        ] );
    ]
