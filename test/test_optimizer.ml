(* Tests for the DP optimizer and the narrow EXPLAIN-style interface. *)

open Qsens_catalog
open Qsens_cost
open Qsens_plan
open Qsens_optimizer
open Qsens_linalg

let sf = 100.
let schema = Qsens_tpch.Spec.schema ~sf
let env policy = Env.make ~schema ~policy ()
let query name = Qsens_tpch.Queries.find ~sf name

let scaled_costs env ~seek ~xfer ~cpu =
  Array.map
    (function
      | Resource.Cpu -> Defaults.cpu_per_instruction *. cpu
      | Resource.Seek _ -> Defaults.d_s *. seek
      | Resource.Transfer _ -> Defaults.d_t *. xfer)
    (Space.resources env.Env.space)

let test_consistency () =
  (* The reported total cost is exactly usage . costs. *)
  let env = env Layout.Same_device in
  let costs = Defaults.base_costs env.Env.space in
  List.iter
    (fun q ->
      let r = Optimizer.optimize env q ~costs in
      Alcotest.(check bool)
        (q.Query.name ^ " cost = usage . C")
        true
        (Float.abs (r.total_cost -. Vec.dot r.plan.Node.usage costs)
         <= 1e-6 *. r.total_cost))
    (Qsens_tpch.Queries.all ~sf)

let test_single_table () =
  let env = env Layout.Same_device in
  let costs = Defaults.base_costs env.Env.space in
  let r = Optimizer.optimize env (query "Q1") ~costs in
  (* Q1 has no joins: the plan is an access plus aggregation/sort. *)
  Alcotest.(check bool) "covers l" true (r.plan.Node.aliases = [ "l" ])

let test_optimal_among_alternatives () =
  (* The DP result is never beaten by hand-built two-table plans. *)
  let env = env Layout.Same_device in
  let costs = Defaults.base_costs env.Env.space in
  let q = query "Q14" in
  let ctx = Node.make_ctx env q in
  let r = Optimizer.optimize env q ~costs in
  let l = Node.table_scan ctx "l" and p = Node.table_scan ctx "p" in
  let finalize node =
    List.fold_left
      (fun acc n -> if Node.cost n costs < Node.cost acc costs then n else acc)
      (Node.finalize ctx node)
      (Node.finalize_variants ctx node)
  in
  List.iter
    (fun alt ->
      Alcotest.(check bool) "dp at least as good" true
        (r.total_cost <= Node.cost (finalize alt) costs +. 1e-6))
    [
      Node.hash_join ctx ~build:p ~probe:l;
      Node.hash_join ctx ~build:l ~probe:p;
      Node.block_nlj ctx ~outer:p ~inner:l;
    ]

let test_seek_cost_flips_join_method () =
  (* Section 8.1.1: the LINEITEM-PART join method is sensitive to the
     relative cost of random and sequential I/O.  Expensive seeks must
     drive the optimizer away from index-probe-heavy plans; expensive
     transfers away from full scans. *)
  let env = env Layout.Same_device in
  let q = query "Q19" in
  let expensive_seeks = scaled_costs env ~seek:10_000. ~xfer:1. ~cpu:1. in
  let expensive_xfer = scaled_costs env ~seek:0.0001 ~xfer:1. ~cpu:1. in
  let r_seek = Optimizer.optimize env q ~costs:expensive_seeks in
  let r_xfer = Optimizer.optimize env q ~costs:expensive_xfer in
  Alcotest.(check bool) "different plans" false
    (r_seek.signature = r_xfer.signature);
  (* Under expensive seeks, no index-NLJ into lineitem (random fetches). *)
  let has_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no INLJ when seeks cost 10000x" false
    (has_sub "INLJ" r_seek.signature);
  Alcotest.(check bool) "INLJ when seeks are nearly free" true
    (has_sub "INLJ" r_xfer.signature)

let test_estimated_optimality_over_samples () =
  (* Whatever cost vector we optimize under, re-optimizing under the same
     vector can never find something cheaper than re-costing the chosen
     plan (sanity of the DP + linear model). *)
  let env = env Layout.Per_table_devices in
  let q = query "Q14" in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 10 do
    let costs =
      Array.map
        (fun c -> c *. Float.pow 10. (Random.State.float st 4. -. 2.))
        (Defaults.base_costs env.Env.space)
    in
    let r = Optimizer.optimize env q ~costs in
    let other = Optimizer.optimize env q ~costs:(Defaults.base_costs env.Env.space) in
    Alcotest.(check bool) "chosen plan cheapest under its costs" true
      (r.total_cost <= Optimizer.cost_of_plan other.plan costs +. 1e-6)
  done

let test_access_paths_exposed () =
  let env = env Layout.Same_device in
  let paths = Optimizer.candidate_access_paths env (query "Q6") "l" in
  (* Table scan plus at least the matching shipdate index. *)
  Alcotest.(check bool) "several paths" true (List.length paths >= 2)

let test_no_relations_fails () =
  let env = env Layout.Same_device in
  let empty = Query.make ~name:"empty" ~relations:[] () in
  Alcotest.check_raises "failure"
    (Failure "Optimizer.optimize: query has no relations") (fun () ->
      ignore
        (Optimizer.optimize env empty
           ~costs:(Defaults.base_costs env.Env.space)))

(* An exhaustive reference enumerator for two-relation queries: every
   combination of access paths, join methods, orders and finalizations.
   The DP must match its optimum exactly under any cost vector. *)
let exhaustive_best env (q : Query.t) costs =
  let ctx = Node.make_ctx env q in
  let aliases = List.map (fun (r : Query.relation) -> r.alias) q.relations in
  match aliases with
  | [ a; b ] ->
      let pa = Node.access_paths ctx a and pb = Node.access_paths ctx b in
      let joins = Query.joins_between q a b in
      let sorted_versions alias node (j : Query.join) =
        let key =
          if j.left = alias then (j.left, j.left_col) else (j.right, j.right_col)
        in
        [ node; Node.sort ctx ~key:(Some key) node ]
      in
      let plans = ref [] in
      let add p = plans := p :: !plans in
      List.iter
        (fun l ->
          List.iter
            (fun r ->
              add (Node.block_nlj ctx ~outer:l ~inner:r);
              add (Node.block_nlj ctx ~outer:r ~inner:l);
              if joins <> [] then begin
                add (Node.hash_join ctx ~build:l ~probe:r);
                add (Node.hash_join ctx ~build:r ~probe:l)
              end;
              List.iter
                (fun j ->
                  List.iter
                    (fun l' ->
                      List.iter
                        (fun r' ->
                          match Node.merge_join ctx ~left:l' ~right:r' j with
                          | Some m -> add m
                          | None -> ())
                        (sorted_versions b r j))
                    (sorted_versions a l j))
                joins)
            pb)
        pa;
      (* Index nested loops in both directions over every index. *)
      List.iter
        (fun j ->
          List.iter
            (fun (outer_alias, inner_alias, outers) ->
              ignore outer_alias;
              List.iter
                (fun outer ->
                  List.iter
                    (fun idx ->
                      match Node.index_nlj ctx ~outer ~inner_alias idx j with
                      | Some p -> add p
                      | None -> ())
                    (Qsens_catalog.Schema.indexes_of env.Env.schema
                       (Query.relation q inner_alias).table))
                outers)
            [ (a, b, pa); (b, a, pb) ])
        joins;
      let finalized = List.concat_map (Node.finalize_variants ctx) !plans in
      List.fold_left
        (fun acc p -> Float.min acc (Node.cost p costs))
        infinity finalized
  | _ -> invalid_arg "exhaustive_best: want exactly two relations"

let test_dp_matches_exhaustive () =
  let env = env Layout.Per_table_and_index_devices in
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun qname ->
      let q = query qname in
      for _ = 1 to 8 do
        let costs =
          Array.map
            (fun c -> c *. Float.pow 10. (Random.State.float st 6. -. 3.))
            (Defaults.base_costs env.Env.space)
        in
        let dp = Optimizer.optimize env q ~costs in
        let best = exhaustive_best env q costs in
        Alcotest.(check bool)
          (qname ^ ": dp = exhaustive")
          true
          (Float.abs (dp.total_cost -. best) <= 1e-6 *. best)
      done)
    [ "Q14"; "Q19"; "Q13"; "Q22"; "Q16" ]

(* ------------------------------------------------------------------ *)
(* Golden bit-identity of the DP *)

module Obs = Qsens_obs.Obs

let count_of name =
  List.fold_left
    (fun acc (m, v) ->
      match v with
      | Obs.Vcount n when String.equal (Obs.name m) name -> n
      | _ -> acc)
    0 (Obs.snapshot ())

(* Every query under the three layout policies, at base costs and at 5
   seeded cost vectors with each resource scaled by 10^U(-4,4) (Q8, the
   eight-way join, at base costs only).  One MD5 over each call's
   signature, exact total cost, usage vector and memo counters pins the
   DP's output and its enumeration bit for bit: any change to the plans
   it returns, to the floating-point path that costs them, or to how
   many memo insertions it attempts and keeps, moves the digest. *)
let golden_dp_digest () =
  let buf = Buffer.create (1 lsl 16) in
  List.iteri
    (fun li policy ->
      let env = env policy in
      let base = Defaults.base_costs env.Env.space in
      List.iteri
        (fun qi (q : Query.t) ->
          let st = Random.State.make [| qi; li |] in
          let perturbed () =
            Array.map
              (fun c -> c *. Float.pow 10. (Random.State.float st 8. -. 4.))
              base
          in
          let vectors =
            if String.equal q.name "Q8" then [ base ]
            else base :: List.init 5 (fun _ -> perturbed ())
          in
          List.iter
            (fun costs ->
              Obs.start ();
              let r = Optimizer.optimize env q ~costs in
              Obs.stop ();
              Printf.bprintf buf "%s %s %s %.17g %d %d" q.name
                (Layout.policy_name policy) r.signature r.total_cost
                (count_of "optimizer.memo_inserts")
                (count_of "optimizer.memo_kept");
              Array.iter (Printf.bprintf buf " %.17g") r.plan.Node.usage;
              Buffer.add_char buf '\n')
            vectors)
        (Qsens_tpch.Queries.all ~sf))
    [ Layout.Same_device; Layout.Per_table_devices;
      Layout.Per_table_and_index_devices ];
  Obs.reset ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_dp () =
  Alcotest.(check string) "DP digest" "06bca0aa49132a08a8635eb085e0ed01" (golden_dp_digest ())

(* ------------------------------------------------------------------ *)
(* Bit-identity with the reference DP, and the bound's strength *)

module Synthetic = Qsens_workload.Synthetic

let policies =
  [| Layout.Same_device; Layout.Per_table_devices;
     Layout.Per_table_and_index_devices |]

(* One call's result as a line: signature, exact total cost, usage bits
   and both memo counters. *)
let dp_line optimize =
  Obs.start ();
  let signature, total_cost, (usage : Vec.t) = optimize () in
  Obs.stop ();
  let line =
    Printf.sprintf "%s %.17g %d %d [%s]" signature total_cost
      (count_of "optimizer.memo_inserts")
      (count_of "optimizer.memo_kept")
      (String.concat " "
         (Array.to_list
            (Array.map
               (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x))
               usage)))
  in
  Obs.reset ();
  line

let dp_matches_reference ?max_bushy_side env q costs =
  let ours =
    dp_line (fun () ->
        let r = Optimizer.optimize ?max_bushy_side env q ~costs in
        (r.signature, r.total_cost, r.plan.Node.usage))
  and reference =
    dp_line (fun () ->
        let r = Optimizer_ref.optimize ?max_bushy_side env q ~costs in
        (r.signature, r.total_cost, r.plan.Node.usage))
  in
  String.equal ours reference
  || QCheck.Test.fail_reportf "%s (%d resources)@.dp:        %s@.reference: %s"
       q.Query.name
       (Space.dim env.Env.space)
       ours reference

(* Cost vectors: each base cost scaled by 10^U(-8,8); the same with
   exact zeros; and vectors the bound's gate rejects, with one
   component negative, NaN or +inf. *)
type vector = Scaled | Zeros | Negative | Nan | Infinite

let vector_name = function
  | Scaled -> "scaled"
  | Zeros -> "zeros"
  | Negative -> "negative"
  | Nan -> "nan"
  | Infinite -> "infinite"

let cost_vector (kind, seed) base =
  let st = Random.State.make [| seed |] in
  let v =
    Array.map
      (fun c -> c *. Float.pow 10. (Random.State.float st 16. -. 8.))
      base
  in
  let pick () = Random.State.int st (Array.length v) in
  (match kind with
  | Scaled -> ()
  | Zeros ->
      Array.iteri (fun i _ -> if Random.State.int st 3 = 0 then v.(i) <- 0.) v
  | Negative ->
      let i = pick () in
      v.(i) <- -.v.(i)
  | Nan -> v.(pick ()) <- Float.nan
  | Infinite -> v.(pick ()) <- Float.infinity);
  v

let gen_vector =
  QCheck.Gen.(
    pair (oneofl [ Scaled; Zeros; Negative; Nan; Infinite ]) (int_bound 1_000_000))

let print_vector (kind, seed) = Printf.sprintf "%s vector, seed %d" (vector_name kind) seed

(* Every TPC-H query but Q8 under the three layouts, at one generated
   cost vector per case. *)
let prop_tpch_matches_reference =
  QCheck.Test.make ~count:8 ~name:"dp == reference: TPC-H x 3 layouts"
    (QCheck.make ~print:print_vector gen_vector)
    (fun vector ->
      Array.for_all
        (fun policy ->
          let env = env policy in
          let costs = cost_vector vector (Defaults.base_costs env.Env.space) in
          List.for_all
            (fun (q : Query.t) ->
              String.equal q.name "Q8" || dp_matches_reference env q costs)
            (Qsens_tpch.Queries.all ~sf))
        policies)

(* Q8, the eight-way join, at a few vectors. *)
let prop_q8_matches_reference =
  QCheck.Test.make ~count:2 ~name:"dp == reference: Q8 x 3 layouts"
    (QCheck.make ~print:print_vector gen_vector)
    (fun vector ->
      Array.for_all
        (fun policy ->
          let env = env policy in
          dp_matches_reference env (query "Q8")
            (cost_vector vector (Defaults.base_costs env.Env.space)))
        policies)

(* Synthetic chains, stars, snowflakes, cliques and cycles of 3-7
   tables, bushy caps 0-4. *)
let prop_synthetic_matches_reference =
  let gen =
    QCheck.Gen.(
      map
        (fun (((topology, tables), (bushy, policy)), vector) ->
          (topology, tables, bushy, policy, vector))
        (pair
           (pair
              (pair (oneofl Synthetic.all_topologies) (int_range 3 7))
              (pair (int_bound 4) (int_bound 2)))
           gen_vector))
  in
  let print (topology, tables, bushy, policy, vector) =
    Printf.sprintf "%s of %d tables, bushy cap %d, %s, %s"
      (Synthetic.topology_name topology)
      tables bushy
      (Layout.policy_name policies.(policy))
      (print_vector vector)
  in
  QCheck.Test.make ~count:60 ~name:"dp == reference: synthetic queries"
    (QCheck.make ~print gen)
    (fun (topology, tables, bushy, policy, vector) ->
      let schema, q =
        Synthetic.generate (Synthetic.default topology ~tables)
      in
      let env = Env.make ~schema ~policy:policies.(policy) () in
      dp_matches_reference ~max_bushy_side:bushy env q
        (cost_vector vector (Defaults.base_costs env.Env.space)))

(* How many candidates the bound skips, at base costs and with the CPU
   cost set to 0.  The reference properties cannot see a weaker bound —
   it skips fewer candidates and returns the same plans — so these
   counts pin its strength.  Without CPU charges many candidates cost
   little more than their children, which is where a weaker margin
   shows: at 1 - 1e-6 the Q5 count moves, at 1 - 1e-9 the Q8 one. *)
let test_pruned_count () =
  List.iter
    (fun (qname, policy, cpu, expected) ->
      let env = env policy in
      let costs =
        Array.map2
          (fun r c -> match r with Resource.Cpu -> c *. cpu | _ -> c)
          (Space.resources env.Env.space)
          (Defaults.base_costs env.Env.space)
      in
      Obs.start ();
      ignore (Optimizer.optimize env (query qname) ~costs);
      Obs.stop ();
      let skipped = count_of "optimizer.pruned"
      and attempts = count_of "optimizer.memo_inserts" in
      Obs.reset ();
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s %s, CPU cost x%g: skipped, attempts" qname
           (Layout.policy_name policy) cpu)
        expected (skipped, attempts))
    [
      ("Q5", Layout.Same_device, 1., (22155, 31350));
      ("Q5", Layout.Per_table_and_index_devices, 1., (22155, 31350));
      ("Q9", Layout.Per_table_and_index_devices, 1., (16205, 21995));
      ("Q5", Layout.Same_device, 0., (22452, 31350));
      ("Q8", Layout.Same_device, 0., (237432, 303223));
    ]

(* ------------------------------------------------------------------ *)
(* Narrow interface *)

let test_narrow_explain_matches_white_box () =
  let env = env Layout.Same_device in
  let q = query "Q3" in
  let narrow = Narrow.create env q in
  let costs = Defaults.base_costs env.Env.space in
  let signature, cost =
    match Narrow.explain narrow ~costs with
    | Ok r -> r
    | Error _ -> Alcotest.fail "fault-free explain cannot fail"
  in
  let r = Optimizer.optimize env q ~costs in
  Alcotest.(check string) "same plan" r.signature signature;
  Alcotest.(check bool) "same cost" true
    (Float.abs (cost -. r.total_cost) <= 1e-9 *. cost)

let test_narrow_recost () =
  let env = env Layout.Same_device in
  let q = query "Q3" in
  let narrow = Narrow.create env q in
  let costs = Defaults.base_costs env.Env.space in
  let signature, cost =
    match Narrow.explain narrow ~costs with
    | Ok r -> r
    | Error _ -> Alcotest.fail "fault-free explain cannot fail"
  in
  (match Narrow.recost narrow ~signature ~costs with
  | Ok c -> Alcotest.(check (float 1e-9)) "recost at same point" cost c
  | Error _ -> Alcotest.fail "known signature must recost");
  (* Doubling every cost doubles the plan's linear cost. *)
  (match Narrow.recost narrow ~signature ~costs:(Vec.scale 2. costs) with
  | Ok c -> Alcotest.(check bool) "linear" true (Float.abs (c -. (2. *. cost)) <= 1e-6 *. c)
  | Error _ -> Alcotest.fail "recost failed");
  (* A cache miss is a distinct, recoverable condition, not a generic
     failure: callers can re-explain instead of dropping the sample. *)
  (match Narrow.recost narrow ~signature:"nope" ~costs with
  | Error (Qsens_faults.Fault.Unknown_signature "nope") -> ()
  | Ok _ -> Alcotest.fail "unknown signature must not recost"
  | Error e ->
      Alcotest.fail
        ("expected Unknown_signature, got "
        ^ Qsens_faults.Fault.error_to_string e));
  Alcotest.(check int) "one optimizer call" 1 (Narrow.calls narrow)

let () =
  let reference =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_tpch_matches_reference;
        prop_q8_matches_reference;
        prop_synthetic_matches_reference;
      ]
  in
  Alcotest.run "optimizer"
    [
      ( "dp",
        [
          Alcotest.test_case "cost consistency" `Quick test_consistency;
          Alcotest.test_case "single table" `Quick test_single_table;
          Alcotest.test_case "beats hand alternatives" `Quick
            test_optimal_among_alternatives;
          Alcotest.test_case "seek cost flips join method" `Quick
            test_seek_cost_flips_join_method;
          Alcotest.test_case "optimality over samples" `Quick
            test_estimated_optimality_over_samples;
          Alcotest.test_case "access paths" `Quick test_access_paths_exposed;
          Alcotest.test_case "dp matches exhaustive" `Slow
            test_dp_matches_exhaustive;
          Alcotest.test_case "empty query" `Quick test_no_relations_fails;
          Alcotest.test_case "golden DP digest" `Quick test_golden_dp;
          Alcotest.test_case "pruned count" `Quick test_pruned_count;
        ] );
      ("reference", reference);
      ( "narrow",
        [
          Alcotest.test_case "explain matches white box" `Quick
            test_narrow_explain_matches_white_box;
          Alcotest.test_case "recost" `Quick test_narrow_recost;
        ] );
    ]
