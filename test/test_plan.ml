(* Tests for the plan layer: query specs, Yao estimation, cardinality
   estimation, and the resource accounting of each physical operator. *)

open Qsens_catalog
open Qsens_cost
open Qsens_plan

let check_float = Alcotest.(check (float 1e-6))
let col ~name ~ndv ~width = Column.make ~name ~ndv ~width ()

(* A small star schema: fact(1M rows) references dim(1000 rows). *)
let fact =
  Table.make ~name:"fact" ~rows:1_000_000.
    ~columns:
      [
        col ~name:"f_id" ~ndv:1_000_000. ~width:4;
        col ~name:"f_dim" ~ndv:1_000. ~width:4;
        col ~name:"f_val" ~ndv:500. ~width:8;
        col ~name:"f_pad" ~ndv:1_000_000. ~width:84;
      ]

let dim =
  Table.make ~name:"dim" ~rows:1_000.
    ~columns:
      [
        col ~name:"d_id" ~ndv:1_000. ~width:4;
        col ~name:"d_cat" ~ndv:10. ~width:4;
        col ~name:"d_pad" ~ndv:1_000. ~width:92;
      ]

let pk_fact =
  Index.make ~name:"pk_fact" ~table:"fact" ~key:[ "f_id" ] ~clustered:true
    ~unique:true ()

let ix_fdim = Index.make ~name:"i_f_dim" ~table:"fact" ~key:[ "f_dim" ] ()

let pk_dim =
  Index.make ~name:"pk_dim" ~table:"dim" ~key:[ "d_id" ] ~clustered:true
    ~unique:true ()

let schema =
  Schema.make ~tables:[ fact; dim ] ~indexes:[ pk_fact; ix_fdim; pk_dim ]

let query =
  Query.make ~name:"star"
    ~relations:
      [
        { alias = "f"; table = "fact"; preds = []; projected = [ "f_val" ] };
        {
          alias = "d";
          table = "dim";
          preds = [ { column = "d_cat"; selectivity = 0.1; equality = true } ];
          projected = [];
        };
      ]
    ~joins:
      [
        {
          left = "f";
          left_col = "f_dim";
          right = "d";
          right_col = "d_id";
          selectivity = None;
        };
      ]
    ()

let env policy = Env.make ~schema ~policy ()

let usage_of space r (node : Node.t) = node.Node.usage.(Space.index space r)

(* ------------------------------------------------------------------ *)
(* Query *)

let test_query_validation () =
  Alcotest.check_raises "duplicate alias"
    (Invalid_argument "Query.make: duplicate alias f") (fun () ->
      ignore
        (Query.make ~name:"bad"
           ~relations:
             [
               { alias = "f"; table = "fact"; preds = []; projected = [] };
               { alias = "f"; table = "dim"; preds = []; projected = [] };
             ]
           ()))

let test_query_helpers () =
  Alcotest.(check int) "relations" 2 (Query.num_relations query);
  check_float "local sel" 0.1 (Query.local_selectivity (Query.relation query "d"));
  Alcotest.(check (list string)) "neighbors" [ "d" ] (Query.neighbors query "f");
  Alcotest.(check bool) "connected" true (Query.is_connected query);
  Alcotest.(check int) "joins between" 1
    (List.length (Query.joins_between query "d" "f"))

let test_query_disconnected () =
  let q =
    Query.make ~name:"cross"
      ~relations:
        [
          { alias = "f"; table = "fact"; preds = []; projected = [] };
          { alias = "d"; table = "dim"; preds = []; projected = [] };
        ]
      ()
  in
  Alcotest.(check bool) "disconnected" false (Query.is_connected q)

(* ------------------------------------------------------------------ *)
(* Yao *)

let test_yao_basics () =
  check_float "zero fetches" 0. (Yao.touched ~pages:100. 0.);
  check_float "single page table" 1. (Yao.touched ~pages:1. 50.);
  (* One fetch touches about one page. *)
  Alcotest.(check bool) "one fetch ~ 1" true
    (Float.abs (Yao.touched ~pages:1000. 1. -. 1.) < 1e-3);
  (* Far more fetches than pages: approaches the page count. *)
  Alcotest.(check bool) "saturates" true
    (Yao.touched ~pages:100. 10_000. > 99.9)

let test_yao_monotone () =
  let prev = ref 0. in
  for k = 1 to 50 do
    let v = Yao.touched ~pages:200. (Float.of_int (k * 10)) in
    Alcotest.(check bool) "monotone" true (v >= !prev);
    prev := v
  done

let test_yao_buffer () =
  (* Object fits in the pool: physical reads = distinct pages. *)
  check_float "cached" (Yao.touched ~pages:100. 1000.)
    (Yao.io_pages ~pages:100. ~buffer:640_000. 1000.);
  (* Object much larger than the pool: most references miss. *)
  let io = Yao.io_pages ~pages:1_000_000. ~buffer:100_000. 500_000. in
  Alcotest.(check bool) "mostly misses" true (io > 400_000.)

(* ------------------------------------------------------------------ *)
(* Cardinality *)

let test_cardinality () =
  let est = Cardinality.make schema query in
  check_float "base rows" 1_000_000. (Cardinality.base_rows est "f");
  check_float "filtered dim" 100. (Cardinality.base est "d");
  (* join sel = 1/max(1000,1000); |f join d| = 1e6 * 100 * 1e-3 = 1e5. *)
  check_float "join sel" 1e-3
    (Cardinality.join_selectivity est (List.hd query.Query.joins));
  check_float "join card" 100_000. (Cardinality.of_aliases est [ "f"; "d" ]);
  (* Consistency: order of aliases must not matter. *)
  check_float "symmetric" 100_000. (Cardinality.of_aliases est [ "d"; "f" ])

(* ------------------------------------------------------------------ *)
(* Node costing *)

let test_table_scan_usage () =
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env query in
  let scan = Node.table_scan ctx "f" in
  let disk = Layout.table_device env.Env.layout "fact" in
  let xfer = usage_of env.Env.space (Resource.Transfer disk) scan in
  check_float "transfers = pages" (Table.pages fact) xfer;
  let seeks = usage_of env.Env.space (Resource.Seek disk) scan in
  check_float "extent seeks" (Table.pages fact /. 64.) seeks;
  check_float "card after preds" 1_000_000. scan.Node.card

let test_index_only_no_table_access () =
  (* An index-only probe of dim through pk_dim would still need d_cat;
     instead check fact via i_f_dim when only f_dim is needed. *)
  let q =
    Query.make ~name:"io"
      ~relations:
        [
          {
            alias = "f";
            table = "fact";
            preds = [ { column = "f_dim"; selectivity = 0.001; equality = true } ];
            projected = [];
          };
        ]
      ()
  in
  let env = env Layout.Per_table_and_index_devices in
  let ctx = Node.make_ctx env q in
  match Node.index_scan ctx "f" ix_fdim with
  | None -> Alcotest.fail "expected an index access"
  | Some node ->
      (match node.Node.op with
      | Node.Access { kind = Node.Index_range { index_only; _ }; _ } ->
          Alcotest.(check bool) "index only" true index_only
      | _ -> Alcotest.fail "expected access node");
      let tdev = Layout.table_device env.Env.layout "fact" in
      check_float "no table transfers" 0.
        (usage_of env.Env.space (Resource.Transfer tdev) node);
      check_float "no table seeks" 0.
        (usage_of env.Env.space (Resource.Seek tdev) node);
      let idev = Layout.index_device env.Env.layout "fact" in
      Alcotest.(check bool) "index transfers > 0" true
        (usage_of env.Env.space (Resource.Transfer idev) node > 0.)

let test_matching_index_scan_cheaper () =
  (* With a selective predicate on the leading column, the index access
     touches far fewer pages than the full scan. *)
  let q =
    Query.make ~name:"sel"
      ~relations:
        [
          {
            alias = "f";
            table = "fact";
            preds = [ { column = "f_dim"; selectivity = 0.0001; equality = true } ];
            projected = [ "f_val" ];
          };
        ]
      ()
  in
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env q in
  let costs = Defaults.base_costs env.Env.space in
  let scan = Node.table_scan ctx "f" in
  match Node.index_scan ctx "f" ix_fdim with
  | None -> Alcotest.fail "expected index access"
  | Some ix ->
      Alcotest.(check bool) "index cheaper" true
        (Node.cost ix costs < Node.cost scan costs)

let test_hash_join_spill_uses_temp () =
  let env = env Layout.Per_table_and_index_devices in
  (* Shrink the sort heap so the build side spills. *)
  let env = { env with Env.sort_heap_pages = 10. } in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" and d = Node.table_scan ctx "d" in
  let hj = Node.hash_join ctx ~build:f ~probe:d in
  (match hj.Node.op with
  | Node.Hash_join { spilled; _ } -> Alcotest.(check bool) "spilled" true spilled
  | _ -> Alcotest.fail "expected hash join");
  let temp = Layout.temp_device env.Env.layout in
  Alcotest.(check bool) "temp transfers" true
    (usage_of env.Env.space (Resource.Transfer temp) hj > 0.)

let test_hash_join_in_memory_no_temp () =
  let env = env Layout.Per_table_and_index_devices in
  let ctx = Node.make_ctx env query in
  let d = Node.table_scan ctx "d" and f = Node.table_scan ctx "f" in
  (* dim is tiny: the build fits in the default 128k-page sort heap. *)
  let hj = Node.hash_join ctx ~build:d ~probe:f in
  let temp = Layout.temp_device env.Env.layout in
  check_float "no temp" 0. (usage_of env.Env.space (Resource.Transfer temp) hj)

let test_sort_spill () =
  let env = env Layout.Per_table_and_index_devices in
  let env = { env with Env.sort_heap_pages = 100. } in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" in
  let sorted = Node.sort ctx ~key:(Some ("f", "f_dim")) f in
  (match sorted.Node.op with
  | Node.Sort { spilled; _ } -> Alcotest.(check bool) "spilled" true spilled
  | _ -> Alcotest.fail "expected sort");
  Alcotest.(check bool) "order property" true
    (sorted.Node.order = Some ("f", "f_dim"));
  let temp = Layout.temp_device env.Env.layout in
  Alcotest.(check bool) "temp io" true
    (usage_of env.Env.space (Resource.Transfer temp) sorted > 0.)

let test_merge_join_requires_order () =
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" and d = Node.table_scan ctx "d" in
  let j = List.hd query.Query.joins in
  Alcotest.(check bool) "unsorted inputs rejected" true
    (Node.merge_join ctx ~left:f ~right:d j = None);
  let fs = Node.sort ctx ~key:(Some ("f", "f_dim")) f in
  let ds = Node.sort ctx ~key:(Some ("d", "d_id")) d in
  Alcotest.(check bool) "sorted inputs accepted" true
    (Node.merge_join ctx ~left:fs ~right:ds j <> None)

let test_index_nlj () =
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env query in
  let d = Node.table_scan ctx "d" in
  let j = List.hd query.Query.joins in
  (* Probing fact through i_f_dim from the dim side. *)
  (match Node.index_nlj ctx ~outer:d ~inner_alias:"f" ix_fdim j with
  | None -> Alcotest.fail "expected INLJ"
  | Some inlj ->
      check_float "card" 100_000. inlj.Node.card;
      Alcotest.(check bool) "preserves outer order" true
        (inlj.Node.order = d.Node.order));
  (* The wrong index (pk_fact on f_id) cannot serve this join. *)
  Alcotest.(check bool) "wrong index rejected" true
    (Node.index_nlj ctx ~outer:d ~inner_alias:"f" pk_fact j = None)

let test_usage_cumulative_nonnegative () =
  let env = env Layout.Per_table_and_index_devices in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" and d = Node.table_scan ctx "d" in
  let hj = Node.hash_join ctx ~build:d ~probe:f in
  (* Parent usage dominates each child's componentwise. *)
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "child <= parent" true (x <= hj.Node.usage.(i) +. 1e-9))
    f.Node.usage;
  Array.iter
    (fun x -> Alcotest.(check bool) "nonnegative" true (x >= 0.))
    hj.Node.usage

let test_signature_distinguishes () =
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" and d = Node.table_scan ctx "d" in
  let a = Node.hash_join ctx ~build:d ~probe:f in
  let b = Node.hash_join ctx ~build:f ~probe:d in
  Alcotest.(check bool) "different signatures" false
    (Node.signature a = Node.signature b);
  Alcotest.(check string) "stable" (Node.signature a) (Node.signature a)

let test_sort_spill_threshold () =
  (* Exactly at the sort heap boundary: no spill; one page over: spill. *)
  let env = env Layout.Per_table_and_index_devices in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" in
  let f_pages =
    Float.ceil (f.Node.card *. Float.of_int f.Node.width /. 4000.)
  in
  let at = { env with Env.sort_heap_pages = f_pages +. 1. } in
  let over = { env with Env.sort_heap_pages = f_pages /. 2. } in
  let spilled e =
    let ctx = Node.make_ctx e query in
    match (Node.sort ctx ~key:None (Node.table_scan ctx "f")).Node.op with
    | Node.Sort { spilled; _ } -> spilled
    | _ -> assert false
  in
  Alcotest.(check bool) "fits: in-memory" false (spilled at);
  Alcotest.(check bool) "over: spills" true (spilled over)

let test_block_nlj_rescans () =
  (* A huge outer forces multiple inner rescans, multiplying the inner's
     usage. *)
  let env = env Layout.Same_device in
  let env = { env with Env.sort_heap_pages = 100. } in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" and d = Node.table_scan ctx "d" in
  let nlj = Node.block_nlj ctx ~outer:f ~inner:d in
  (match nlj.Node.op with
  | Node.Block_nlj { rescans; _ } ->
      Alcotest.(check bool) "many rescans" true (rescans > 100.)
  | _ -> assert false);
  (* Inner I/O scaled by the rescan count. *)
  let disk = Layout.table_device env.Env.layout "dim" in
  let inner_xfer = usage_of env.Env.space (Resource.Transfer disk) d in
  let nlj_xfer = usage_of env.Env.space (Resource.Transfer disk) nlj in
  Alcotest.(check bool) "inner io multiplied" true
    (nlj_xfer >= 100. *. inner_xfer)

let test_finalize_variants () =
  let env = env Layout.Same_device in
  let grouped_query =
    Query.make ~name:"g"
      ~relations:[ { alias = "f"; table = "fact"; preds = []; projected = [] } ]
      ~group_by:10. ~order_by:true ()
  in
  let ctx = Node.make_ctx env grouped_query in
  let f = Node.table_scan ctx "f" in
  let variants = Node.finalize_variants ctx f in
  (* hash and sort aggregation, each under the final order-by sort. *)
  Alcotest.(check int) "two variants" 2 (List.length variants);
  List.iter
    (fun v ->
      match v.Node.op with
      | Node.Sort _ -> ()
      | _ -> Alcotest.fail "order-by sort expected on top")
    variants

let test_index_levels_grow () =
  let big =
    Table.make ~name:"big" ~rows:1e9
      ~columns:[ Column.make ~name:"k" ~ndv:1e9 ~width:8 () ]
  in
  let ix = Index.make ~name:"pk" ~table:"big" ~key:[ "k" ] ~unique:true () in
  Alcotest.(check bool) "at least 3 levels" true (Index.levels ix big >= 3);
  Alcotest.(check bool) "leaves grow" true (Index.leaf_pages ix big > 1e6)

let test_group_agg () =
  let env = env Layout.Same_device in
  let ctx = Node.make_ctx env query in
  let f = Node.table_scan ctx "f" in
  let g = Node.group_agg ctx ~hash:true ~groups:10. f in
  check_float "groups" 10. g.Node.card;
  let s = Node.group_agg ctx ~hash:false ~groups:10. f in
  check_float "sorted groups" 10. s.Node.card

(* ------------------------------------------------------------------ *)
(* Monotone fills: the premise of the optimizer's cost bound *)

module Synthetic = Qsens_workload.Synthetic
module Vec = Qsens_linalg.Vec

type workload = Tpch of string | Synth of Synthetic.topology * int

let workload_name = function
  | Tpch name -> name
  | Synth (topology, tables) ->
      Printf.sprintf "%s of %d tables" (Synthetic.topology_name topology) tables

let tpch_sf = 100.
let tpch_schema = Qsens_tpch.Spec.schema ~sf:tpch_sf

let policies =
  [| Layout.Same_device; Layout.Per_table_devices;
     Layout.Per_table_and_index_devices |]

let rec subtrees (p : Node.t) acc =
  let acc = p :: acc in
  match p.op with
  | Access _ -> acc
  | Block_nlj { outer = a; inner = b; _ }
  | Hash_join { build = a; probe = b; _ }
  | Merge_join { left = a; right = b } ->
      subtrees a (subtrees b acc)
  | Index_nlj { outer = a; _ } | Sort { input = a; _ } | Group_agg { input = a; _ }
    ->
      subtrees a acc

(* [u] is componentwise at least [v]; NaN fails. *)
let at_least what (u : Vec.t) (v : Vec.t) =
  let ok = ref true in
  Array.iteri (fun i x -> if not (u.(i) >= x) then ok := false) v;
  !ok
  || QCheck.Test.fail_reportf "%s: [%s] is not at least [%s]" what
       (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") u)))
       (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") v)))

let sum (l : Vec.t) (r : Vec.t) = Array.map2 ( +. ) l r

(* Every fill the optimizer bounds, on inputs [a] and [b] with disjoint
   alias sets: a hash, block nested-loop and merge join is at least the
   rounded sum of its inputs' usage, a sort at least its input's. *)
let fills_dominate ctx dim (a : Node.t) (b : Node.t) =
  let u = Vec.zero dim in
  let sorted (v : Node.t) =
    let s = Vec.zero dim in
    Node.Fill.sort ctx s v;
    s
  in
  let sa = sorted a and sb = sorted b in
  let merge lu ru =
    ignore (Node.Fill.merge_join ctx u ~left:a lu ~right:b ru : int);
    at_least "merge join" u (sum lu ru)
  in
  at_least "sort" sa a.usage
  && at_least "sort" sb b.usage
  && (ignore (Node.Fill.hash_join ctx u ~build:a ~probe:b : int);
      at_least "hash join" u (sum a.usage b.usage))
  && (ignore (Node.Fill.block_nlj ctx u ~outer:a ~inner:b : int);
      at_least "block nested-loop join" u (sum a.usage b.usage))
  && merge a.usage b.usage
  && merge sa sb

let prop_fills_dominate =
  let gen =
    QCheck.Gen.(
      triple
        (oneof
           [
             map
               (fun i -> Tpch (Printf.sprintf "Q%d" i))
               (int_range 1 22);
             map2
               (fun topology tables -> Synth (topology, tables))
               (oneofl Synthetic.all_topologies)
               (int_range 3 7);
           ])
        (int_bound 2) (int_bound 1_000_000))
  in
  let print (w, policy, seed) =
    Printf.sprintf "%s, %s, seed %d" (workload_name w)
      (Layout.policy_name policies.(policy))
      seed
  in
  QCheck.Test.make ~count:100 ~name:"fills dominate their inputs"
    (QCheck.make ~print gen)
    (fun (w, policy, seed) ->
      let schema, q =
        match w with
        | Tpch name -> (tpch_schema, Qsens_tpch.Queries.find ~sf:tpch_sf name)
        | Synth (topology, tables) ->
            Synthetic.generate (Synthetic.default topology ~tables)
      in
      let env = Env.make ~schema ~policy:policies.(policy) () in
      let dim = Space.dim env.Env.space in
      let st = Random.State.make [| seed |] in
      let costs =
        Array.map
          (fun c -> c *. Float.pow 10. (Random.State.float st 8. -. 4.))
          (Defaults.base_costs env.Env.space)
      in
      let winner =
        (Qsens_optimizer.Optimizer.optimize env q ~costs).plan
      in
      let ctx = Node.make_ctx env q in
      let paths =
        List.map
          (fun (r : Query.relation) -> Node.access_paths ctx r.alias)
          q.relations
      in
      let nonnegative (p : Node.t) =
        at_least "usage" p.usage (Vec.zero dim)
      in
      let rec path_pairs = function
        | [] -> true
        | ps :: rest ->
            List.for_all
              (fun a ->
                List.for_all
                  (fun b ->
                    fills_dominate ctx dim a b && fills_dominate ctx dim b a)
                  (List.concat rest))
              ps
            && path_pairs rest
      in
      let join_children (p : Node.t) =
        match p.op with
        | Block_nlj { outer = a; inner = b; _ }
        | Hash_join { build = a; probe = b; _ }
        | Merge_join { left = a; right = b } ->
            fills_dominate ctx dim a b && fills_dominate ctx dim b a
        | _ -> true
      in
      let nodes = subtrees winner [] in
      List.for_all (List.for_all nonnegative) paths
      && path_pairs paths
      && List.for_all nonnegative nodes
      && List.for_all join_children nodes)

let () =
  Alcotest.run "plan"
    [
      ( "query",
        [
          Alcotest.test_case "validation" `Quick test_query_validation;
          Alcotest.test_case "helpers" `Quick test_query_helpers;
          Alcotest.test_case "disconnected" `Quick test_query_disconnected;
        ] );
      ( "yao",
        [
          Alcotest.test_case "basics" `Quick test_yao_basics;
          Alcotest.test_case "monotone" `Quick test_yao_monotone;
          Alcotest.test_case "buffer" `Quick test_yao_buffer;
        ] );
      ("cardinality", [ Alcotest.test_case "estimates" `Quick test_cardinality ]);
      ( "node",
        [
          Alcotest.test_case "table scan usage" `Quick test_table_scan_usage;
          Alcotest.test_case "index only skips table" `Quick
            test_index_only_no_table_access;
          Alcotest.test_case "matching index cheaper" `Quick
            test_matching_index_scan_cheaper;
          Alcotest.test_case "hash join spill" `Quick test_hash_join_spill_uses_temp;
          Alcotest.test_case "hash join in memory" `Quick
            test_hash_join_in_memory_no_temp;
          Alcotest.test_case "sort spill" `Quick test_sort_spill;
          Alcotest.test_case "merge join order" `Quick test_merge_join_requires_order;
          Alcotest.test_case "index nlj" `Quick test_index_nlj;
          Alcotest.test_case "usage cumulative" `Quick
            test_usage_cumulative_nonnegative;
          Alcotest.test_case "signatures" `Quick test_signature_distinguishes;
          Alcotest.test_case "group agg" `Quick test_group_agg;
          Alcotest.test_case "sort spill threshold" `Quick
            test_sort_spill_threshold;
          Alcotest.test_case "block nlj rescans" `Quick test_block_nlj_rescans;
          Alcotest.test_case "finalize variants" `Quick test_finalize_variants;
          Alcotest.test_case "index levels" `Quick test_index_levels_grow;
        ] );
      ("fill", [ QCheck_alcotest.to_alcotest prop_fills_dominate ]);
    ]
