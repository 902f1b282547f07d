(* Golden tests for qsens-lint: per rule, one tiny fixture that must
   fire with the expected (line, rule) diagnostics and one compliant
   twin that must stay silent; plus suppression-comment and allowlist
   behaviour.  Fixtures are inline strings — the [~file] path decides
   which path-scoped rules apply. *)

let lint ~file src =
  List.map
    (fun (d : Qsens_lint.diagnostic) -> (d.line, d.rule))
    (Qsens_lint.lint_string ~file src)

let check_diags name expected ~file src =
  Alcotest.(check (list (pair int string))) name expected (lint ~file src)

(* ------------------------------------------------------------------ *)
(* D001: order-leaking Hashtbl iteration *)

let test_d001_fires () =
  check_diags "bare fold leaks order"
    [ (1, "D001") ]
    ~file:"lib/engine/fixture.ml"
    "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n";
  check_diags "iter leaks order"
    [ (2, "D001") ]
    ~file:"lib/engine/fixture.ml"
    "let collect tbl =\n\
    \  Hashtbl.iter (fun k _ -> print_ignore k) tbl\n"

let test_d001_sorted_is_silent () =
  check_diags "direct sort wrapper" []
    ~file:"lib/engine/fixture.ml"
    "let keys tbl =\n\
    \  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n";
  check_diags "pipeline into sort" []
    ~file:"lib/engine/fixture.ml"
    "let keys tbl =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
    \  |> List.sort String.compare\n";
  check_diags "sort applied with @@" []
    ~file:"lib/engine/fixture.ml"
    "let keys tbl =\n\
    \  List.sort String.compare\n\
    \  @@ Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"

(* ------------------------------------------------------------------ *)
(* P001: shared-state mutation inside Pool task closures *)

let test_p001_fires () =
  check_diags "array write in pool closure"
    [ (2, "P001") ]
    ~file:"lib/engine/fixture.ml"
    "let go p (out : int array) =\n\
    \  Qsens_parallel.Pool.run p (Array.init 2 (fun i -> fun () -> out.(i) <- i))\n";
  check_diags "ref mutation in pool closure"
    [ (2, "P001") ]
    ~file:"lib/engine/fixture.ml"
    "let go p (total : int ref) =\n\
    \  Qsens_parallel.Pool.run p [| (fun () -> incr total) |]\n"

let test_p001_pure_closure_is_silent () =
  check_diags "pure pool tasks" []
    ~file:"lib/engine/fixture.ml"
    "let go p compute =\n\
    \  Qsens_parallel.Pool.run p (Array.init 2 (fun i -> fun () -> compute i))\n"

(* ------------------------------------------------------------------ *)
(* F001: polymorphic comparison on float-bearing expressions *)

let test_f001_fires () =
  check_diags "polymorphic = against a float literal"
    [ (1, "F001") ]
    ~file:"lib/core/fixture.ml" "let is_zero x = x = 0.0\n";
  check_diags "bare polymorphic compare"
    [ (1, "F001") ]
    ~file:"lib/core/fixture.ml" "let order xs = List.sort compare xs\n";
  check_diags "List.mem polymorphic equality"
    [ (1, "F001") ]
    ~file:"lib/geom/fixture.ml" "let has x xs = List.mem x xs\n"

let test_f001_compliant_is_silent () =
  check_diags "Float.equal and Float.compare" []
    ~file:"lib/core/fixture.ml"
    "let is_zero x = Float.equal x 0.0\n\
     let order xs = List.sort Float.compare xs\n"

let test_f001_scoped_to_numeric_dirs () =
  (* Identical source outside lib/core|geom|linalg must not fire. *)
  check_diags "engine code is out of scope" []
    ~file:"lib/engine/fixture.ml" "let is_zero x = x = 0.0\n"

(* ------------------------------------------------------------------ *)
(* E001: printing / exit in library code *)

let test_e001_fires () =
  check_diags "print and exit in library code"
    [ (1, "E001"); (2, "E001") ]
    ~file:"lib/core/fixture.ml"
    "let shout () = print_endline \"hi\"\n\
     let bail () = exit 1\n"

let test_e001_report_layer_exempt () =
  check_diags "report layer may print" []
    ~file:"lib/report/fixture.ml"
    "let shout () = print_endline \"hi\"\n";
  check_diags "executables may print" []
    ~file:"bench/fixture.ml" "let shout () = print_endline \"hi\"\n"

(* ------------------------------------------------------------------ *)
(* W001: ignored result of a must-use function *)

let test_w001_fires () =
  check_diags "ignore (Pool.run ...)"
    [ (1, "W001") ]
    ~file:"lib/engine/fixture.ml"
    "let go p ts = ignore (Qsens_parallel.Pool.run p ts)\n";
  check_diags "let _ = Pool.run ..."
    [ (2, "W001") ]
    ~file:"lib/engine/fixture.ml"
    "let go p ts =\n\
    \  let _ = Qsens_parallel.Pool.run p ts in\n\
    \  ()\n"

let test_w001_used_is_silent () =
  check_diags "statement position is fine" []
    ~file:"lib/engine/fixture.ml"
    "let go p ts = Qsens_parallel.Pool.run p ts\n"

(* ------------------------------------------------------------------ *)
(* R001: swallowed exceptions in library code *)

let test_r001_fires () =
  check_diags "try ... with _ ->"
    [ (2, "R001") ]
    ~file:"lib/core/fixture.ml"
    "let safe f x =\n\
    \  try f x with _ -> 0\n";
  check_diags "wildcard among specific handlers still fires"
    [ (2, "R001") ]
    ~file:"lib/engine/fixture.ml"
    "let safe f x =\n\
    \  try f x with Not_found -> 0 | _ -> 1\n"

let test_r001_specific_handler_is_silent () =
  check_diags "named exception handlers are fine" []
    ~file:"lib/core/fixture.ml"
    "let safe f x =\n\
    \  try f x with Not_found -> 0 | Failure _ -> 1\n";
  check_diags "binding the exception is fine" []
    ~file:"lib/core/fixture.ml"
    "let safe f x =\n\
    \  try f x with e -> handle e\n"

let test_r001_scoped_to_lib () =
  (* Tests, bench and the CLI may still catch everything. *)
  check_diags "test code is out of scope" []
    ~file:"test/fixture.ml" "let safe f x = try f x with _ -> 0\n";
  check_diags "bench code is out of scope" []
    ~file:"bench/fixture.ml" "let safe f x = try f x with _ -> 0\n"

(* ------------------------------------------------------------------ *)
(* O001: ad-hoc clock reads in instrumented code *)

let test_o001_fires () =
  check_diags "gettimeofday in library code"
    [ (1, "O001") ]
    ~file:"lib/engine/fixture.ml"
    "let t0 () = Unix.gettimeofday ()\n";
  check_diags "Sys.time in bench code"
    [ (1, "O001") ]
    ~file:"bench/fixture.ml" "let t0 () = Sys.time ()\n";
  check_diags "raw monotonic clock in the CLI"
    [ (1, "O001") ]
    ~file:"bin/fixture.ml" "let t0 () = Monotonic_clock.now ()\n"

let test_o001_obs_layer_exempt () =
  (* lib/obs owns clock access; identical source there must not fire. *)
  check_diags "lib/obs may read clocks" []
    ~file:"lib/obs/clock.ml" "let now () = Monotonic_clock.now ()\n";
  check_diags "test code is out of scope" []
    ~file:"test/fixture.ml" "let t0 () = Unix.gettimeofday ()\n"

let test_o001_obs_wrapper_is_silent () =
  check_diags "going through the obs Clock wrapper is fine" []
    ~file:"bench/fixture.ml" "let t0 () = Qsens_obs.Clock.now_s ()\n"

(* ------------------------------------------------------------------ *)
(* K001: Vec.dot banned from the worst-case sweep hot path *)

let test_k001_fires () =
  check_diags "Vec.dot in worst_case.ml"
    [ (1, "K001") ]
    ~file:"lib/core/worst_case.ml"
    "let cost u c = Vec.dot u c\n";
  check_diags "qualified Vec.dot also fires"
    [ (1, "K001") ]
    ~file:"lib/core/worst_case.ml"
    "let cost u c = Qsens_linalg.Vec.dot u c\n"

let test_k001_scoped_to_worst_case () =
  check_diags "other core files may dot" []
    ~file:"lib/core/framework.ml" "let cost u c = Vec.dot u c\n";
  check_diags "Vec.dot_sub is not Vec.dot" []
    ~file:"lib/core/worst_case.ml"
    "let cost a c = Vec.dot_sub a 0 2 c\n"

let test_k001_suppressible () =
  check_diags "disable comment silences" []
    ~file:"lib/core/worst_case.ml"
    "(* qsens-lint: disable=K001 — cold diagnostic path *)\n\
     let cost u c = Vec.dot u c\n"

(* ------------------------------------------------------------------ *)
(* K002: exhaustive vertex enumeration banned from the dispatcher *)

let test_k002_fires () =
  check_diags "Vertex_enum.vertices in worst_case.ml"
    [ (1, "K002") ]
    ~file:"lib/core/worst_case.ml"
    "let vs hs = Vertex_enum.vertices hs\n";
  check_diags "qualified call also fires"
    [ (1, "K002") ]
    ~file:"lib/core/worst_case.ml"
    "let vs hs = Qsens_geom.Vertex_enum.vertices hs\n"

let test_k002_scoped_and_precise () =
  check_diags "other files may enumerate" []
    ~file:"lib/core/framework.ml" "let vs hs = Vertex_enum.vertices hs\n";
  check_diags "the pruned search is the sanctioned path" []
    ~file:"lib/core/worst_case.ml"
    "let v specs = Vertex_enum.Bnb.search specs\n"

let test_k002_suppressible () =
  check_diags "disable comment silences" []
    ~file:"lib/core/worst_case.ml"
    "(* qsens-lint: disable=K002 — cold diagnostic path *)\n\
     let vs hs = Vertex_enum.vertices hs\n"

(* ------------------------------------------------------------------ *)
(* K003: allocation banned inside qsens-hot regions *)

let hot body = Printf.sprintf "(* qsens-hot: begin *)\n%s(* qsens-hot: end *)\n" body

let test_k003_fires () =
  check_diags "Array.make in a hot region"
    [ (2, "K003") ]
    ~file:"lib/core/sweep.ml"
    (hot "let f n = Array.make n 0.\n");
  check_diags "aliased Float.Array.make also fires"
    [ (2, "K003") ]
    ~file:"lib/linalg/kernel.ml"
    (hot "let f n = FA.make n 0.\n");
  check_diags "list construction fires"
    [ (2, "K003") ]
    ~file:"lib/geom/vertex_enum.ml"
    (hot "let f x acc = x :: acc\n");
  check_diags "array literal fires"
    [ (2, "K003") ]
    ~file:"lib/core/sweep.ml"
    (hot "let f x = [| x |]\n")

let test_k003_scoped_to_hot_regions () =
  check_diags "allocation outside the markers is fine" []
    ~file:"lib/core/sweep.ml"
    "let build n = Array.make n 0.\n";
  check_diags "unscoped files may allocate in hot-marked code" []
    ~file:"lib/core/framework.ml"
    (hot "let f n = Array.make n 0.\n");
  check_diags "reads in a hot region are fine" []
    ~file:"lib/core/sweep.ml"
    (hot "let f a i = Array.unsafe_get a i\n")

let test_k003_suppressible () =
  check_diags "disable comment silences" []
    ~file:"lib/core/sweep.ml"
    (hot
       "(* qsens-lint: disable=K003 — one-time growth, amortized *)\n\
        let f n = Array.make n 0.\n")

let test_k003_string_building () =
  check_diags "a key string per candidate fires"
    [ (2, "K003"); (2, "K003") ]
    ~file:"lib/optimizer/optimizer.ml"
    (hot "let key okey w = okey ^ string_of_int w\n");
  check_diags "Printf.sprintf fires"
    [ (2, "K003") ]
    ~file:"lib/plan/node.ml"
    (hot "let label w = Printf.sprintf \"#%d\" w\n");
  check_diags "error messages are exempt" []
    ~file:"lib/linalg/kernel.ml"
    (hot
       "let check n m =\n\
       \  if n <> m then\n\
       \    invalid_arg (Printf.sprintf \"dim %d, expected %d\" n m);\n\
       \  if n < 0 then failwith (\"negative: \" ^ string_of_int n);\n\
       \  if m < 0 then raise (Invalid_argument (\"m\" ^ \"<0\"))\n");
  check_diags "disable comment silences" []
    ~file:"lib/optimizer/optimizer.ml"
    (hot
       "(* qsens-lint: disable=K003 — one string per new slot *)\n\
        let key okey w = okey ^ string_of_int w\n")

(* The JSON number encoder writes one token per float of every
   response; a per-number string there is the printf cost it replaced. *)
let test_k003_json_encoder () =
  check_diags "a per-number string fires"
    [ (2, "K003"); (2, "K003") ]
    ~file:"lib/server/json.ml"
    (hot "let token n = \"-\" ^ string_of_int n\n");
  check_diags "Printf.sprintf fires"
    [ (2, "K003") ]
    ~file:"lib/server/json.ml"
    (hot "let token f = Printf.sprintf \"%.17g\" f\n");
  check_diags "a scratch per number fires"
    [ (2, "K003") ]
    ~file:"lib/server/json.ml"
    (hot "let add buf f = Buffer.add_bytes buf (Bytes.create 24)\n");
  check_diags "the out-of-range C call is not a K003 name" []
    ~file:"lib/server/json.ml"
    (hot "let add buf f = Buffer.add_string buf (format_float \"%.17g\" f)\n");
  check_diags "the parser outside the markers may allocate" []
    ~file:"lib/server/json.ml"
    "let parse src = String.sub src 0 4 ^ \"x\"\n"

(* The Section 8.2 census visits every plan pair; a kind list or a
   count table per pair is the cost the one-pass build removed. *)
let test_k003_census () =
  check_diags "a kind list per pair fires"
    [ (2, "K003") ]
    ~file:"lib/core/complementary.ml"
    (hot "let add k kinds = k :: kinds\n");
  check_diags "a divergent-dimension array per pair fires"
    [ (2, "K003") ]
    ~file:"lib/core/complementary.ml"
    (hot "let divergent m = Array.make m false\n");
  check_diags "a support set per pair fires"
    [ (2, "K003") ]
    ~file:"lib/core/bounds.ml"
    (hot "let pair a b = Array.map2 ( lxor ) a b\n");
  check_diags "the per-plan facts outside the markers may allocate" []
    ~file:"lib/core/complementary.ml"
    "let facts vecs = Array.map Bounds.zero_threshold vecs\n"

(* ------------------------------------------------------------------ *)
(* Suppression comments *)

let bare_fold = "Hashtbl.fold (fun k _ acc -> k :: acc) tbl []"

let test_disable_comment_previous_line () =
  check_diags "comment above the finding" []
    ~file:"lib/engine/fixture.ml"
    (Printf.sprintf
       "let keys tbl =\n\
       \  (* qsens-lint: disable=D001 — consumer re-sorts *)\n\
       \  %s\n"
       bare_fold)

let test_disable_comment_wrong_rule () =
  check_diags "disabling another rule does not silence"
    [ (3, "D001") ]
    ~file:"lib/engine/fixture.ml"
    (Printf.sprintf
       "let keys tbl =\n\
       \  (* qsens-lint: disable=E001 *)\n\
       \  %s\n"
       bare_fold)

let test_disable_file () =
  check_diags "file-wide disable" []
    ~file:"lib/engine/fixture.ml"
    (Printf.sprintf
       "(* qsens-lint: disable-file=D001 *)\n\
        let keys tbl = %s\n\
        let again tbl = %s\n"
       bare_fold bare_fold)

(* ------------------------------------------------------------------ *)
(* Allowlists, parse failure, rendering *)

let test_parse_allow_lines () =
  let entries =
    Qsens_lint.parse_allow_lines
      "# granted findings\n\nD001 test_core.ml\nF001 *\n"
  in
  Alcotest.(check (list (pair string string)))
    "entries"
    [ ("D001", "test_core.ml"); ("F001", "*") ]
    entries;
  Alcotest.(check bool) "basename matches" true
    (Qsens_lint.allow_matches ~rule:"D001" ~relpath:"sub/test_core.ml" entries);
  Alcotest.(check bool) "star matches any file" true
    (Qsens_lint.allow_matches ~rule:"F001" ~relpath:"anything.ml" entries);
  Alcotest.(check bool) "other rules not granted" false
    (Qsens_lint.allow_matches ~rule:"P001" ~relpath:"test_core.ml" entries)

let test_parse_failure_is_x001 () =
  match lint ~file:"lib/core/broken.ml" "let f = (\n" with
  | [ (1, "X001") ] -> ()
  | other ->
      Alcotest.failf "expected a single X001, got %d diagnostics"
        (List.length other)

let test_render () =
  let d =
    {
      Qsens_lint.file = "lib/core/x.ml";
      line = 3;
      col = 5;
      rule = "D001";
      message = "leaks order";
    }
  in
  Alcotest.(check string)
    "render format" "lib/core/x.ml:3:5: [D001] leaks order"
    (Qsens_lint.render d)

let test_rule_catalogue () =
  Alcotest.(check (list string))
    "documented rule ids"
    [ "D001"; "P001"; "F001"; "E001"; "W001"; "R001"; "O001"; "K001"; "K002";
      "K003" ]
    (List.map fst Qsens_lint.rules)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "d001",
        [
          Alcotest.test_case "fires on bare iteration" `Quick test_d001_fires;
          Alcotest.test_case "silent when sorted" `Quick
            test_d001_sorted_is_silent;
        ] );
      ( "p001",
        [
          Alcotest.test_case "fires on shared mutation" `Quick test_p001_fires;
          Alcotest.test_case "silent on pure closures" `Quick
            test_p001_pure_closure_is_silent;
        ] );
      ( "f001",
        [
          Alcotest.test_case "fires on polymorphic float compare" `Quick
            test_f001_fires;
          Alcotest.test_case "silent on Float module" `Quick
            test_f001_compliant_is_silent;
          Alcotest.test_case "scoped to numeric dirs" `Quick
            test_f001_scoped_to_numeric_dirs;
        ] );
      ( "e001",
        [
          Alcotest.test_case "fires in library code" `Quick test_e001_fires;
          Alcotest.test_case "report layer exempt" `Quick
            test_e001_report_layer_exempt;
        ] );
      ( "w001",
        [
          Alcotest.test_case "fires on ignored result" `Quick test_w001_fires;
          Alcotest.test_case "silent when used" `Quick test_w001_used_is_silent;
        ] );
      ( "r001",
        [
          Alcotest.test_case "fires on wildcard handler" `Quick
            test_r001_fires;
          Alcotest.test_case "silent on specific handlers" `Quick
            test_r001_specific_handler_is_silent;
          Alcotest.test_case "scoped to lib" `Quick test_r001_scoped_to_lib;
        ] );
      ( "o001",
        [
          Alcotest.test_case "fires on raw clock reads" `Quick test_o001_fires;
          Alcotest.test_case "obs layer and tests exempt" `Quick
            test_o001_obs_layer_exempt;
          Alcotest.test_case "silent via obs wrapper" `Quick
            test_o001_obs_wrapper_is_silent;
        ] );
      ( "k001",
        [
          Alcotest.test_case "fires on Vec.dot in the sweep" `Quick
            test_k001_fires;
          Alcotest.test_case "scoped to worst_case.ml" `Quick
            test_k001_scoped_to_worst_case;
          Alcotest.test_case "suppressible with justification" `Quick
            test_k001_suppressible;
        ] );
      ( "k002",
        [
          Alcotest.test_case "fires on exhaustive enumeration" `Quick
            test_k002_fires;
          Alcotest.test_case "scoped and precise" `Quick
            test_k002_scoped_and_precise;
          Alcotest.test_case "suppressible with justification" `Quick
            test_k002_suppressible;
        ] );
      ( "k003",
        [
          Alcotest.test_case "fires on allocation in hot regions" `Quick
            test_k003_fires;
          Alcotest.test_case "scoped to marked regions" `Quick
            test_k003_scoped_to_hot_regions;
          Alcotest.test_case "suppressible with justification" `Quick
            test_k003_suppressible;
          Alcotest.test_case "string building, error messages exempt" `Quick
            test_k003_string_building;
          Alcotest.test_case "the JSON number encoder" `Quick
            test_k003_json_encoder;
          Alcotest.test_case "the census pair loop" `Quick test_k003_census;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "comment on previous line" `Quick
            test_disable_comment_previous_line;
          Alcotest.test_case "wrong rule keeps firing" `Quick
            test_disable_comment_wrong_rule;
          Alcotest.test_case "file-wide disable" `Quick test_disable_file;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "allowlist parsing" `Quick test_parse_allow_lines;
          Alcotest.test_case "parse failure is X001" `Quick
            test_parse_failure_is_x001;
          Alcotest.test_case "render format" `Quick test_render;
          Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
        ] );
    ]
