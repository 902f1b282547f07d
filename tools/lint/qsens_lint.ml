(* qsens-lint: a determinism and parallel-safety linter for the qsens
   tree.  The analyses are deliberately syntactic — the linter parses
   with ppxlib and walks the untyped AST, so every rule is a (documented)
   approximation that errs on the side of reporting.  Findings are
   silenced either by fixing the code, by an inline
   [(* qsens-lint: disable=RULE *)] comment on the offending line or the
   line above it, or by a per-directory [lint.allow] file.

   Rules:
     D001  order-leaking Hashtbl iteration (fold/iter/to_seq) whose
           result is not piped through an explicit sort
     P001  mutation of shared state inside closures passed to
           Qsens_parallel.Pool combinators
     F001  polymorphic =/<>/compare/List.mem on float-bearing
           expressions (lib/core, lib/geom, lib/linalg only)
     E001  printing or [exit] in library code (lib/, report layer
           excluded)
     W001  ignoring the result of a must-use function (Pool.run and
           friends)
     R001  swallowed exception: [try ... with _ ->] in library code,
           which hides the typed failure the resilient pipeline depends
           on
     K001  [Vec.dot] in lib/core/worst_case.ml — the per-delta sweep
           must go through the Sweep/Kernel tables, never regress to
           per-plan dots
     K003  allocation (array/list construction, string building with
           [^], [string_of_int] or [Printf.sprintf]) inside a
           [(* qsens-hot: begin *)] ... [(* qsens-hot: end *)] region —
           the zero-allocation kernels' steady state is a measured,
           gated contract (BENCH_kernel.json), and a stray Array.make,
           cons cell or key string in those loops silently voids it;
           strings built for [invalid_arg], [failwith] or [raise] are
           exempt, as the error path leaves the loop

   Rationale for each rule lives in DESIGN.md sections 8, 9, 11 and 16. *)

open Ppxlib

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rules =
  [
    ( "D001",
      "order-leaking Hashtbl.fold/iter/to_seq without a subsequent sort" );
    ("P001", "shared-state mutation inside a Pool task closure");
    ("F001", "polymorphic comparison on float-bearing expressions");
    ("E001", "printing or exit in library code");
    ("W001", "ignored result of a must-use function");
    ("R001", "swallowed exception (try ... with _ ->) in library code");
    ("O001", "ad-hoc clock read in instrumented code");
    ("K001", "naive Vec.dot in the worst-case sweep hot path");
    ("K002", "exhaustive vertex enumeration in the worst-case dispatcher");
    ("K003", "allocation inside a qsens-hot region");
  ]

let render d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

(* ------------------------------------------------------------------ *)
(* Machine-readable output.  Shared by qsens_lint and qsens_check so CI
   can annotate findings from either tool; the human format stays the
   default. *)

type format = Human | Json | Sarif

let format_of_string = function
  | "human" -> Some Human
  | "json" -> Some Json
  | "sarif" -> Some Sarif
  | _ -> None

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ~tool diags =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"tool\":\"%s\",\"findings\":[" (json_escape tool));
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
           (json_escape d.file) d.line d.col (json_escape d.rule)
           (json_escape d.message)))
    diags;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Minimal SARIF 2.1.0: one run, one driver, one result per finding.
   Columns are 0-based internally and 1-based in SARIF. *)
let render_sarif ~tool ~rules diags =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"";
  Buffer.add_string buf (json_escape tool);
  Buffer.add_string buf "\",\"rules\":[";
  List.iteri
    (fun i (id, desc) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
           (json_escape id) (json_escape desc)))
    rules;
  Buffer.add_string buf "]}},\"results\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
           (json_escape d.rule) (json_escape d.message) (json_escape d.file)
           (max d.line 1) (d.col + 1)))
    diags;
  Buffer.add_string buf "]}]}";
  Buffer.contents buf

let print_findings ~format ~tool ~rules diags =
  match format with
  | Human -> List.iter (fun d -> print_endline (render d)) diags
  | Json -> print_endline (render_json ~tool diags)
  | Sarif -> print_endline (render_sarif ~tool ~rules diags)

(* ------------------------------------------------------------------ *)
(* Scope: which rules apply to which files *)

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.concat "/" (String.split_on_char '\\' path)

let in_dir dir file =
  let file = normalize file in
  String.length file > String.length dir
  && String.sub file 0 (String.length dir + 1) = dir ^ "/"

(* F001 is restricted to the numeric heart of the framework, where a
   NaN-oblivious or eps-oblivious comparison corrupts sensitivity
   results.  lib/cost and lib/plan qualify: cost-model parameters and
   cardinality estimates are floats that flow straight into the same
   ratios. *)
let f001_scope file =
  in_dir "lib/core" file || in_dir "lib/geom" file || in_dir "lib/linalg" file
  || in_dir "lib/cost" file || in_dir "lib/plan" file

(* E001 applies to library code only; the report layer and the CLI /
   bench executables are allowed to print and exit. *)
let e001_scope file = in_dir "lib" file && not (in_dir "lib/report" file)

(* R001 applies to library code: a wildcard handler silently converts
   any exception — including programming errors — into the fallback
   value, exactly the failure-swallowing the typed Fault.error pipeline
   exists to prevent.  Tests, bench and the CLI may still use it. *)
let r001_scope file = in_dir "lib" file

(* O001: the observability layer owns all clock access.  A raw
   gettimeofday / Sys.time in instrumented code either corrupts span
   timestamps (wall clocks step under NTP) or bypasses the logical
   clock that makes traces deterministic.  Only lib/obs may read a
   clock directly. *)
let o001_scope file =
  (in_dir "lib" file && not (in_dir "lib/obs" file))
  || in_dir "bench" file || in_dir "bin" file

(* K001: the delta sweep's hot path.  Worst_case must evaluate plan
   costs through the separable Sweep tables (or the packed Kernel);
   a [Vec.dot] reappearing in this file means a per-delta loop has
   regressed to the naive per-plan form the kernel exists to replace. *)
let k001_scope file = normalize file = "lib/core/worst_case.ml"

(* K002: same file.  Above the exhaustive gate the dispatcher must go
   through the pruned search (Sweep.Bnb); a [Vertex_enum.vertices] call
   reappearing here means a code path has regressed to materializing
   all 2^dim box vertices. *)
let k002_scope = k001_scope

(* K003: the files whose [(* qsens-hot: ... *)] regions carry the
   zero-allocation contract.  Only marked regions are checked, so the
   cold paths of these files (builders, validation) stay free. *)
let k003_scope file =
  List.mem (normalize file)
    [
      "lib/core/sweep.ml";
      "lib/linalg/kernel.ml";
      "lib/linalg/mat.ml";
      "lib/geom/vertex_enum.ml";
      "lib/plan/node.ml";
      "lib/optimizer/optimizer.ml";
      "lib/server/json.ml";
      "lib/core/bounds.ml";
      "lib/core/complementary.ml";
    ]

(* ------------------------------------------------------------------ *)
(* Longident helpers *)

let path_of lid =
  match Longident.flatten_exn lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

let ends_with_path p suffix =
  p = suffix
  || String.length p > String.length suffix + 1
     && String.ends_with ~suffix:("." ^ suffix) p

let head_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (path_of txt)
  | _ -> None

(* The identifier at the head of a (possibly partial) application
   chain: [app_head (f a b)] is [f]. *)
let rec app_head e =
  match e.pexp_desc with Pexp_apply (f, _) -> app_head f | _ -> e

(* ------------------------------------------------------------------ *)
(* Rule tables *)

let d001_fns =
  [
    "Hashtbl.fold";
    "Hashtbl.iter";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sort_fns =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let pool_fns = [ "Pool.run"; "Pool.map_reduce"; "Pool.parallel_for_chunked" ]
let must_use_fns = "Pool.with_pool" :: pool_fns

let mutation_fns =
  [
    "Array.set";
    "Array.unsafe_set";
    "Array.fill";
    "Array.blit";
    "Bytes.set";
    "Bytes.unsafe_set";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.remove";
    "Hashtbl.reset";
    "Hashtbl.clear";
    "Hashtbl.filter_map_inplace";
  ]

let e001_fns =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "exit";
  ]

let o001_fns =
  [
    "Unix.gettimeofday";
    "Unix.clock_gettime";
    "Sys.time";
    "Monotonic_clock.now";
  ]

let is_d001 p = List.exists (ends_with_path p) d001_fns
let is_sort p = List.exists (ends_with_path p) sort_fns
let is_pool p = List.exists (ends_with_path p) pool_fns
let is_must_use p = List.exists (ends_with_path p) must_use_fns
let is_mutation p = List.exists (ends_with_path p) mutation_fns

(* K003: any qualified call whose final name is a known constructor of
   fresh arrays or lists counts as allocation.  Matching on the last
   segment (not full paths) keeps module aliases honest: [FA.make] with
   [module FA = Float.Array] allocates exactly like the spelled-out
   form.  Syntactic and conservative, like every rule here — a
   false positive in a hot region carries a disable comment with its
   justification. *)
let k003_alloc_names =
  [
    "make"; "init"; "create"; "create_float"; "copy"; "append"; "sub";
    "of_list"; "to_list"; "of_seq"; "to_seq"; "concat"; "map"; "mapi";
    "map2"; "filter"; "filter_map"; "rev"; "flatten";
  ]

let is_k003_alloc p =
  match List.rev (String.split_on_char '.' p) with
  | last :: (_ :: _ as modpath) ->
      List.mem last k003_alloc_names
      && List.for_all
           (fun seg -> String.length seg > 0 && seg.[0] >= 'A' && seg.[0] <= 'Z')
           modpath
  | _ -> false

(* K003: functions that build a fresh string — a retention key or a
   label assembled per iteration. *)
let is_k003_string p =
  List.mem p [ "^"; "Stdlib.^"; "string_of_int"; "Stdlib.string_of_int" ]
  || ends_with_path p "Printf.sprintf"

(* ... except as the message of an error that leaves the loop. *)
let is_error_exit p =
  List.mem p
    [
      "raise"; "invalid_arg"; "failwith"; "Stdlib.raise"; "Stdlib.invalid_arg";
      "Stdlib.failwith";
    ]

let is_poly_compare p = p = "compare" || p = "Stdlib.compare"

let is_poly_mem p =
  List.mem p [ "List.mem"; "List.memq"; "Array.mem"; "Array.memq" ]

(* ------------------------------------------------------------------ *)
(* Float-bearing heuristic for F001.  An expression is considered
   float-bearing when its subtree syntactically manipulates floats: a
   float literal, float arithmetic, or a Float-module call that returns
   a float.  Predicates like Float.equal are excluded — their results
   are not floats, and they are exactly the compliant replacements the
   rule points to. *)

let float_ident_hints =
  [
    "+.";
    "-.";
    "*.";
    "/.";
    "**";
    "~-.";
    "nan";
    "infinity";
    "neg_infinity";
    "epsilon_float";
    "max_float";
    "min_float";
    "sqrt";
    "exp";
    "log";
    "abs_float";
    "float_of_int";
    "float_of_string";
  ]

let float_returning_module_fn p =
  String.length p > 6
  && String.sub p 0 6 = "Float."
  && not
       (List.mem p
          [
            "Float.equal";
            "Float.compare";
            "Float.is_nan";
            "Float.is_finite";
            "Float.is_integer";
            "Float.to_int";
            "Float.to_string";
          ])

let float_bearing e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_constant (Pconst_float _) -> found := true
        | Pexp_ident { txt; _ } ->
            let p = path_of txt in
            if List.mem p float_ident_hints || float_returning_module_fn p then
              found := true
        | _ -> ());
        if not !found then super#expression e
    end
  in
  it#expression e;
  !found

(* ------------------------------------------------------------------ *)
(* P001: scan the arguments of a Pool combinator application for
   closures, and flag mutations of anything the closure can share with
   other tasks.  Disjoint per-chunk slot writes are a legitimate
   pattern; they are expected to carry a justifying disable comment. *)

let scan_pool_closures ~pool_name ~emit arg =
  let mutations =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_setfield _ ->
            emit e.pexp_loc
              (Printf.sprintf
                 "mutable-field assignment inside a closure passed to %s"
                 pool_name)
        | Pexp_setinstvar _ ->
            emit e.pexp_loc
              (Printf.sprintf
                 "instance-variable assignment inside a closure passed to %s"
                 pool_name)
        | Pexp_apply (f, _) -> (
            match head_path f with
            | Some p when p = ":=" || p = "incr" || p = "decr" ->
                emit e.pexp_loc
                  (Printf.sprintf
                     "ref mutation (%s) inside a closure passed to %s" p
                     pool_name)
            | Some p when is_mutation p ->
                emit e.pexp_loc
                  (Printf.sprintf "%s inside a closure passed to %s" p
                     pool_name)
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  let closures =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_function (_, _, Pfunction_body body) -> mutations#expression body
        | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
            List.iter (fun c -> mutations#expression c.pc_rhs) cases
        | _ -> super#expression e
    end
  in
  closures#expression arg

(* ------------------------------------------------------------------ *)
(* The main traversal *)

(* The [(* qsens-hot: begin *)] / [(* qsens-hot: end *)] regions, as
   inclusive line ranges.  An unclosed begin extends to the end of the
   file — erring toward checking more, as everywhere in this tool. *)
let hot_ranges src =
  let contains line needle =
    let n = String.length line and k = String.length needle in
    let rec search i =
      i + k <= n && (String.sub line i k = needle || search (i + 1))
    in
    search 0
  in
  let ranges = ref [] and opened = ref None in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if contains line "qsens-hot: begin" then
        (match !opened with None -> opened := Some ln | Some _ -> ())
      else if contains line "qsens-hot: end" then
        match !opened with
        | Some start ->
            ranges := (start, ln) :: !ranges;
            opened := None
        | None -> ())
    (String.split_on_char '\n' src);
  (match !opened with
  | Some start -> ranges := (start, max_int) :: !ranges
  | None -> ());
  !ranges

let make_iter ?(hot = []) ~file ~emit () =
  let in_hot line = List.exists (fun (lo, hi) -> line >= lo && line <= hi) hot in
  let k003_hot = k003_scope file in
  let emit_k003 (loc : Location.t) what =
    if k003_hot && in_hot loc.loc_start.pos_lnum then
      emit "K003" loc
        (Printf.sprintf
           "%s inside a qsens-hot region; these loops carry the measured \
            zero-allocation contract (BENCH_kernel.json) — hoist the \
            allocation into the scratch/build phase"
           what)
  in
  object (self)
    inherit Ast_traverse.iter as super

    (* > 0 while inside an application protected by an explicit sort:
       [List.sort cmp (Hashtbl.fold ...)] or
       [Hashtbl.fold ... |> List.sort cmp]. *)
    val mutable sort_depth = 0

    (* > 0 while inside the arguments of [raise], [invalid_arg] or
       [failwith]: K003 lets error messages build strings. *)
    val mutable error_depth = 0

    method private check_ident e =
      match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let p = path_of txt in
          if is_d001 p && sort_depth = 0 then
            emit "D001" e.pexp_loc
              (Printf.sprintf
                 "%s leaks hash-table iteration order; sort the result with \
                  an explicit comparator"
                 p);
          if e001_scope file && List.mem p e001_fns then
            emit "E001" e.pexp_loc
              (Printf.sprintf
                 "%s in library code; return data and let the report/CLI \
                  layer print"
                 p);
          if f001_scope file && is_poly_compare p then
            emit "F001" e.pexp_loc
              "polymorphic compare in numeric code; use Float.compare, \
               Vec.compare, or an explicit comparator";
          if o001_scope file && List.exists (ends_with_path p) o001_fns then
            emit "O001" e.pexp_loc
              (Printf.sprintf
                 "%s reads a clock directly; go through Qsens_obs (Clock for \
                  monotonic time, spans for timing) so traces stay \
                  deterministic"
                 p);
          if f001_scope file && is_poly_mem p then
            emit "F001" e.pexp_loc
              (Printf.sprintf
                 "%s uses polymorphic equality; use an explicit equality \
                  (List.exists with String.equal / Float comparators)"
                 p);
          if k001_scope file && ends_with_path p "Vec.dot" then
            emit "K001" e.pexp_loc
              "Vec.dot in the worst-case sweep regresses the per-delta hot \
               path to the naive form; evaluate through Sweep's separable \
               tables or the packed Kernel";
          if k002_scope file && ends_with_path p "Vertex_enum.vertices" then
            emit "K002" e.pexp_loc
              "Vertex_enum.vertices in the worst-case dispatcher materializes \
               all 2^dim box vertices; go through the pruned search \
               (Sweep.Bnb)";
          if is_k003_alloc p then emit_k003 e.pexp_loc p;
          if is_k003_string p && error_depth = 0 then
            emit_k003 e.pexp_loc (Printf.sprintf "string building (%s)" p)
      | _ -> ()

    method private sort_protects f args =
      match head_path f with
      | Some p when is_sort p -> true
      | Some ("|>" | "@@") ->
          List.exists
            (fun (_, a) ->
              match head_path (app_head a) with
              | Some p -> is_sort p
              | None -> false)
            args
      | _ -> false

    method! expression e =
      self#check_ident e;
      (* K003: construction that allocates without a named function —
         list cells and array literals. *)
      (match e.pexp_desc with
      | Pexp_construct ({ txt = Lident "::"; _ }, Some _) ->
          emit_k003 e.pexp_loc "list construction (::)"
      | Pexp_array (_ :: _) -> emit_k003 e.pexp_loc "array literal"
      | _ -> ());
      match e.pexp_desc with
      | Pexp_try (_, cases) when r001_scope file ->
          List.iter
            (fun c ->
              match c.pc_lhs.ppat_desc with
              | Ppat_any ->
                  emit "R001" c.pc_lhs.ppat_loc
                    "wildcard exception handler swallows every failure \
                     (including programming errors); match the exceptions \
                     you expect, or surface a typed Fault.error"
              | _ -> ())
            cases;
          super#expression e
      | Pexp_apply (f, args) ->
          (* F001: polymorphic structural (in)equality on floats. *)
          (match head_path f with
          | Some (("=" | "<>") as op) when f001_scope file ->
              if List.exists (fun (_, a) -> float_bearing a) args then
                emit "F001" e.pexp_loc
                  (Printf.sprintf
                     "polymorphic %s on a float-bearing expression; use \
                      Float.equal or an eps-aware comparator (Vec.equal)"
                     op)
          | _ -> ());
          (* W001: ignore (Pool.run ...). *)
          (match (head_path f, args) with
          | Some ("ignore" | "Fun.ignore"), [ (_, arg) ] -> (
              match head_path (app_head arg) with
              | Some p when is_must_use p ->
                  emit "W001" e.pexp_loc
                    (Printf.sprintf
                       "result of must-use %s is ignored; the call runs the \
                        batch for its effects and failures" p)
              | _ -> ())
          | _ -> ());
          (* P001: closures handed to the domain pool. *)
          (match head_path f with
          | Some p when is_pool p ->
              List.iter
                (fun (_, a) ->
                  scan_pool_closures ~pool_name:p
                    ~emit:(fun loc msg -> emit "P001" loc msg)
                    a)
                args
          | _ -> ());
          (* K003 context: mark error-message subtrees. *)
          let error_exit =
            match head_path f with Some p -> is_error_exit p | None -> false
          in
          if error_exit then error_depth <- error_depth + 1;
          (* D001 context: mark sort-protected subtrees. *)
          if self#sort_protects f args then begin
            sort_depth <- sort_depth + 1;
            super#expression e;
            sort_depth <- sort_depth - 1
          end
          else super#expression e;
          if error_exit then error_depth <- error_depth - 1
      | _ -> super#expression e

    method! value_binding vb =
      (* W001: [let _ = Pool.run ...]. *)
      (match (vb.pvb_pat.ppat_desc, head_path (app_head vb.pvb_expr)) with
      | Ppat_any, Some p when is_must_use p ->
          emit "W001" vb.pvb_loc
            (Printf.sprintf "result of must-use %s is bound to _" p)
      | _ -> ());
      super#value_binding vb
  end

(* ------------------------------------------------------------------ *)
(* Inline suppression comments.

   [(* qsens-lint: disable=D001 *)] suppresses the listed rules on the
   comment's own line and on the line directly below it (so a comment
   can sit on its own line above the finding).
   [(* qsens-lint: disable-file=D001,P001 *)] suppresses for the whole
   file.  Rule lists are comma-separated; anything after the list (e.g.
   a justification, which is expected) is ignored. *)

type suppressions = {
  per_line : (int * string list) list;
  file_wide : string list;
}

let parse_rule_list s pos =
  let n = String.length s in
  let is_rule_char c =
    (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = ','
  in
  let stop = ref pos in
  while !stop < n && is_rule_char s.[!stop] do
    incr stop
  done;
  String.sub s pos (!stop - pos)
  |> String.split_on_char ','
  |> List.filter (fun r -> r <> "")

(* The directive key is a parameter so qsens_check can reuse the same
   comment grammar under its own namespace ("qsens-check:").  Rule
   lists stop at the first non-[A-Z0-9,] character, so one comment can
   carry directives for both tools:
   [(* qsens-lint: disable=P001; qsens-check: disable=C001 — why *)]. *)
let find_directives ?(key = "qsens-lint:") line =
  match
    let n = String.length line and k = String.length key in
    let rec search i =
      if i + k > n then None
      else if String.sub line i k = key then Some (i + k)
      else search (i + 1)
    in
    search 0
  with
  | None -> None
  | Some after ->
      let rest = String.sub line after (String.length line - after) in
      let rest = String.trim rest in
      let try_prefix prefix =
        if String.starts_with ~prefix rest then
          Some (parse_rule_list rest (String.length prefix))
        else None
      in
      (* disable-file must be tried first: "disable=" is its prefix. *)
      (match try_prefix "disable-file=" with
      | Some rules -> Some (`File rules)
      | None -> (
          match try_prefix "disable=" with
          | Some rules -> Some (`Line rules)
          | None -> None))

let suppressions_of_source ?key src =
  let lines = String.split_on_char '\n' src in
  let per_line = ref [] and file_wide = ref [] in
  List.iteri
    (fun i line ->
      match find_directives ?key line with
      | Some (`Line rules) -> per_line := (i + 1, rules) :: !per_line
      | Some (`File rules) -> file_wide := rules @ !file_wide
      | None -> ())
    lines;
  { per_line = !per_line; file_wide = !file_wide }

let suppressed sup d =
  List.mem d.rule sup.file_wide
  || List.exists
       (fun (line, rules) ->
         (d.line = line || d.line = line + 1) && List.mem d.rule rules)
       sup.per_line

(* ------------------------------------------------------------------ *)
(* Per-directory allowlists.

   A [lint.allow] file in a directory grants findings for files in that
   directory and below.  Each non-comment line is [RULE pattern] where
   the pattern is a file basename, a path relative to the allow file's
   directory, or [*]. *)

let parse_allow_lines content =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               let rule = String.sub line 0 i in
               let pat =
                 String.trim (String.sub line i (String.length line - i))
               in
               if pat = "" then None else Some (rule, pat))

let allow_matches ~rule ~relpath entries =
  let base = Filename.basename relpath in
  List.exists
    (fun (r, pat) -> r = rule && (pat = "*" || pat = base || pat = relpath))
    entries

(* The chain of directories from the scan roots down to the file's own
   directory; an allow file in any of them can grant the finding.  The
   allow-file basename is a parameter so qsens_check can reuse the
   same chain walk for [check.allow]. *)
let allowlisted ?(allow_file = "lint.allow") ~load ~file d =
  let file = normalize file in
  let rec chain dir acc =
    let parent = Filename.dirname dir in
    if parent = dir then dir :: acc else chain parent (dir :: acc)
  in
  let dirs = chain (Filename.dirname file) [] in
  List.exists
    (fun dir ->
      match load (Filename.concat dir allow_file) with
      | None -> false
      | Some entries ->
          let prefix = if dir = "." then "" else dir ^ "/" in
          let relpath =
            if prefix <> "" && String.starts_with ~prefix file then
              String.sub file (String.length prefix)
                (String.length file - String.length prefix)
            else file
          in
          allow_matches ~rule:d.rule ~relpath entries)
    dirs

(* ------------------------------------------------------------------ *)
(* Linting one compilation unit *)

let dedup_sort diags =
  let cmp a b =
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.line b.line in
      if c <> 0 then c
      else
        let c = Int.compare a.col b.col in
        if c <> 0 then c else String.compare a.rule b.rule
  in
  List.sort_uniq cmp diags

let lint_string ~file src =
  let file = normalize file in
  let diags = ref [] in
  let emit rule (loc : Location.t) message =
    diags :=
      {
        file;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        rule;
        message;
      }
      :: !diags
  in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  let hot = if k003_scope file then hot_ranges src else [] in
  (try
     if Filename.check_suffix file ".mli" then
       (make_iter ~hot ~file ~emit ())#signature (Parse.interface lexbuf)
     else (make_iter ~hot ~file ~emit ())#structure (Parse.implementation lexbuf)
   with exn ->
     emit "X001"
       { Location.none with loc_start = { Lexing.dummy_pos with pos_lnum = 1 } }
       (Printf.sprintf "failed to parse: %s" (Printexc.to_string exn)));
  let sup = suppressions_of_source src in
  dedup_sort (List.filter (fun d -> not (suppressed sup d)) !diags)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_string ~file:path (read_file path)

(* ------------------------------------------------------------------ *)
(* Directory walk and entry point *)

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git" then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then path :: acc
  else acc

(* A memoizing loader for allow files, shared with qsens_check. *)
let allow_loader () =
  let allow_cache : (string, (string * string) list option) Hashtbl.t =
    Hashtbl.create 16
  in
  fun path ->
    match Hashtbl.find_opt allow_cache path with
    | Some v -> v
    | None ->
        let v =
          if Sys.file_exists path && not (Sys.is_directory path) then
            Some (parse_allow_lines (read_file path))
          else None
        in
        Hashtbl.add allow_cache path v;
        v

let main ?(format = Human) dirs =
  let files =
    List.concat_map
      (fun dir -> if Sys.file_exists dir then List.rev (walk dir []) else [])
      dirs
  in
  let load = allow_loader () in
  let allowed = ref 0 in
  let findings =
    List.concat_map
      (fun file ->
        List.filter
          (fun d ->
            if allowlisted ~load ~file d then begin
              incr allowed;
              false
            end
            else true)
          (lint_file file))
      files
  in
  print_findings ~format ~tool:"qsens-lint" ~rules findings;
  if format = Human then
    Printf.printf "qsens-lint: %d file(s), %d error(s), %d allowlisted\n"
      (List.length files) (List.length findings) !allowed;
  if findings <> [] then 1 else 0
