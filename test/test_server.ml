(* Tier-1 tests for the resilient sensitivity service (lib/server):
   JSON wire format round-trips, the byte-budgeted LRU, the degradation
   ladder, response invariance under arbitrary cache state (hits,
   misses, invalidations, evictions), snapshot warm-starts, overload
   shedding, circuit breaking, and the seeded fault-injected soak.

   The load-bearing property mirrors the kernel suite's: a response is
   a pure function of the request — never of cache state, pool size
   (for non-degraded answers), fault history, or request ordering. *)

module Json = Qsens_server.Json
module Lru = Qsens_server.Lru
module Server = Qsens_server.Server
module Soak = Qsens_server.Soak
module Fault = Qsens_faults.Fault
module Pool = Qsens_parallel.Pool

let pool2 = Pool.create ~domains:2 ()
let () = at_exit (fun () -> Pool.shutdown pool2)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* JSON *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Num x, Json.Num y -> same_float x y
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
           x y
  | _ -> false

let test_json_golden () =
  let v =
    Json.Obj
      [
        ("a", Json.num 1.);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("c", Json.num 0.1);
      ]
  in
  Alcotest.(check string)
    "compact print"
    "{\"a\":1,\"b\":[true,null,\"x\\\"y\\n\"],\"c\":0.10000000000000001}"
    (Json.to_string v);
  match Json.of_string (Json.to_string v) with
  | Error m -> Alcotest.fail m
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "true false";
  bad "\"unterminated";
  bad "{\"a\":nope}"

(* A \u escape is exactly four hex digits: OCaml's [_] digit separators
   must not slip through as they would with [int_of_string]. *)
let test_json_unicode_escapes () =
  let decode s = Option.bind (Result.to_option (Json.of_string s)) Json.to_str in
  Alcotest.(check (option string)) "\\u0041 is A" (Some "A")
    (decode "\"\\u0041\"");
  Alcotest.(check (option string)) "upper- and lower-case hex" (Some "\xc3\xa9\xc3\xa9")
    (decode "\"\\u00E9\\u00e9\"");
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%S: %s" s m)
            true
            (String.ends_with ~suffix:"bad \\u escape" m))
    [ "\"\\u00_1\""; "\"\\u1_2_\""; "\"\\u+041\""; "\"\\u004g\"" ]

let test_json_non_finite () =
  List.iter
    (fun (f, s) ->
      let rendered = Json.to_string (Json.num f) in
      Alcotest.(check string) "encoding" s rendered;
      match Option.bind (Result.to_option (Json.of_string rendered))
              Json.to_float with
      | Some f' ->
          Alcotest.(check bool) "decodes back" true (same_float f f')
      | None -> Alcotest.fail "did not decode")
    [
      (Float.nan, "\"nan\"");
      (Float.infinity, "\"inf\"");
      (Float.neg_infinity, "\"-inf\"");
      (* Not a sentinel, but the other sign-sensitive edge: the encoder
         must keep the sign bit through the integer fast path. *)
      (-0., "-0");
    ]

let gen_json =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map Json.num (float_range (-1e6) 1e6);
              map Json.num (oneofl [ Float.nan; Float.infinity; 0.1; 3. ]);
              map (fun s -> Json.Str s) (string_size ~gen:printable (return 8));
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (2, scalar);
              (1, map (fun l -> Json.List l) (list_size (return 3) (self (n / 2))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (return 3)
                     (pair (string_size ~gen:printable (return 4)) (self (n / 2))))
              );
            ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"json: parse (print v) == v"
    (QCheck.make gen_json)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> json_equal v v'
      | Error _ -> false)

(* The encoder formats numbers without Printf; its tokens must be the
   ones [Printf.sprintf] gives, on any bit pattern. *)
let printf_token f =
  if Float.is_nan f then "\"nan\""
  else if Float.equal f Float.infinity then "\"inf\""
  else if Float.equal f Float.neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* [x] moved [j] ulps up ([j > 0]) or down. *)
let rec ulps x j =
  if j > 0 then ulps (Float.succ x) (j - 1)
  else if j < 0 then ulps (Float.pred x) (j + 1)
  else x

let signed = QCheck.Gen.map2 (fun x neg -> if neg then -.x else x)

(* Most bit patterns lie outside [1e-5, 1e17), the range the encoder
   writes with integer arithmetic, so the generator aims at it: whole
   magnitudes, powers of ten and their neighbours, exact ties at the
   17th digit, the integers where the two formats meet, and the points
   where [%g] switches layout. *)
let gen_number_token =
  QCheck.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits int64);
        (6, signed (map (fun l -> 10. ** l) (float_range (-6.) 18.)) bool);
        ( 3,
          signed
            (map2
               (fun k j -> ulps (float_of_string (Printf.sprintf "1e%d" k)) j)
               (int_range (-6) 18) (int_range (-2) 2))
            bool );
        ( 3,
          map2
            (fun k half -> Float.of_int k +. half)
            (int_range 1_000_000_000_000_000 ((1 lsl 52) - 1))
            (oneofl [ 0.25; 0.75 ]) );
        ( 1,
          map Float.of_int
            (int_range 1_000_000_000_000_000 100_000_000_000_000_000) );
        (1, map (fun d -> Float.of_int ((1 lsl 53) + d)) (int_range (-64) 64));
        ( 1,
          signed
            (map2 ulps (oneofl [ 1e-5; 1e-4; 1e16; 1e17 ]) (int_range (-3) 3))
            bool );
        ( 1,
          oneofl
            [
              0.; -0.; 5e-324; -5e-324; 0x0.fffffffffffffp-1022; 0x1p-1022;
              1e15; -1e15; Float.pred 1e15; Float.succ 1e15; Float.max_float;
              -.Float.max_float; 0.1; 1e-310;
            ] );
        (1, map Float.of_int int);
      ])

let prop_json_float_tokens =
  QCheck.Test.make ~count:160_000
    ~name:"json: number tokens == Printf.sprintf, any bit pattern"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_number_token)
    (fun f -> String.equal (Json.to_string (Json.Num f)) (printf_token f))

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_metrics = Lru.metrics "test"

let lru_of_pairs budget pairs =
  let c = Lru.create ~metrics:test_metrics ~byte_budget:budget ~size_of:String.length in
  List.iter (fun (k, v) -> Lru.put c k v) pairs;
  c

let test_lru_eviction_order () =
  let c = lru_of_pairs 10 [ ("a", "xxxx"); ("b", "xxxx"); ("c", "xxxx") ] in
  (* 12 bytes > 10: "a" (oldest) evicted. *)
  Alcotest.(check int) "entries" 2 (Lru.length c);
  Alcotest.(check bool) "a gone" false (Lru.mem c "a");
  Alcotest.(check bool) "b stays" true (Lru.mem c "b");
  Alcotest.(check int) "one eviction" 1 (Lru.stats c).Lru.evictions

let test_lru_recency () =
  let c = lru_of_pairs 10 [ ("a", "xxxx"); ("b", "xxxx") ] in
  ignore (Lru.find c "a" : string option);
  (* "a" is now most recent, so inserting "c" evicts "b". *)
  Lru.put c "c" "xxxx";
  Alcotest.(check bool) "a stays" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions

let test_lru_replace_and_oversized () =
  let c = lru_of_pairs 10 [ ("a", "xxxx") ] in
  Lru.put c "a" "yy";
  Alcotest.(check int) "replacement size" 2 (Lru.bytes c);
  Lru.put c "huge" (String.make 11 'z');
  Alcotest.(check bool) "oversized not admitted" false (Lru.mem c "huge");
  Alcotest.(check int) "bytes unchanged" 2 (Lru.bytes c)

let test_lru_alist_oldest_first () =
  let c = lru_of_pairs 100 [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  ignore (Lru.find c "a" : string option);
  Alcotest.(check (list (pair string string)))
    "oldest first, recency respected"
    [ ("b", "2"); ("c", "3"); ("a", "1") ]
    (Lru.to_alist c);
  let hits_before = (Lru.stats c).Lru.hits in
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "stats survive clear" hits_before (Lru.stats c).Lru.hits

(* ------------------------------------------------------------------ *)
(* Server requests *)

let wc_request ?(query = "Q6") ?(layout = "same") ?(budget = 1_000_000_000)
    ?(id = 1) () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"worst_case\",\"query\":%S,\"layout\":%S,\
     \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":%d}"
    id query layout budget

let select_request ?(query = "Q6") ?(layout = "same")
    ?(budget = 1_000_000_000) ?(id = 1) () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"select\",\"query\":%S,\"layout\":%S,\
     \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":2000,\"budget\":%d}"
    id query layout budget

let small_config =
  {
    Server.default_config with
    Server.mc_samples = 64;
    queue_limit = 2;
    cache_bytes = 1 lsl 20;
  }

let response_field line key =
  match Json.of_string line with
  | Error m -> Alcotest.fail ("unparseable response: " ^ m)
  | Ok resp -> Json.member key resp

let str_field line key =
  Option.value ~default:"" (Option.bind (response_field line key) Json.to_str)

let bool_field line key =
  Option.value ~default:false
    (Option.bind (response_field line key) Json.to_bool)

let test_server_basics () =
  let t = Server.create ~config:small_config () in
  Alcotest.(check bool) "ping ok" true
    (bool_field (Server.handle_line t "{\"id\":1,\"op\":\"ping\"}") "ok");
  let unknown = Server.handle_line t "{\"op\":\"frobnicate\"}" in
  Alcotest.(check bool) "unknown op not ok" false (bool_field unknown "ok");
  let malformed = Server.handle_line t "{{{" in
  Alcotest.(check bool) "malformed not ok" false (bool_field malformed "ok");
  let bad_query =
    Server.handle_line t (wc_request ~query:"Q99" ())
  in
  Alcotest.(check string) "unknown query kind" "malformed"
    (match
       Option.bind (response_field bad_query "error") (Json.member "kind")
     with
    | Some (Json.Str k) -> k
    | _ -> "");
  let bad_deltas =
    Server.handle_line t
      "{\"op\":\"worst_case\",\"query\":\"Q6\",\"deltas\":[0.5]}"
  in
  Alcotest.(check bool) "sub-1 deltas rejected" false (bool_field bad_deltas "ok")

(* Golden digests over the ladder: the worst_case and select responses
   of three keys under budgets that land the select ladder on each
   reachable tier.  Per key: unlimited and exactly the exhaustive select
   tier's charge (exhaustive), one unit less and exactly the
   branch-and-bound tier's charge (branch-and-bound), and one unit less
   again (the Monte-Carlo floor).  The fractional select tier is charged
   at 1024 units per (candidate, candidate, delta) cell, above every
   branch-and-bound total on these keys, so no budget reaches it.

   Search nodes are the branch-and-bound tiers' budget currency, so the
   full digest moves whenever a search visits a different number of
   nodes: [spent], and the tier of a request at an exactly tuned budget,
   follow the node counts.  It was last re-derived for the threshold
   bound (DESIGN.md section 20), which also moved the branch-and-bound
   charges above.  The payload digest covers only what no node count may
   change — the points and choices of the exact tiers' (non-degraded)
   responses — and was committed from the engine before that bound. *)
let golden_ladder =
  [
    ("Q6", "same", [ 1_000_000_000; 100; 99; 46; 45 ]);
    ("Q1", "per-table", [ 1_000_000_000; 25; 24; 6; 5 ]);
    ("Q10", "split", [ 1_000_000_000; 16_827_748; 16_827_747; 81_504; 81_503 ]);
  ]

let golden_select_paths =
  [
    "exhaustive sweep";
    "exhaustive sweep";
    "branch-and-bound";
    "branch-and-bound";
    "monte-carlo estimate";
  ]

(* [f op response] over the ladder's requests, in order, on one server;
   checks each select's tier on the way. *)
let iter_golden_ladder f =
  let t = Server.create () in
  let id = ref 0 in
  List.iter
    (fun (query, layout, budgets) ->
      List.iter2
        (fun budget select_path ->
          List.iter
            (fun op ->
              incr id;
              let resp =
                Server.handle_line t
                  (Printf.sprintf
                     "{\"id\":%d,\"op\":%S,\"query\":%S,\"layout\":%S,\
                      \"deltas\":[1,10,100],\"seed\":42,\"max_probes\":300,\
                      \"budget\":%d}"
                     !id op query layout budget)
              in
              if String.equal op "select" then
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s budget %d" query layout budget)
                  select_path (str_field resp "path");
              f op resp)
            [ "worst_case"; "select" ])
        budgets golden_select_paths)
    golden_ladder

let test_golden_ladder_digest () =
  let b = Buffer.create 65536 in
  iter_golden_ladder (fun _ resp ->
      Buffer.add_string b resp;
      Buffer.add_char b '\n');
  Alcotest.(check string)
    "digest" "fb10d70c8520aeba01bc6bc2c3910c41"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_golden_ladder_payloads () =
  let b = Buffer.create 65536 in
  iter_golden_ladder (fun op resp ->
      if not (bool_field resp "degraded") then begin
        let key = if String.equal op "select" then "choices" else "points" in
        match response_field resp key with
        | Some v ->
            Buffer.add_string b (Json.to_string v);
            Buffer.add_char b '\n'
        | None -> Alcotest.failf "%s response without %s" op key
      end);
  Alcotest.(check string)
    "payload digest" "6af725371b7327751d1d00f7df6e971f"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Requests through [Server.run_stdio], over temporary files: the
   response lines for [input]. *)
let serve_stdio input =
  let inp = Filename.temp_file "qsens_stdio" ".in" in
  let out = Filename.temp_file "qsens_stdio" ".out" in
  Out_channel.with_open_bin inp (fun oc -> output_string oc input);
  let t = Server.create ~config:small_config () in
  In_channel.with_open_bin inp (fun ic ->
      Out_channel.with_open_bin out (fun oc -> Server.run_stdio t ic oc));
  let lines =
    In_channel.with_open_bin out In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
  in
  Sys.remove inp;
  Sys.remove out;
  lines

let error_kind line =
  match Option.bind (response_field line "error") (Json.member "kind") with
  | Some (Json.Str k) -> k
  | _ -> ""

let ping = "{\"op\":\"ping\"}"

let error_message line =
  match Option.bind (response_field line "error") (Json.member "message") with
  | Some (Json.Str m) -> m
  | _ -> ""

let test_non_finite_deltas () =
  (* "inf" and 1e999 decode to +inf; an unbounded box would answer
     gtc = -inf, outside Theorem 1's [1, delta^2], and candidate
     discovery over it would claim a verified-complete set.  Typed errors
     instead, with the sub-1 handling unchanged. *)
  let t = Server.create ~config:small_config () in
  let check_error name line message =
    let resp = Server.handle_line t line in
    Alcotest.(check bool) (name ^ ": not ok") false (bool_field resp "ok");
    Alcotest.(check string) (name ^ ": kind") "malformed" (error_kind resp);
    Alcotest.(check string) (name ^ ": message") message (error_message resp)
  in
  List.iter
    (fun op ->
      let req field value =
        Printf.sprintf
          "{\"op\":%S,\"query\":\"Q6\",\"layout\":\"same\",%S:%s}" op
          field value
      in
      check_error (op ^ " deltas inf") (req "deltas" "[\"inf\"]")
        "\"deltas\" must be finite";
      check_error (op ^ " deltas 1e999") (req "deltas" "[10,1e999]")
        "\"deltas\" must be finite";
      check_error (op ^ " delta inf") (req "delta" "\"inf\"")
        "\"delta\" must be finite";
      check_error (op ^ " delta 1e999") (req "delta" "1e999")
        "\"delta\" must be finite";
      check_error (op ^ " deltas sub-1") (req "deltas" "[0.5]")
        "\"deltas\" must be a non-empty array of numbers >= 1";
      check_error (op ^ " delta sub-1") (req "delta" "0.5")
        "\"delta\" must be >= 1")
    [ "worst_case"; "select" ];
  let candidates delta =
    Printf.sprintf
      "{\"op\":\"candidates\",\"query\":\"Q6\",\"layout\":\"same\",\
       \"delta\":%s}"
      delta
  in
  check_error "candidates delta inf" (candidates "\"inf\"")
    "\"delta\" must be finite";
  check_error "candidates delta 1e999" (candidates "1e999")
    "\"delta\" must be finite";
  (* Below 1 the request still falls back to the default grid's top. *)
  Alcotest.(check bool) "candidates delta sub-1 ok" true
    (bool_field (Server.handle_line t (candidates "0.5")) "ok")

let test_line_too_long () =
  let long = String.make (Server.max_line_bytes + 1) 'x' in
  match serve_stdio (long ^ "\n" ^ ping ^ "\n") with
  | [ err; pong ] ->
      Alcotest.(check string) "typed error" "malformed" (error_kind err);
      let message =
        Option.bind (response_field err "error") (Json.member "message")
        |> Fun.flip Option.bind Json.to_str
        |> Option.value ~default:""
      in
      Alcotest.(check bool) "names the cap" true
        (String.length message > 0
        && List.mem (string_of_int Server.max_line_bytes)
             (String.split_on_char ' ' message));
      Alcotest.(check string) "then serves on" "pong" (str_field pong "op")
  | lines -> Alcotest.failf "expected 2 responses, got %d" (List.length lines)

let test_line_at_cap () =
  (* A ping padded to exactly the cap is served. *)
  let head = "{\"op\":\"ping\",\"pad\":\"" and tail = "\"}" in
  let pad =
    String.make
      (Server.max_line_bytes - String.length head - String.length tail)
      'x'
  in
  let line = head ^ pad ^ tail in
  Alcotest.(check int) "exactly the cap" Server.max_line_bytes
    (String.length line);
  match serve_stdio (line ^ "\n") with
  | [ pong ] -> Alcotest.(check string) "served" "pong" (str_field pong "op")
  | lines -> Alcotest.failf "expected 1 response, got %d" (List.length lines)

let test_eof_mid_line () =
  (* The last line, cut off by EOF, is answered like any other; so is an
     over-long one. *)
  (match serve_stdio (ping ^ "\n{\"op\":\"pi") with
  | [ pong; err ] ->
      Alcotest.(check string) "first served" "pong" (str_field pong "op");
      Alcotest.(check string) "truncated: malformed" "malformed"
        (error_kind err)
  | lines -> Alcotest.failf "expected 2 responses, got %d" (List.length lines));
  match serve_stdio (String.make (Server.max_line_bytes + 7) 'x') with
  | [ err ] ->
      Alcotest.(check string) "over-long at EOF: malformed" "malformed"
        (error_kind err)
  | lines -> Alcotest.failf "expected 1 response, got %d" (List.length lines)

let test_degradation_ladder () =
  let t = Server.create ~config:small_config () in
  let full = Server.handle_line t (wc_request ~budget:1_000_000_000 ()) in
  Alcotest.(check string) "full budget path" "exhaustive sweep"
    (str_field full "path");
  Alcotest.(check bool) "full budget not degraded" false
    (bool_field full "degraded");
  let tight = Server.handle_line t (wc_request ~budget:40 ~id:2 ()) in
  Alcotest.(check string) "tight budget path" "branch-and-bound"
    (str_field tight "path");
  Alcotest.(check bool) "tight budget degraded" true
    (bool_field tight "degraded");
  let floor = Server.handle_line t (wc_request ~budget:4 ~id:3 ()) in
  Alcotest.(check string) "floor path" "monte-carlo estimate"
    (str_field floor "path");
  Alcotest.(check bool) "floor annotated" true
    (String.length (str_field floor "confidence") > 0);
  (* The degraded tiers still answer on every requested delta. *)
  List.iter
    (fun line ->
      match Option.bind (response_field line "points") Json.to_list with
      | Some pts -> Alcotest.(check int) "three points" 3 (List.length pts)
      | None -> Alcotest.fail "no points")
    [ full; tight; floor ]

let test_select_op () =
  let t = Server.create ~config:small_config () in
  let full = Server.handle_line t (select_request ()) in
  Alcotest.(check bool) "select ok" true (bool_field full "ok");
  Alcotest.(check string) "full budget path" "exhaustive sweep"
    (str_field full "path");
  Alcotest.(check bool) "not degraded" false (bool_field full "degraded");
  let choices =
    match Option.bind (response_field full "choices") Json.to_list with
    | Some cs -> cs
    | None -> Alcotest.fail "no choices"
  in
  Alcotest.(check int) "one choice per delta" 3 (List.length choices);
  let int_of c key =
    match Option.bind (Json.member key c) Json.to_int with
    | Some i -> i
    | None -> Alcotest.fail ("choice missing " ^ key)
  in
  List.iter
    (fun c ->
      (* LEC == classic over the symmetric box (DESIGN.md section 15). *)
      Alcotest.(check int) "lec == classic" (int_of c "classic")
        (int_of c "lec"))
    choices;
  (match choices with
  | point :: _ ->
      (* First delta is 1: the box is a point, all rules coincide. *)
      Alcotest.(check int) "point box minimax == classic"
        (int_of point "classic") (int_of point "minimax")
  | [] -> ());
  (* Warm replay from the caches must be byte-identical. *)
  Alcotest.(check string) "cold == warm" full
    (Server.handle_line t (select_request ()));
  (* Out of budget: the floor answers, annotated as an estimate. *)
  let floor = Server.handle_line t (select_request ~budget:4 ~id:2 ()) in
  Alcotest.(check bool) "floor ok" true (bool_field floor "ok");
  Alcotest.(check string) "floor path" "monte-carlo estimate"
    (str_field floor "path");
  Alcotest.(check bool) "floor degraded" true (bool_field floor "degraded");
  Alcotest.(check bool) "floor annotated" true
    (String.length (str_field floor "confidence") > 0);
  match Option.bind (response_field floor "choices") Json.to_list with
  | Some cs -> Alcotest.(check int) "floor still answers all deltas" 3
      (List.length cs)
  | None -> Alcotest.fail "floor has no choices"

let test_batch_shedding () =
  let t = Server.create ~config:small_config () in
  let line =
    "{\"op\":\"batch\",\"requests\":[{\"id\":1,\"op\":\"ping\"},{\"id\":2,\
     \"op\":\"ping\"},{\"id\":3,\"op\":\"ping\"},{\"id\":4,\"op\":\"ping\"}]}"
  in
  let resp = Server.handle_line t line in
  match Option.bind (response_field resp "responses") Json.to_list with
  | None -> Alcotest.fail "no responses"
  | Some subs ->
      let oks =
        List.filter
          (fun s ->
            Option.value ~default:false
              (Option.bind (Json.member "ok" s) Json.to_bool))
          subs
      in
      Alcotest.(check int) "queue_limit processed" 2 (List.length oks);
      Alcotest.(check int) "rest shed" 2 (List.length subs - List.length oks);
      let kinds =
        List.filter_map
          (fun s ->
            Option.bind
              (Option.bind (Json.member "error" s) (Json.member "kind"))
              Json.to_str)
          subs
      in
      Alcotest.(check (list string)) "typed sheds" [ "shed"; "shed" ] kinds

let test_circuit_breaker () =
  let plan =
    match Fault.plan_of_string "fail=1,seed=3" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let t =
    Server.create ~config:small_config ~faults:(Fault.injector plan) ()
  in
  let kinds =
    List.init 7 (fun i ->
        let resp =
          Server.handle_line t
            (Printf.sprintf
               "{\"id\":%d,\"op\":\"candidates\",\"query\":\"Q6\"}" i)
        in
        match
          Option.bind (response_field resp "error") (Json.member "kind")
        with
        | Some (Json.Str k) -> k
        | _ -> "ok")
  in
  Alcotest.(check (list string))
    "five failures trip the breaker"
    [
      "failed"; "failed"; "failed"; "failed"; "failed"; "circuit_open";
      "circuit_open";
    ]
    kinds;
  (* The loop survived all of it. *)
  Alcotest.(check bool) "still serving" true
    (bool_field (Server.handle_line t "{\"op\":\"ping\"}") "ok")

(* ------------------------------------------------------------------ *)
(* Response invariance under cache state (the satellite qcheck).

   Op alphabet: three worst_case variants (budgets spanning the whole
   ladder), a second query (so a tiny byte budget forces evictions),
   and the invalidation scopes.  Whatever sequence runs — whatever
   mixture of hits, misses, invalidations and evictions it produces —
   every worst_case response must be byte-identical to the canonical
   response computed on a fresh server. *)

let op_lines =
  [|
    wc_request ~id:0 ~budget:1_000_000_000 ();
    wc_request ~id:1 ~budget:64 ();
    wc_request ~id:2 ~budget:4 ();
    wc_request ~id:3 ~query:"Q1" ~budget:1_000_000_000 ();
    select_request ~id:4 ~budget:1_000_000_000 ();
    select_request ~id:5 ~query:"Q1" ~budget:64 ();
    "{\"id\":6,\"op\":\"invalidate\",\"scope\":\"all\"}";
    "{\"id\":7,\"op\":\"invalidate\",\"scope\":\"sweeps\"}";
    "{\"id\":8,\"op\":\"invalidate\",\"scope\":\"candidates\"}";
  |]

let tiny_cache_config =
  { small_config with Server.cache_bytes = 300 (* forces evictions *) }

let canonical =
  let memo = Hashtbl.create 8 in
  fun op ->
    match Hashtbl.find_opt memo op with
    | Some r -> r
    | None ->
        let fresh = Server.create ~config:tiny_cache_config () in
        let r = Server.handle_line fresh op_lines.(op) in
        Hashtbl.replace memo op r;
        r

let prop_cache_state_invariance =
  QCheck.Test.make ~count:30
    ~name:"server: responses invariant under hit/miss/eviction interleaving"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 10) (int_range 0 8)))
    (fun ops ->
      let t = Server.create ~config:tiny_cache_config () in
      List.for_all
        (fun op ->
          let resp = Server.handle_line t op_lines.(op) in
          if op <= 5 then String.equal resp (canonical op) else true)
        ops)

let test_snapshot_reload () =
  let path = Filename.temp_file "qsens_server" ".snap" in
  let a = Server.create ~config:small_config () in
  let first = Server.handle_line a (wc_request ()) in
  Server.save_snapshot a path;
  let b =
    Server.create
      ~config:{ small_config with Server.snapshot_path = Some path }
      ()
  in
  let warmed = Server.handle_line b (wc_request ()) in
  Alcotest.(check string) "warm response identical" first warmed;
  let stats = Server.handle_line b "{\"op\":\"stats\"}" in
  let cache_stat cache field =
    match
      Option.bind
        (Option.bind
           (Option.bind (response_field stats "caches") (Json.member cache))
           (Json.member field))
        Json.to_int
    with
    | Some n -> n
    | None -> Alcotest.fail "missing cache stat"
  in
  (* The warm server served from the snapshot: hits, no discovery miss. *)
  Alcotest.(check int) "candidates hit" 1 (cache_stat "candidates" "hits");
  Alcotest.(check int) "candidates no miss" 0
    (cache_stat "candidates" "misses");
  Alcotest.(check int) "sweep hit" 1 (cache_stat "sweeps" "hits");
  (* A corrupt snapshot is rejected without touching the caches. *)
  let oc = open_out path in
  output_string oc "not a snapshot";
  close_out oc;
  Alcotest.(check bool) "corrupt snapshot rejected" false
    (Server.load_snapshot b path);
  let again = Server.handle_line b (wc_request ()) in
  Alcotest.(check string) "caches intact after rejected load" first again;
  Sys.remove path

let test_snapshot_failure () =
  (* An unwritable temp location: the op maps the Sys_error to a typed
     "failed" response, nothing appears at the target path, and the
     loop keeps serving; with the obstruction cleared the same op
     succeeds and leaves no temp file behind. *)
  let t = Server.create ~config:small_config () in
  ignore (Server.handle_line t (wc_request ()) : string);
  let dir = Filename.temp_file "qsens_snapfail" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "snap" in
  Sys.mkdir (path ^ ".tmp") 0o700 (* blocks open_out_bin *);
  (match Server.save_snapshot t path with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  let snap_line id =
    Printf.sprintf "{\"id\":%d,\"op\":\"snapshot\",\"path\":%S}" id path
  in
  let resp = Server.handle_line t (snap_line 9) in
  Alcotest.(check bool) "failed snapshot not ok" false (bool_field resp "ok");
  Alcotest.(check string) "typed failure" "failed"
    (match
       Option.bind (response_field resp "error") (Json.member "kind")
     with
    | Some (Json.Str k) -> k
    | _ -> "");
  Alcotest.(check bool) "no snapshot file appeared" false
    (Sys.file_exists path);
  Alcotest.(check bool) "loop alive" true
    (bool_field (Server.handle_line t "{\"op\":\"ping\"}") "ok");
  Sys.rmdir (path ^ ".tmp");
  let good = Server.handle_line t (snap_line 10) in
  Alcotest.(check bool) "snapshot ok after clearing" true
    (bool_field good "ok");
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists path);
  Alcotest.(check bool) "no temp left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool) "snapshot loads back" true
    (Server.load_snapshot t path);
  Sys.remove path;
  Sys.rmdir dir

let test_pool_independence () =
  (* Non-degraded responses must not depend on the pool size. *)
  let seq = Server.create ~config:small_config () in
  let par = Server.create ~config:small_config ~pool:pool2 () in
  List.iter
    (fun req ->
      Alcotest.(check string)
        "pool-1 == pool-2 response"
        (Server.handle_line seq req) (Server.handle_line par req))
    [ wc_request (); wc_request ~query:"Q1" ~layout:"per-table" ~id:2 () ]

(* ------------------------------------------------------------------ *)
(* The fault-injected soak *)

let check_soak ?(want_degraded = true) name (o : Soak.outcome) =
  List.iter
    (fun m -> Printf.printf "%s mismatch: %s\n" name m)
    o.Soak.mismatches;
  Alcotest.(check (list string)) (name ^ ": no mismatches") [] o.Soak.mismatches;
  Alcotest.(check bool) (name ^ ": alive") true o.Soak.alive;
  Alcotest.(check bool) (name ^ ": verified > 0") true (o.Soak.verified > 0);
  Alcotest.(check bool) (name ^ ": sheds seen") true (o.Soak.shed > 0);
  if want_degraded then
    Alcotest.(check bool) (name ^ ": degradation seen") true (o.Soak.degraded > 0)

let test_soak_sequential () =
  check_soak "sequential" (Soak.run Soak.default_config)

let test_soak_interleaved () =
  let o = Soak.run { Soak.default_config with Soak.ordering = Soak.Interleaved } in
  check_soak "interleaved" o

let test_soak_faulted () =
  let plan =
    match Fault.plan_of_string "fail=0.3,timeout=0.2,seed=11" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let o =
    Soak.run
      {
        Soak.default_config with
        Soak.faults = Some (Fault.injector plan);
        ordering = Soak.Interleaved;
      }
  in
  (* Faults may eat any number of requests — including every degraded
     one — but never the loop, and never bit-identity of survivors. *)
  List.iter
    (fun m -> Printf.printf "faulted mismatch: %s\n" m)
    o.Soak.mismatches;
  Alcotest.(check (list string)) "faulted: no mismatches" [] o.Soak.mismatches;
  Alcotest.(check bool) "faulted: alive" true o.Soak.alive;
  Alcotest.(check bool) "faulted: faults landed" true (o.Soak.errors > 1)

let test_soak_pooled () =
  let o = Soak.run { Soak.default_config with Soak.pool = Some pool2 } in
  check_soak "pooled" o

(* ------------------------------------------------------------------ *)
(* Seeded JSON fuzzer: the parser against its pre-rewrite reference
   ([Json_ref]), and the server's line handler on the same hostile
   input.  Inputs come from a grammar of JSON text with malformed,
   huge, tiny and non-finite numbers, valid and bad escapes, unknown
   fields and server requests, then get mutated byte by byte. *)

module Fuzz = struct
  open QCheck.Gen

  let number =
    oneof
      [
        map string_of_int (int_range (-1_000_000) 1_000_000);
        map (Printf.sprintf "%.17g") (float_range (-1e6) 1e6);
        map (fun e -> Printf.sprintf "1e%d" e) (int_range (-400) 400);
        map (fun e -> Printf.sprintf "-2.5E+%d" e) (int_range 300 330);
        oneofl
          [ "0"; "-0"; "1e400"; "-1e400"; "1e-400"; "4.9e-324"; "2.4e-324";
            "1.7976931348623157e308"; "1.8e308"; "123456789012345678901234567890";
            "1.2.3"; "--1"; "+1"; ".5"; "5."; "1e"; "1e+"; "-"; "+"; "e5"; "E";
            "0x10"; "1_000"; "nan"; "NaN"; "inf"; "-inf"; "Infinity"; "00012";
            "1e5e5"; "\"inf\""; "\"-inf\""; "\"nan\"" ];
      ]

  let hex = oneofl [ "0041"; "00e9"; "20AC"; "ffff"; "0000"; "d800"; "7FfF" ]

  let fragment =
    frequency
      [
        (4, string_size ~gen:printable (int_range 0 8));
        (2, oneofl [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t" ]);
        (2, map (fun h -> "\\u" ^ h) hex);
        ( 2,
          oneofl
            [ "\\u12"; "\\u12G4"; "\\u_123"; "\\u00_1"; "\\u"; "\\q"; "\\";
              "\\x41"; "\\U0041" ] );
        (1, map (String.make 1) (map Char.chr (int_range 0 31)));
        (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xff"; "\x80" ]);
      ]

  let str =
    map
      (fun frags -> "\"" ^ String.concat "" frags ^ "\"")
      (list_size (int_range 0 5) fragment)

  let ws = oneofl [ ""; ""; ""; " "; "\n"; "\t"; "\r\n "; "\x0b"; "\x00" ]

  let literal =
    oneofl [ "true"; "false"; "null"; "tru"; "nul"; "falsy"; "True"; "n" ]

  let key =
    frequency
      [
        ( 4,
          oneofl
            [ "\"id\""; "\"op\""; "\"query\""; "\"layout\""; "\"deltas\"";
              "\"delta\""; "\"seed\""; "\"max_probes\""; "\"budget\"";
              "\"scope\""; "\"requests\""; "\"initial\""; "\"bogus\""; "\"\"" ] );
        (1, str);
        (1, oneofl [ "id"; "'op'"; "1"; "" ]);
      ]

  (* Separators with occasional mistakes: a missing or doubled comma,
     a trailing comma, a missing colon. *)
  let comma = frequency [ (12, return ","); (1, oneofl [ ""; ",,"; ";" ]) ]
  let colon = frequency [ (12, return ":"); (1, oneofl [ ""; "::"; "=" ]) ]
  let close c = frequency [ (12, return c); (1, oneofl [ ""; ",]"; ",}" ]) ]

  let join sep items =
    match items with
    | [] -> return ""
    | first :: rest ->
        List.fold_left
          (fun acc item -> map2 (fun a s -> a ^ s ^ item) acc sep)
          (return first) rest

  let rec value depth =
    let scalar = frequency [ (3, number); (3, str); (2, literal) ] in
    let v =
      if depth <= 0 then scalar
      else
        frequency
          [
            (4, scalar);
            ( 1,
              list_size (int_range 0 4) (value (depth - 1)) >>= fun items ->
              map2 (fun body c -> "[" ^ body ^ c) (join comma items) (close "]") );
            ( 2,
              list_size (int_range 0 4) (map3 (fun k c v -> k ^ c ^ v) key colon (value (depth - 1)))
              >>= fun fields ->
              map2 (fun body c -> "{" ^ body ^ c) (join comma fields) (close "}") );
          ]
    in
    map3 (fun a v b -> a ^ v ^ b) ws v ws

  (* Requests the server can act on: cheap queries only, with hostile
     parameters. *)
  let request =
    let field k g = map (fun v -> Printf.sprintf "%S:%s" k v) g in
    let op =
      oneofl
        [ "ping"; "stats"; "invalidate"; "shutdown"; "worst_case"; "select";
          "candidates"; "batch"; "frobnicate"; "" ]
    in
    let deltas = map (fun l -> "[" ^ String.concat "," l ^ "]") (list_size (int_range 0 4) number) in
    let params =
      [
        field "query" (oneofl [ "\"Q6\""; "\"Q99\""; "\"\""; "7"; "null" ]);
        field "layout" (oneofl [ "\"same\""; "\"per-table\""; "\"split\""; "\"bogus\""; "1" ]);
        field "deltas" (frequency [ (3, deltas); (1, value 1) ]);
        field "delta" number;
        field "budget" number;
        field "seed" number;
        field "max_probes" (oneofl [ "50"; "0"; "-1"; "1e9"; "2.5"; "\"x\"" ]);
        field "scope" (oneofl [ "\"all\""; "\"sweeps\""; "\"candidates\""; "\"bogus\"" ]);
        field "id" (value 1);
        field "unknown_field" (value 1);
      ]
    in
    let target =
      frequency
        [
          (3, map2 (fun q l -> [ q; l ]) (List.nth params 0) (List.nth params 1));
          (1, return []);
        ]
    in
    let one =
      op >>= fun op ->
      target >>= fun target ->
      list_size (int_range 0 4) (oneof params) >>= fun ps ->
      return
        ("{" ^ String.concat "," ((Printf.sprintf "\"op\":%S" op :: target) @ ps) ^ "}")
    in
    frequency
      [
        (4, one);
        ( 1,
          list_size (int_range 0 4) one >>= fun subs ->
          return ("{\"op\":\"batch\",\"requests\":[" ^ String.concat "," subs ^ "]}") );
      ]

  (* A handful of byte edits: truncate, insert, delete or replace. *)
  let mutate s =
    list_size (int_range 1 3) (triple (int_range 0 3) (int_range 0 max_int) char)
    >>= fun edits ->
    return
      (List.fold_left
         (fun s (kind, at, c) ->
           let n = String.length s in
           let i = if n = 0 then 0 else at mod (n + 1) in
           match kind with
           | 0 -> String.sub s 0 i
           | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
           | 2 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
           | _ when i < n -> String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
           | _ -> s)
         s edits)

  let input =
    let doc = frequency [ (3, value 4); (2, request) ] in
    frequency
      [
        (4, doc);
        (3, doc >>= mutate);
        (1, string_size ~gen:char (int_range 0 64));
      ]
end

let same_parse s =
  match (Json.of_string s, Json_ref.of_string s) with
  | Ok v, Ok w -> json_equal v w
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let error_kinds = [ "malformed"; "shed"; "circuit_open"; "failed"; "unsupported" ]

(* A typed response: an object whose [ok] is a boolean and which, when
   false, names one of the error kinds. *)
let typed_response line =
  match Json.of_string line with
  | Ok resp -> (
      match Option.bind (Json.member "ok" resp) Json.to_bool with
      | Some true -> true
      | Some false -> (
          match Option.bind (Json.member "error" resp) (Json.member "kind") with
          | Some (Json.Str k) -> List.mem k error_kinds
          | _ -> false)
      | None -> false)
  | Error _ -> false

let fuzz_server = lazy (Server.create ~config:small_config ())

let handled s =
  match Server.handle_line (Lazy.force fuzz_server) s with
  | line -> typed_response line
  | exception _ -> false

let prop_json_fuzz =
  QCheck.Test.make ~count:10_000
    ~name:"fuzz: Json.of_string == reference, handle_line typed"
    (QCheck.make ~print:(Printf.sprintf "%S") Fuzz.input)
    (fun s -> same_parse s && handled s)

(* Every prefix of a few well-formed requests, and nesting hundreds of
   thousands of levels deep, closed, unclosed and truncated. *)
let test_json_fuzz_fixed () =
  let check what s =
    Alcotest.(check bool) (what ^ ": parse == reference") true (same_parse s);
    Alcotest.(check bool) (what ^ ": typed response") true (handled s)
  in
  List.iter
    (fun doc ->
      for i = 0 to String.length doc - 1 do
        check (Printf.sprintf "prefix %d of %S" i doc) (String.sub doc 0 i)
      done)
    [
      wc_request ();
      select_request ~layout:"per-table" ();
      "{\"id\":\"\\u00e9\\n\",\"op\":\"batch\",\"requests\":[{\"op\":\"ping\"},\
       {\"op\":\"stats\",\"x\":[1e400,-0,2.5E-3,true,null]}]}";
    ];
  let nest depth o c = String.make depth o ^ String.make depth c in
  check "deep arrays" (nest 300_000 '[' ']');
  check "deep arrays, unclosed" (String.make 300_000 '[');
  check "deep arrays, truncated" (String.sub (nest 300_000 '[' ']') 0 450_000);
  check "deep objects"
    (String.concat "" (List.init 100_000 (fun _ -> "{\"a\":"))
    ^ "1" ^ String.make 100_000 '}');
  check "deep id" ("{\"op\":\"ping\",\"id\":" ^ nest 100_000 '[' ']' ^ "}")

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "golden" `Quick test_json_golden;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_float_tokens;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_json_fuzz;
          Alcotest.test_case "prefixes and deep nesting" `Quick
            test_json_fuzz_fixed;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "recency" `Quick test_lru_recency;
          Alcotest.test_case "replace and oversized" `Quick
            test_lru_replace_and_oversized;
          Alcotest.test_case "alist oldest-first" `Quick
            test_lru_alist_oldest_first;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "basics" `Quick test_server_basics;
          Alcotest.test_case "non-finite deltas" `Quick test_non_finite_deltas;
          Alcotest.test_case "golden ladder digest" `Quick
            test_golden_ladder_digest;
          Alcotest.test_case "golden ladder payloads" `Quick
            test_golden_ladder_payloads;
          Alcotest.test_case "line too long" `Quick test_line_too_long;
          Alcotest.test_case "line at the cap" `Quick test_line_at_cap;
          Alcotest.test_case "EOF mid-line" `Quick test_eof_mid_line;
          Alcotest.test_case "degradation ladder" `Quick
            test_degradation_ladder;
          Alcotest.test_case "select op" `Quick test_select_op;
          Alcotest.test_case "batch shedding" `Quick test_batch_shedding;
          Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker;
        ] );
      ( "caching",
        [
          QCheck_alcotest.to_alcotest prop_cache_state_invariance;
          Alcotest.test_case "snapshot reload" `Quick test_snapshot_reload;
          Alcotest.test_case "snapshot failure" `Quick test_snapshot_failure;
          Alcotest.test_case "pool independence" `Quick
            test_pool_independence;
        ] );
      ( "soak",
        [
          Alcotest.test_case "sequential" `Quick test_soak_sequential;
          Alcotest.test_case "interleaved" `Quick test_soak_interleaved;
          Alcotest.test_case "fault-injected" `Quick test_soak_faulted;
          Alcotest.test_case "pooled" `Quick test_soak_pooled;
        ] );
    ]
