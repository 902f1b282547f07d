(* The serve-mix workload: a seeded request stream through one in-process
   server ([Server.handle_line]), closed loop, one client, no think time.

   The mix is fixed in proportion and the seed draws its order:
   50% worst_case, 25% select, 15% candidates, 2.5% ping, 2.5% stats and
   5% malformed requests (unknown query, bad layout, missing op,
   non-JSON, delta < 1).  Analysis requests spread over the keys with
   Zipf(1) popularity in key order, so the simple layouts are asked about
   most.  Within each op a tenth of the requests carry budget 2000 (the
   Monte-Carlo floor), a tenth budget 200000 (the branch-and-bound tier)
   and the rest the default.  Apportioning the counts exactly, rather
   than sampling them, keeps the cold work (one discovery per key) the
   same for every seed; the seed moves which requests hit, miss and
   evict. *)

open Qsens_core
module Json = Qsens_server.Json
module Server = Qsens_server.Server
module Soak = Qsens_server.Soak
module Obs = Qsens_obs.Obs
module Clock = Qsens_obs.Clock

let queries =
  [ "Q3"; "Q4"; "Q6"; "Q10"; "Q11"; "Q12"; "Q13"; "Q14"; "Q15"; "Q16"; "Q17";
    "Q19"; "Q22" ]

let keys layouts queries =
  List.concat_map (fun l -> List.map (fun q -> (q, l)) queries) layouts

let full_keys = keys [ "same"; "per-table"; "split" ] queries

(* The smoke leaves out the layouts and queries whose cold discovery
   takes more than a few tens of milliseconds. *)
let smoke_keys =
  keys [ "same"; "per-table" ]
    (List.filter (fun q -> q <> "Q3" && q <> "Q10") queries)

(* 16 MiB is below the sweep tables' working set, so the sweeps cache
   evicts; the candidates and bnb caches fit. *)
let config = { Server.default_config with cache_bytes = 16 lsl 20 }

type malformed = Unknown_query | Bad_layout | Missing_op | Not_json | Small_delta

type kind =
  | Analysis of { op : string; query : string; layout : string }
  | Ping
  | Stats
  | Malformed of malformed

type request = { kind : kind; line : string }

(* Largest-remainder apportionment of [total] by [weights]. *)
let apportion total weights =
  let sum = Array.fold_left ( +. ) 0. weights in
  let quota = Array.map (fun w -> Float.of_int total *. w /. sum) weights in
  let counts = Array.map Float.to_int quota in
  let short = total - Array.fold_left ( + ) 0 counts in
  let rem i = quota.(i) -. Float.of_int counts.(i) in
  List.init (Array.length weights) Fun.id
  |> List.stable_sort (fun i j -> Float.compare (rem j) (rem i))
  |> List.iteri (fun k i -> if k < short then counts.(i) <- counts.(i) + 1);
  counts

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let line fields = Json.to_string (Json.Obj fields)

let render ~id kind =
  let id = ("id", Json.num (Float.of_int id)) in
  let target q l = [ ("query", Json.Str q); ("layout", Json.Str l) ] in
  match kind with
  | Ping -> line [ id; ("op", Json.Str "ping") ]
  | Stats -> line [ id; ("op", Json.Str "stats") ]
  | Analysis { op; query; layout } ->
      line ((id :: ("op", Json.Str op) :: target query layout))
  | Malformed Unknown_query ->
      line (id :: ("op", Json.Str "worst_case") :: target "Q99" "same")
  | Malformed Bad_layout ->
      line (id :: ("op", Json.Str "select") :: target "Q6" "raid0")
  | Malformed Missing_op -> line (id :: target "Q6" "same")
  | Malformed Not_json -> {|{"op":"worst_case","query":"Q6"|}
  | Malformed Small_delta ->
      line
        ((id :: ("op", Json.Str "worst_case") :: target "Q6" "same")
        @ [ ("delta", Json.num 0.5) ])

let with_budget line budget =
  match budget with
  | None -> line
  | Some b ->
      (* Append the field inside the closing brace. *)
      String.sub line 0 (String.length line - 1)
      ^ Printf.sprintf ",\"budget\":%d}" b

let generate ~seed ~n ~keys =
  let st = Random.State.make [| seed |] in
  let keys = Array.of_list keys in
  let weights = Array.mapi (fun r _ -> 1. /. Float.of_int (r + 1)) keys in
  let per_mille p = n * p / 1000 in
  let analysis op count =
    let per_key = apportion count weights in
    let reqs =
      Array.concat
        (Array.to_list (Array.mapi (fun k c -> Array.make c keys.(k)) per_key))
    in
    shuffle st reqs;
    Array.mapi
      (fun i (query, layout) ->
        let budget =
          match i mod 10 with 0 -> Some 2000 | 5 -> Some 200_000 | _ -> None
        in
        (Analysis { op; query; layout }, budget))
      reqs
  in
  let fixed kind count = Array.make count (kind, None) in
  let parts =
    [ analysis "worst_case" (per_mille 500);
      analysis "select" (per_mille 250);
      analysis "candidates" (per_mille 150);
      fixed Ping (per_mille 25);
      fixed Stats (per_mille 25) ]
  in
  let malformed_total = n - List.fold_left (fun a p -> a + Array.length p) 0 parts in
  let kinds = [| Unknown_query; Bad_layout; Missing_op; Not_json; Small_delta |] in
  let malformed =
    Array.init malformed_total (fun i -> (Malformed kinds.(i mod 5), None))
  in
  let all = Array.concat (parts @ [ malformed ]) in
  shuffle st all;
  Array.mapi
    (fun id (kind, budget) -> { kind; line = with_budget (render ~id kind) budget })
    all

(* ---- one pass ------------------------------------------------------- *)

type out = {
  responses : string array;
  latencies : float array;  (** seconds per request *)
  missed : bool array;  (** the candidates cache missed (traced only) *)
  final_ping : string;
}

let counter name =
  List.fold_left
    (fun acc (m, v) ->
      match v with
      | Obs.Vcount c when String.equal (Obs.name m) name -> c
      | _ -> acc)
    0 (Obs.snapshot ())

let handle_traced server line =
  match Span.run "json.parse" (fun () -> Json.of_string line) with
  | Error _ -> Span.run "server.handle" (fun () -> Server.handle_line server line)
  | Ok req ->
      let resp = Span.run "server.handle" (fun () -> Server.handle server req) in
      Span.run "json.render" (fun () -> Json.to_string resp)

let pass ~traced server requests =
  let n = Array.length requests in
  let responses = Array.make n "" and latencies = Array.make n 0. in
  let missed = Array.make n false in
  Array.iteri
    (fun i r ->
      Span.set_id i;
      let before = if traced then counter "server.cache.candidates.misses" else 0 in
      let t0 = Clock.now_s () in
      responses.(i) <-
        (if traced then handle_traced server r.line
         else Server.handle_line server r.line);
      latencies.(i) <- Clock.now_s () -. t0;
      if traced then
        missed.(i) <- counter "server.cache.candidates.misses" > before)
    requests;
  let final_ping = Server.handle_line server {|{"op":"ping","id":"final"}|} in
  { responses; latencies; missed; final_ping }

let digest_text b out =
  Array.iter (fun r -> Buffer.add_string b r; Buffer.add_char b '\n') out.responses;
  Buffer.add_string b out.final_ping

(* ---- checks --------------------------------------------------------- *)

let field k j = Json.member k j
let str k j = Option.bind (field k j) Json.to_str
let bool k j = Option.bind (field k j) Json.to_bool

let expected_message = function
  | Unknown_query -> Some {|unknown query "Q99"|}
  | Bad_layout -> Some {|unknown layout "raid0"|}
  | Missing_op -> Some {|missing "op"|}
  | Small_delta -> Some {|"delta" must be >= 1|}
  | Not_json -> None

let reference ~op ~query ~layout =
  let f = if op = "select" then Soak.select_reference_line else Soak.reference_line in
  f ~sf:100. ~seed:config.seed ~deltas:Worst_case.default_deltas ~query ~layout ()

(* Failure messages, one per failed request.  [smoke] also compares the
   first answer for each key against a from-scratch computation. *)
let check ~smoke requests out =
  let fails = ref [] in
  let first : (string, string) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      let fail m = fails := Printf.sprintf "request %d (%s): %s" i r.line m :: !fails in
      match Json.of_string out.responses.(i) with
      | Error m -> fail ("unparsable response: " ^ m)
      | Ok resp -> (
          let ok = bool "ok" resp in
          match r.kind with
          | Ping ->
              if not (ok = Some true && str "op" resp = Some "pong") then
                fail "ping not answered"
          | Stats -> if ok <> Some true then fail "stats not answered"
          | Malformed m ->
              let err = Option.value ~default:Json.Null (field "error" resp) in
              let typed =
                ok = Some false
                && str "kind" err = Some "malformed"
                && (match expected_message m with
                   | None -> true
                   | Some msg -> str "message" err = Some msg)
              in
              if not typed then fail "malformed request without its typed error"
          | Analysis { op; query; layout } ->
              let degraded = bool "degraded" resp = Some true in
              if ok <> Some true then fail "valid request answered ok:false"
              else if degraded then begin
                if Option.value ~default:"" (str "path" resp) = "" then
                  fail "degraded response with an empty path"
              end
              else if op = "worst_case" || op = "select" then begin
                let name = if op = "select" then "choices" else "points" in
                let payload =
                  Json.to_string (Option.value ~default:Json.Null (field name resp))
                in
                let key = String.concat "|" [ op; query; layout ] in
                match Hashtbl.find_opt first key with
                | Some p -> if p <> payload then fail "payload differs from the first for its key"
                | None ->
                    Hashtbl.replace first key payload;
                    if smoke then
                      match reference ~op ~query ~layout with
                      | Ok ref_payload when ref_payload = payload -> ()
                      | Ok _ -> fail "first payload differs from the from-scratch reference"
                      | Error m -> fail ("reference failed: " ^ m)
              end))
    requests;
  (match Json.of_string out.final_ping with
  | Ok p when bool "ok" p = Some true -> ()
  | _ -> fails := "final ping not answered" :: !fails);
  List.rev !fails

(* ---- traced-pass extras --------------------------------------------- *)

let p50_ms xs = 1000. *. Stats.percentile 0.5 xs

let extras requests out =
  let pick f =
    List.filteri (fun i _ -> f i) (Array.to_list out.latencies)
  in
  let is_analysis i = match requests.(i).kind with Analysis _ -> true | _ -> false in
  let op_is o i = match requests.(i).kind with Analysis a -> a.op = o | _ -> false in
  let path_count p =
    Array.fold_left
      (fun acc r ->
        match Json.of_string r with
        | Ok j when str "path" j = Some p -> acc + 1
        | _ -> acc)
      0 out.responses
  in
  let misses = pick (fun i -> out.missed.(i)) in
  [ ("server.hit_p50_ms", p50_ms (pick (fun i -> is_analysis i && not out.missed.(i))));
    ("server.miss_p50_ms", p50_ms misses);
    ("server.miss_s", List.fold_left ( +. ) 0. misses);
    ("server.worst_case_p50_ms", p50_ms (pick (op_is "worst_case")));
    ("server.select_p50_ms", p50_ms (pick (op_is "select")));
    ("server.candidates_p50_ms", p50_ms (pick (op_is "candidates")));
    ("ladder.exhaustive", Float.of_int (path_count "exhaustive sweep"));
    ("ladder.bnb", Float.of_int (path_count "branch-and-bound"));
    ("ladder.fractional", Float.of_int (path_count "linear-fractional fallback"));
    ("ladder.monte_carlo", Float.of_int (path_count "monte-carlo estimate")) ]
