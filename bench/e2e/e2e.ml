(* End-to-end, layer-attributed benchmark.  README.md in this directory
   describes the workloads, the metrics and the comparison protocol.

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1|FILE]
     e2e.exe [--seed N] [--seconds S] [--trace ...]   every workload, each
                                                      in its own process
     e2e.exe --smoke            all checks at CI sizes, untraced and traced
     e2e.exe --regen-fixtures   rewrite fixtures/ for analyze-split
     e2e.exe --baseline FILE    5 untraced runs + 1 traced run per workload

   A run sets up several times (set-up time is the median), then repeats
   passes over its fixed inputs for about [--seconds], checks the first
   pass's outputs and the digest of every other, and prints the metrics.
   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace the run
   makes one untraced and one traced pass and prints the per-layer
   metrics instead of the end-to-end ones; a FILE argument also writes
   the traced pass's spans as a Chrome trace. *)

module Clock = Qsens_obs.Clock
module Obs = Qsens_obs.Obs
module Json = Qsens_server.Json
module Layout = Qsens_catalog.Layout

let workloads = [ "fig5"; "fig6-small"; "analyze-split"; "serve-mix" ]
let setup_repetitions = 7

(* ---- workloads ------------------------------------------------------ *)

type run = {
  ops : float array;  (** seconds per operation: an item or a request *)
  digest : unit -> string;  (** MD5 of the outputs, computed untimed *)
  check : unit -> string list;  (** one message per failed operation *)
  extras : unit -> (string * float) list;  (** traced-pass layer values *)
}

(* A workload is its set-up: it builds a fresh state and returns the pass
   that runs on it. *)
type workload = unit -> traced:bool -> run

let md5 f =
  let b = Buffer.create 65536 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* An untraced item runs again until its runs add up to [repeat_s], up to
   [max_runs] runs in all, and counts at its median run: one short
   measurement is at the mercy of the neighbours on a shared machine.  The
   first run's outputs are the item's.  Each run starts after a full major
   GC, so it pays for its own collection work and not for the garbage of
   the item before it; that alone doubled some items' times. *)
let repeat_s = 0.5
let max_runs = 25

let timed_item ~runs f =
  let time () =
    Gc.full_major ();
    let t0 = Clock.now_s () in
    let r = f () in
    (r, Clock.now_s () -. t0)
  in
  let first, t = time () in
  let rec more times =
    if List.length times >= runs || List.fold_left ( +. ) 0. times >= repeat_s
    then times
    else more (snd (time ()) :: times)
  in
  (first, Stats.median (more [ t ]))

let batch ~kind ~policy ~queries ~deltas =
  let setup () =
    let items = Array.of_list (Batch.setup_items kind ~policy queries) in
    fun ~traced ->
    let ops = Array.make (Array.length items) 0. in
    let run item () =
      match kind with
      | Batch.Figure -> Batch.run_figure ~traced ~deltas item
      | Batch.Analyze -> Batch.run_analyze ~deltas item
    in
    let outs =
      Array.mapi
        (fun i (item : Batch.item) ->
          Span.set_id i;
          match timed_item ~runs:(if traced then 1 else max_runs) (run item) with
          | o, t ->
              ops.(i) <- t;
              Ok o
          | exception e -> Error (item.query ^ ": " ^ Printexc.to_string e))
        items
    in
    let oks = List.filter_map Result.to_option (Array.to_list outs) in
    let digest () =
      md5 (fun b ->
          Array.iter
            (function
              | Ok o -> Batch.digest_text b o
              | Error m -> Printf.bprintf b "error %s\n" m)
            outs)
    in
    let check () =
      List.filter_map
        (function
          | Error m -> Some m
          | Ok o -> (
              match Batch.check ~deltas o with
              | [] -> None
              | ms -> Some (String.concat "; " ms)))
        (Array.to_list outs)
    in
    let extras () =
      let path_s prefix =
        List.fold_left
          (fun acc (o : Batch.out) ->
            match o.selection with
            | Some (_, p) when String.starts_with ~prefix p -> acc +. o.select_s
            | _ -> acc)
          0. oks
      in
      let count f = Float.of_int (List.length (List.filter f oks)) in
      [ ( "candidates.plans",
          if kind = Batch.Figure then
            List.fold_left (fun a (o : Batch.out) -> a +. Float.of_int (Array.length o.plans)) 0. oks
          else 0. );
        ( "candidates.unverified",
          if kind = Batch.Figure then count (fun (o : Batch.out) -> not o.verified) else 0. );
        ("select.exhaustive_s", path_s "exhaustive");
        ("select.bnb_s", path_s "branch-and-bound") ]
    in
    { ops; digest; check; extras }
  in
  setup

let serve ~smoke ~seed =
  let requests =
    if smoke then Serve.generate ~seed ~n:200 ~keys:Serve.smoke_keys
    else Serve.generate ~seed ~n:10_000 ~keys:Serve.full_keys
  in
  let setup () =
    let server = Qsens_server.Server.create ~config:Serve.config () in
    fun ~traced ->
      let out = Serve.pass ~traced server requests in
      {
        ops = out.latencies;
        digest = (fun () -> md5 (fun b -> Serve.digest_text b out));
        check = (fun () -> Serve.check ~smoke requests out);
        extras = (fun () -> Serve.extras requests out);
      }
  in
  setup

let workload ~smoke ~seed name =
  let deltas = Batch.deltas ~seed in
  let pick full small = if smoke then small else full in
  match name with
  | "fig5" ->
      batch ~kind:Batch.Figure ~policy:Layout.Same_device ~deltas
        ~queries:(pick Batch.fig5_queries [ "Q3"; "Q4"; "Q14" ])
  | "fig6-small" ->
      batch ~kind:Batch.Figure ~policy:Layout.Per_table_and_index_devices ~deltas
        ~queries:(pick Batch.fig6_small_queries [ "Q1"; "Q6" ])
  | "analyze-split" ->
      batch ~kind:Batch.Analyze ~policy:Fixture.policy ~deltas
        ~queries:(pick Fixture.queries [ "Q3" ])
  | "serve-mix" -> serve ~smoke ~seed
  | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)

(* ---- measurement ---------------------------------------------------- *)

(* Seconds per set-up: the median over [setup_repetitions] groups, each
   repeating the set-up for at least 20 ms so that sub-millisecond set-ups
   still read well above the clock's noise. *)
let setup_seconds (w : workload) =
  let group () =
    Gc.full_major ();
    let t0 = Clock.now_s () in
    let n = ref 0 in
    while !n = 0 || Clock.now_s () -. t0 < 0.02 do
      ignore (w () : traced:bool -> run);
      incr n
    done;
    (Clock.now_s () -. t0) /. Float.of_int !n
  in
  Stats.median (List.init setup_repetitions (fun _ -> group ()))

type pass_result = {
  busy : float;  (** the sum of the operations' seconds *)
  run : run;
  pass_digest : string;
  heap_mb : float;  (** the process's peak major heap so far *)
}

let one_pass (w : workload) ~traced =
  let pass = w () in
  Gc.full_major ();
  let run = pass ~traced in
  let busy = Array.fold_left ( +. ) 0. run.ops in
  let words = (Gc.quick_stat ()).top_heap_words in
  let heap_mb = Float.of_int (words * (Sys.word_size / 8)) /. 1048576. in
  { busy; run; pass_digest = run.digest (); heap_mb }

(* Passes until the next one would end past [seconds]; at least one. *)
let passes w ~seconds =
  let start = Clock.now_s () in
  let rec go acc =
    let t0 = Clock.now_s () in
    let p = one_pass w ~traced:false in
    let acc = (p, Clock.now_s () -. t0) :: acc in
    let typical = Stats.median (List.map snd acc) in
    if Clock.now_s () -. start +. typical <= seconds then go acc
    else List.rev_map fst acc
  in
  go []

(* Failure messages and the failed-operation count: what the checks flag
   in the first pass, plus every operation of a later pass whose outputs
   differ from the first's. *)
let verdict = function
  | [] -> ([], 0)
  | first :: rest ->
      let flagged = first.run.check () in
      let differing =
        List.filter (fun p -> not (String.equal p.pass_digest first.pass_digest)) rest
      in
      ( flagged
        @ List.map
            (fun p ->
              Printf.sprintf "a pass's outputs differ from the first (%s vs %s)"
                p.pass_digest first.pass_digest)
            differing,
        List.length flagged
        + List.fold_left (fun acc p -> acc + Array.length p.run.ops) 0 differing )

(* ---- metrics -------------------------------------------------------- *)

let end_to_end =
  [ ("pass_s", "s"); ("rps", "1/s"); ("p50_ms", "ms"); ("p99_ms", "ms");
    ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("setup.self_s", "s");
    ("optimizer.calls", "count"); ("optimizer.self_s", "s");
    ("optimizer.share", "ratio"); ("optimizer.call_p50_ms", "ms");
    ("optimizer.minor_mw", "Mword"); ("optimizer.memo_inserts", "count");
    ("optimizer.memo_kept", "count"); ("optimizer.memo_kept_ratio", "ratio");
    ("candidates.self_s", "s"); ("candidates.share", "ratio");
    ("candidates.probes", "count"); ("candidates.plans", "count");
    ("candidates.useful_ratio", "ratio"); ("candidates.unverified", "count");
    ("candidates.regions", "count"); ("candidates.region_aborts", "count");
    ("lp.bisect_iters", "count");
    ("worst_case.self_s", "s"); ("worst_case.share", "ratio");
    ("worst_case.fallback_points", "count"); ("worst_case.minor_mw", "Mword");
    ("sweep.evals", "count"); ("bnb.nodes", "count"); ("bnb.leaves", "count");
    ("select.self_s", "s"); ("select.share", "ratio");
    ("select.exhaustive_s", "s"); ("select.bnb_s", "s");
    ("select.fallbacks", "count"); ("select.minor_mw", "Mword");
    ("census.self_s", "s");
    ("json.parse_s", "s"); ("json.render_s", "s");
    ("server.handle_s", "s"); ("server.hit_p50_ms", "ms");
    ("server.miss_p50_ms", "ms"); ("server.miss_s", "s");
    ("server.worst_case_p50_ms", "ms"); ("server.select_p50_ms", "ms");
    ("server.candidates_p50_ms", "ms"); ("server.degraded", "count");
    ("server.errors", "count");
    ("cache.candidates.hit_ratio", "ratio"); ("cache.sweeps.hit_ratio", "ratio");
    ("cache.sweeps.evictions", "count"); ("cache.bnb.hit_ratio", "ratio");
    ("cache.bnb.evictions", "count");
    ("ladder.exhaustive", "count"); ("ladder.bnb", "count");
    ("ladder.fractional", "count"); ("ladder.monte_carlo", "count");
    ("trace.overhead_ratio", "ratio"); ("trace.coverage_ratio", "ratio") ]

let ratio a b = if b > 0. then a /. b else 0.

(* Passes repeat the same inputs, so a pass's operation count is fixed;
   [rps] is that count over the median pass.  The heap peak is read after
   the first pass, the point every run reaches with the same history. *)
let end_to_end_values ~setup_s passes =
  let ops = List.concat_map (fun p -> Array.to_list p.run.ops) passes in
  let first = List.hd passes in
  let pass_s = Stats.median (List.map (fun p -> p.busy) passes) in
  [ ("pass_s", pass_s);
    ("rps", ratio (Float.of_int (Array.length first.run.ops)) pass_s);
    ("p50_ms", 1000. *. Stats.percentile 0.5 ops);
    ("p99_ms", 1000. *. Stats.percentile 0.99 ops);
    ("setup_s", setup_s);
    ("peak_heap_mb", first.heap_mb) ]

(* Per-layer values of a traced pass: span self times, lib/obs counters
   (recorded in logical mode during the pass) and the workload's own
   tallies; 0 where a layer does not run in this workload. *)
let per_layer_values ~setup_s ~untraced ~traced =
  let counters = Obs.snapshot () in
  let c name =
    List.fold_left
      (fun acc (m, v) ->
        match v with
        | Obs.Vcount n when String.equal (Obs.name m) name -> Float.of_int n
        | _ -> acc)
      0. counters
  in
  let wall = traced.busy in
  let share l = ratio (Span.self_s l) wall in
  let hit_ratio cache =
    let h = c ("server.cache." ^ cache ^ ".hits") in
    ratio h (h +. c ("server.cache." ^ cache ^ ".misses"))
  in
  let extras = traced.run.extras () in
  let x name = Option.value ~default:0. (List.assoc_opt name extras) in
  [ ("setup.self_s", setup_s);
    ("optimizer.calls", c "optimizer.calls");
    ("optimizer.self_s", Span.self_s "optimizer");
    ("optimizer.share", share "optimizer");
    ("optimizer.call_p50_ms", 1000. *. Stats.percentile 0.5 (Span.durations "optimizer"));
    ("optimizer.minor_mw", Span.minor_mw "optimizer");
    ("optimizer.memo_inserts", c "optimizer.memo_inserts");
    ("optimizer.memo_kept", c "optimizer.memo_kept");
    ( "optimizer.memo_kept_ratio",
      ratio (c "optimizer.memo_kept") (c "optimizer.memo_inserts") );
    ("candidates.self_s", Span.self_s "candidates");
    ("candidates.share", share "candidates");
    ("candidates.probes", c "candidates.probes");
    ("candidates.plans", x "candidates.plans");
    ("candidates.useful_ratio", ratio (x "candidates.plans") (c "candidates.probes"));
    ("candidates.unverified", x "candidates.unverified");
    ("candidates.regions", c "candidates.regions");
    ("candidates.region_aborts", c "candidates.region_aborts");
    ("lp.bisect_iters", c "lp.bisect_iters");
    ("worst_case.self_s", Span.self_s "worst_case");
    ("worst_case.share", share "worst_case");
    ("worst_case.fallback_points", c "wc.budget_fallbacks");
    ("worst_case.minor_mw", Span.minor_mw "worst_case");
    ("sweep.evals", c "sweep.evals");
    ("bnb.nodes", c "bnb.nodes");
    ("bnb.leaves", c "bnb.leaves");
    ("select.self_s", Span.self_s "select");
    ("select.share", share "select");
    ("select.exhaustive_s", x "select.exhaustive_s");
    ("select.bnb_s", x "select.bnb_s");
    ("select.fallbacks", c "select.budget_fallbacks");
    ("select.minor_mw", Span.minor_mw "select");
    ("census.self_s", Span.self_s "census");
    ("json.parse_s", Span.self_s "json.parse");
    ("json.render_s", Span.self_s "json.render");
    ("server.handle_s", Span.self_s "server.handle");
    ("server.hit_p50_ms", x "server.hit_p50_ms");
    ("server.miss_p50_ms", x "server.miss_p50_ms");
    ("server.miss_s", x "server.miss_s");
    ("server.worst_case_p50_ms", x "server.worst_case_p50_ms");
    ("server.select_p50_ms", x "server.select_p50_ms");
    ("server.candidates_p50_ms", x "server.candidates_p50_ms");
    ("server.degraded", c "server.degraded");
    ("server.errors", c "server.errors");
    ("cache.candidates.hit_ratio", hit_ratio "candidates");
    ("cache.sweeps.hit_ratio", hit_ratio "sweeps");
    ("cache.sweeps.evictions", c "server.cache.sweeps.evictions");
    ("cache.bnb.hit_ratio", hit_ratio "bnb");
    ("cache.bnb.evictions", c "server.cache.bnb.evictions");
    ("ladder.exhaustive", x "ladder.exhaustive");
    ("ladder.bnb", x "ladder.bnb");
    ("ladder.fractional", x "ladder.fractional");
    ("ladder.monte_carlo", x "ladder.monte_carlo");
    ("trace.overhead_ratio", ratio wall untraced.busy);
    ("trace.coverage_ratio", ratio (Span.total_self ()) wall) ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~failures ~attempted ~failed spec values =
  List.iter (fun m -> Printf.printf "FAILED %s\n" m) failures;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-28s %14.6g %s\n" name (List.assoc name values) unit)
    spec;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (List.assoc name values))
          unit)
      spec
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " metrics)

(* ---- modes ---------------------------------------------------------- *)

let attempted ps = List.fold_left (fun a p -> a + Array.length p.run.ops) 0 ps

(* One untraced pass, then one traced pass with bench spans and lib/obs
   counters recording. *)
let untraced_and_traced w =
  let untraced = one_pass w ~traced:false in
  Span.reset ();
  Span.enabled := true;
  Obs.start ();
  let traced = one_pass w ~traced:true in
  Obs.stop ();
  Span.enabled := false;
  (untraced, traced)

(* Set-up is timed after the passes, so the first pass starts from the
   same heap in every run. *)
let run_workload ~name ~seed ~seconds ~trace =
  let w = workload ~smoke:false ~seed name in
  match trace with
  | None ->
      let ps = passes w ~seconds in
      let setup_s = setup_seconds w in
      let failures, failed = verdict ps in
      Printf.printf "digest %s %s\n%s: seed %d, %d passes\n" name
        (List.hd ps).pass_digest name seed (List.length ps);
      print_result ~failures ~attempted:(attempted ps) ~failed end_to_end
        (end_to_end_values ~setup_s ps);
      failed = 0
  | Some file ->
      let untraced, traced = untraced_and_traced w in
      let setup_s = setup_seconds w in
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Span.chrome_trace ());
          close_out oc)
        file;
      Printf.printf "digest %s %s\ndigest-traced %s %s\n" name
        untraced.pass_digest name traced.pass_digest;
      let failures, failed = verdict [ untraced; traced ] in
      print_result ~failures ~attempted:(attempted [ untraced; traced ]) ~failed
        per_layer
        (per_layer_values ~setup_s ~untraced ~traced);
      failed = 0

(* Every check, at CI sizes: one untraced and one traced pass per
   workload, whose digests must agree, plus a valid Chrome trace. *)
let smoke () =
  List.fold_left
    (fun ok name ->
      let untraced, traced =
        untraced_and_traced (workload ~smoke:true ~seed:42 name)
      in
      let trace_errors =
        match Qsens_obs.Trace_check.validate (Span.chrome_trace ()) with
        | Ok () -> []
        | Error m -> [ "invalid Chrome trace: " ^ m ]
      in
      match fst (verdict [ untraced; traced ]) @ trace_errors with
      | [] ->
          Printf.printf "smoke %s: ok, %d operations, digest %s\n" name
            (Array.length untraced.run.ops) untraced.pass_digest;
          ok
      | fs ->
          List.iter (fun m -> Printf.eprintf "smoke %s: FAILED %s\n" name m) fs;
          false)
    true workloads

(* Runs [args] as a child process and returns its standard output lines
   and whether it exited 0. *)
let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args)) in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  (lines, Unix.close_process_in ic = Unix.WEXITED 0)

let child_args ~name ~seed ~seconds ~trace =
  [ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
    Printf.sprintf "%g" seconds; "--trace"; trace ]

let last_json lines =
  match List.rev lines with
  | l :: _ -> ( match Json.of_string l with Ok j -> Some j | Error _ -> None)
  | [] -> None

(* Median and quartiles of each metric over [runs] untraced runs, and one
   traced run, per workload, at seed 42. *)
let baseline ~path ~seconds =
  let runs = 5 in
  let metric_values j =
    match Option.bind (Json.member "metrics" j) (function Json.Obj f -> Some f | _ -> None) with
    | Some fields ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float))
          fields
    | None -> []
  in
  let run_child ~name ~trace =
    let lines, ok = spawn (child_args ~name ~seed:42 ~seconds ~trace) in
    List.iter print_endline lines;
    match last_json lines with
    | Some j when ok -> (metric_values j, List.filter (String.starts_with ~prefix:"digest ") lines)
    | _ -> failwith (Printf.sprintf "baseline: %s run failed" name)
  in
  (* Interleave workloads within each round, as the comparison protocol
     interleaves commits. *)
  let untraced =
    List.init runs (fun _ ->
        List.map (fun name -> (name, run_child ~name ~trace:"0")) workloads)
  in
  let b = Buffer.create 16384 in
  Printf.bprintf b
    "{\"seed\": 42, \"seconds\": %g, \"untraced_runs\": %d, \"cpus_online\": %d, \
     \"ocaml\": %S,\n \"workloads\": {\n"
    seconds runs (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iteri
    (fun wi name ->
      let results = List.map (List.assoc name) untraced in
      let traced, traced_digests = run_child ~name ~trace:"1" in
      let digest =
        match List.sort_uniq compare (traced_digests :: List.map snd results) with
        | [ [ d ] ] -> d
        | _ -> failwith (Printf.sprintf "baseline: %s digests differ between runs" name)
      in
      Printf.bprintf b "  %S: {\"digest\": %S,\n   \"end_to_end\": {\n" name digest;
      List.iteri
        (fun i (m, unit) ->
          let vs = List.map (fun (values, _) -> List.assoc m values) results in
          Printf.bprintf b
            "    %S: {\"unit\": %S, \"median\": %s, \"q1\": %s, \"q3\": %s, \"values\": [%s]}%s\n"
            m unit
            (json_number (Stats.median vs))
            (json_number (Stats.quantile ~n:4 ~i:1 vs))
            (json_number (Stats.quantile ~n:4 ~i:3 vs))
            (String.concat ", " (List.map json_number vs))
            (if i + 1 < List.length end_to_end then "," else ""))
        end_to_end;
      Printf.bprintf b "   },\n   \"per_layer\": {\n";
      List.iteri
        (fun i (m, unit) ->
          Printf.bprintf b "    %S: {\"unit\": %S, \"value\": %s}%s\n" m unit
            (json_number (Option.value ~default:0. (List.assoc_opt m traced)))
            (if i + 1 < List.length per_layer then "," else ""))
        per_layer;
      Printf.bprintf b "   }}%s\n" (if wi + 1 < List.length workloads then "," else ""))
    workloads;
  Buffer.add_string b " }}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let names = ref [] and seed = ref 42 and seconds = ref 30. in
  let trace = ref "0" and mode = ref `Measure in
  let spec =
    [ ("--workload", Arg.String (fun w -> names := !names @ [ w ]),
       "W  run workload W (repeatable): " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measure for about S seconds (default 30)");
      ("--trace", Arg.Set_string trace,
       "0|1|FILE  1: per-layer metrics from one traced pass; FILE: also write its Chrome trace");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " every check at CI sizes");
      ("--regen-fixtures", Arg.Unit (fun () -> mode := `Regen),
       " rewrite the analyze-split fixtures");
      ("--baseline", Arg.String (fun p -> mode := `Baseline p),
       "FILE  5 untraced runs + 1 traced run per workload at seed 42") ]
  in
  let usage = "e2e.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1|FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg = prerr_endline msg; exit 2 in
  List.iter
    (fun w -> if not (List.mem w workloads) then bad ("unknown workload " ^ w))
    !names;
  let trace_opt =
    match !trace with "0" -> None | "1" -> Some None | file -> Some (Some file)
  in
  let ok =
    match (!mode, !names) with
    | `Smoke, _ -> smoke ()
    | `Regen, _ ->
        Fixture.regenerate ();
        true
    | `Baseline path, _ ->
        baseline ~path ~seconds:!seconds;
        true
    | `Measure, [ name ] ->
        run_workload ~name ~seed:!seed ~seconds:!seconds ~trace:trace_opt
    | `Measure, names ->
        let names = if names = [] then workloads else names in
        List.fold_left
          (fun ok name ->
            let lines, child_ok =
              spawn (child_args ~name ~seed:!seed ~seconds:!seconds ~trace:!trace)
            in
            List.iter print_endline lines;
            ok && child_ok)
          true names
  in
  exit (if ok then 0 else 1)
