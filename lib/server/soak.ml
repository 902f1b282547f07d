open Qsens_linalg
open Qsens_core
module Box = Qsens_geom.Box

type ordering = Sequential | Interleaved

(* select requests share their cell's id space, offset past any grid. *)
let select_id_base = 100_000

type config = {
  queries : string list;
  layouts : string list;
  deltas : float list;
  sf : float;
  seed : int;
  budgets : int list;
  mc_samples : int;
  faults : Qsens_faults.Fault.injector option;
  pool : Qsens_parallel.Pool.t option;
  ordering : ordering;
  max_probes : int option;
  cache_bytes : int;
  queue_limit : int;
}

let default_config =
  {
    queries = [ "Q1"; "Q6" ];
    layouts = [ "same"; "per-table" ];
    deltas = [ 1.; 10.; 100. ];
    sf = 100.;
    seed = 42;
    budgets = [ 1_000_000_000; 6 ];
    mc_samples = 256;
    faults = None;
    pool = None;
    ordering = Sequential;
    max_probes = Some 2000;
    cache_bytes = 1 lsl 20;
    queue_limit = 4;
  }

type outcome = {
  total : int;
  ok : int;
  degraded : int;
  shed : int;
  errors : int;
  verified : int;
  mismatches : string list;
  alive : bool;
}

(* ------------------------------------------------------------------ *)
(* The from-scratch reference: same library entry points the CLI uses,
   none of the server's caches.  Memoized per (query, layout) — the
   reference itself is deterministic, so computing it once is sound. *)

let reference_line ~sf ~seed ?max_probes ?pool ~deltas ~query ~layout () =
  match Server.policy_of_string layout with
  | Error m -> Error m
  | Ok policy -> (
      match Qsens_tpch.Queries.find ~sf query with
      | exception Not_found -> Error (Printf.sprintf "unknown query %S" query)
      | q ->
          let schema = Qsens_tpch.Spec.schema ~sf in
          let s = Experiment.setup ~schema ~policy q in
          let m = Projection.active_dim s.Experiment.proj in
          let delta_max = List.fold_left Float.max 1. deltas in
          let box = Box.around (Vec.make m 1.) ~delta:delta_max in
          let oracle = Experiment.white_box_oracle s in
          let c =
            Candidates.discover ~seed ?max_probes ?pool oracle ~box
          in
          let plans =
            Array.of_list
              (List.map (fun p -> p.Candidates.eff) c.Candidates.plans)
          in
          let initial = c.Candidates.initial.Candidates.eff in
          let points = Worst_case.curve ~deltas ?pool ~plans ~initial () in
          Ok (Json.to_string (Server.points_json points)))

let reference cfg ~query ~layout =
  reference_line ~sf:cfg.sf ~seed:cfg.seed ?max_probes:cfg.max_probes
    ?pool:cfg.pool ~deltas:cfg.deltas ~query ~layout ()

(* Same shape for the selection op: fresh discovery, fresh Select.curve,
   rendered through the server's own choices encoder. *)
let select_reference_line ~sf ~seed ?max_probes ?pool ~deltas ~query ~layout
    () =
  match Server.policy_of_string layout with
  | Error m -> Error m
  | Ok policy -> (
      match Qsens_tpch.Queries.find ~sf query with
      | exception Not_found -> Error (Printf.sprintf "unknown query %S" query)
      | q ->
          let schema = Qsens_tpch.Spec.schema ~sf in
          let s = Experiment.setup ~schema ~policy q in
          let m = Projection.active_dim s.Experiment.proj in
          let delta_max = List.fold_left Float.max 1. deltas in
          let box = Box.around (Vec.make m 1.) ~delta:delta_max in
          let oracle = Experiment.white_box_oracle s in
          let c = Candidates.discover ~seed ?max_probes ?pool oracle ~box in
          let plans =
            Array.of_list
              (List.map (fun p -> p.Candidates.eff) c.Candidates.plans)
          in
          let points, _path = Select.curve ~deltas ?pool ~plans () in
          Ok (Json.to_string (Server.select_points_json points)))

let select_reference cfg ~query ~layout =
  select_reference_line ~sf:cfg.sf ~seed:cfg.seed ?max_probes:cfg.max_probes
    ?pool:cfg.pool ~deltas:cfg.deltas ~query ~layout ()

(* ------------------------------------------------------------------ *)
(* Request construction *)

let request cfg ~op ~id ~query ~layout ~budget =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.num (Float.of_int id));
          ("op", Json.Str op);
          ("query", Json.Str query);
          ("layout", Json.Str layout);
          ("sf", Json.num cfg.sf);
          ("deltas", Json.List (List.map Json.num cfg.deltas));
          ("seed", Json.num (Float.of_int cfg.seed));
          ("budget", Json.num (Float.of_int budget));
        ]
       @
       match cfg.max_probes with
       | Some p -> [ ("max_probes", Json.num (Float.of_int p)) ]
       | None -> []))

let grid cfg =
  let budgets = Array.of_list cfg.budgets in
  let cells = ref [] in
  let n = ref 0 in
  List.iter
    (fun query ->
      List.iter
        (fun layout ->
          let budget = budgets.(!n mod Array.length budgets) in
          incr n;
          cells := (!n, query, layout, budget) :: !cells)
        cfg.layouts)
    cfg.queries;
  List.rev !cells

(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  info : (int, string * string) Hashtbl.t;  (* request id -> query, layout *)
  refs : (string, (string, string) result) Hashtbl.t;
  mutable n_total : int;
  mutable n_ok : int;
  mutable n_degraded : int;
  mutable n_shed : int;
  mutable n_errors : int;
  mutable n_verified : int;
  mutable bad : string list;
}

let mismatch st msg = st.bad <- msg :: st.bad

let reference_for st ~op ~query ~layout =
  let key = op ^ "|" ^ query ^ "|" ^ layout in
  match Hashtbl.find_opt st.refs key with
  | Some r -> r
  | None ->
      let r =
        if String.equal op "select" then select_reference st.cfg ~query ~layout
        else reference st.cfg ~query ~layout
      in
      Hashtbl.replace st.refs key r;
      r

(* Non-degraded worst_case responses must match the fresh [points]
   reference bit-for-bit; non-degraded select responses the fresh
   [choices] reference — and since the warm replay passes through here
   too, a pass witnesses cold and warm selections identical. *)
let check_analysis st ~op ~field resp =
  let id = Option.bind (Json.member "id" resp) Json.to_int in
  let degraded =
    Option.value ~default:false
      (Option.bind (Json.member "degraded" resp) Json.to_bool)
  in
  let path =
    Option.value ~default:""
      (Option.bind (Json.member "path" resp) Json.to_str)
  in
  if String.length path = 0 then
    mismatch st (op ^ " response carries no path annotation")
  else if degraded then st.n_degraded <- st.n_degraded + 1
  else
    match Option.bind id (Hashtbl.find_opt st.info) with
    | None -> mismatch st (op ^ " response with unknown request id")
    | Some (query, layout) -> (
        match reference_for st ~op ~query ~layout with
        | Error m ->
            mismatch st (Printf.sprintf "%s/%s: reference: %s" query layout m)
        | Ok expect -> (
            match Json.member field resp with
            | None ->
                mismatch st
                  (Printf.sprintf "%s/%s: response has no %s" query layout
                     field)
            | Some points ->
                st.n_verified <- st.n_verified + 1;
                let got = Json.to_string points in
                if not (String.equal got expect) then
                  mismatch st
                    (Printf.sprintf
                       "%s/%s (%s): %s diverge\n  server: %s\n  fresh:  %s"
                       query layout op field got expect)))

let rec process st resp =
  st.n_total <- st.n_total + 1;
  let ok =
    Option.value ~default:false
      (Option.bind (Json.member "ok" resp) Json.to_bool)
  in
  if not ok then begin
    let kind =
      Option.value ~default:""
        (Option.bind
           (Option.bind (Json.member "error" resp) (Json.member "kind"))
           Json.to_str)
    in
    if String.equal kind "shed" then st.n_shed <- st.n_shed + 1
    else st.n_errors <- st.n_errors + 1
  end
  else begin
    st.n_ok <- st.n_ok + 1;
    match Option.bind (Json.member "op" resp) Json.to_str with
    | Some "worst_case" ->
        check_analysis st ~op:"worst_case" ~field:"points" resp
    | Some "select" -> check_analysis st ~op:"select" ~field:"choices" resp
    | Some "batch" ->
        List.iter (process st)
          (Option.value ~default:[]
             (Option.bind (Json.member "responses" resp) Json.to_list))
    | Some _ | None -> ()
  end

let drive st server line =
  match Json.of_string (Server.handle_line server line) with
  | Ok resp -> process st resp
  | Error m -> mismatch st (Printf.sprintf "unparseable response: %s" m)

let run cfg =
  let sconfig =
    {
      Server.default_budget =
        (match cfg.budgets with
        | b :: _ -> b
        | [] -> Server.default_config.Server.default_budget);
      mc_samples = cfg.mc_samples;
      queue_limit = cfg.queue_limit;
      cache_bytes = cfg.cache_bytes;
      snapshot_path = None;
      seed = cfg.seed;
    }
  in
  let server =
    Server.create ~config:sconfig ?pool:cfg.pool ?faults:cfg.faults ()
  in
  let cells = grid cfg in
  let info = Hashtbl.create 16 in
  List.iter
    (fun (id, q, l, _) ->
      Hashtbl.replace info id (q, l);
      (* The matching select request rides the same cell under an
         offset id. *)
      Hashtbl.replace info (select_id_base + id) (q, l))
    cells;
  let st =
    {
      cfg;
      info;
      refs = Hashtbl.create 16;
      n_total = 0;
      n_ok = 0;
      n_degraded = 0;
      n_shed = 0;
      n_errors = 0;
      n_verified = 0;
      bad = [];
    }
  in
  let base =
    List.concat_map
      (fun (id, q, l, b) ->
        [
          request cfg ~op:"worst_case" ~id ~query:q ~layout:l ~budget:b;
          request cfg ~op:"select" ~id:(select_id_base + id) ~query:q
            ~layout:l ~budget:b;
        ])
      cells
  in
  let invalidate =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "inv");
           ("op", Json.Str "invalidate");
           ("scope", Json.Str "all");
         ])
  in
  let lines =
    match cfg.ordering with
    | Sequential -> base @ base (* second pass: warm hits *)
    | Interleaved -> List.rev base @ [ invalidate ] @ base
  in
  let oversized_batch =
    let subs =
      List.init
        (cfg.queue_limit + 3)
        (fun i ->
          Json.Obj
            [
              ("id", Json.num (Float.of_int (9000 + i)));
              ("op", Json.Str "ping");
            ])
    in
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "batch");
           ("op", Json.Str "batch");
           ("requests", Json.List subs);
         ])
  in
  let malformed = "{\"op\": \"worst_case\", \"query\": 17, nonsense" in
  List.iter (drive st server) (lines @ [ oversized_batch; malformed ]);
  let alive =
    match
      Json.of_string
        (Server.handle_line server
           (Json.to_string
              (Json.Obj [ ("id", Json.Str "final"); ("op", Json.Str "ping") ])))
    with
    | Ok resp ->
        Option.value ~default:false
          (Option.bind (Json.member "ok" resp) Json.to_bool)
    | Error _ -> false
  in
  {
    total = st.n_total;
    ok = st.n_ok;
    degraded = st.n_degraded;
    shed = st.n_shed;
    errors = st.n_errors;
    verified = st.n_verified;
    mismatches = List.rev st.bad;
    alive;
  }
