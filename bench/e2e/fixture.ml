(* Committed Figure 6 candidate sets for the analyze-split workload.

   Each file holds one query's plans as discovered by the Figure 6
   pipeline ([Experiment.run ~max_probes:1200] at seed 42 on the split
   layout, box delta 10^4): effective usage vectors in %.17g, the index
   of the initial plan, and an MD5 per plan signature.  Loading them lets
   the workload time the worst-case and selection engines without the
   optimizer or discovery in front. *)

open Qsens_core
module Json = Qsens_server.Json

let dir = "bench/e2e/fixtures"

let queries =
  [ "Q2"; "Q3"; "Q5"; "Q7"; "Q9"; "Q10"; "Q18"; "Q20"; "Q21" ]

let seed = 42
let max_probes = 1200
let policy = Qsens_catalog.Layout.Per_table_and_index_devices

type t = {
  signatures : string array;  (** MD5 hex of each plan signature *)
  eff : Qsens_linalg.Vec.t array;
  initial : int;
}

let path query = Filename.concat dir (query ^ ".json")

let render (r : Experiment.report) =
  let plans = Array.of_list r.candidates.plans in
  let initial =
    let sig0 = r.candidates.initial.signature in
    let rec find i =
      if String.equal plans.(i).signature sig0 then i else find (i + 1)
    in
    find 0
  in
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  add "{\"query\": %S,\n" r.query_name;
  add " \"layout\": \"split\",\n";
  add " \"seed\": %d,\n \"max_probes\": %d,\n \"delta_max\": 10000,\n" seed
    max_probes;
  add " \"dim\": %d,\n \"probes\": %d,\n \"verified_complete\": %b,\n"
    r.active_dim r.candidates.probes r.candidates.verified_complete;
  add " \"initial\": %d,\n \"plans\": [\n" initial;
  Array.iteri
    (fun i (p : Candidates.plan) ->
      add "  {\"signature_md5\": \"%s\", \"eff\": [%s]}%s\n"
        (Digest.to_hex (Digest.string p.signature))
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.17g") p.eff)))
        (if i + 1 < Array.length plans then "," else ""))
    plans;
  add " ]}\n";
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load query =
  let fail msg = failwith (Printf.sprintf "%s: %s" (path query) msg) in
  let j =
    match Json.of_string (read_file (path query)) with
    | Ok j -> j
    | Error m -> fail m
  in
  let get k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad or missing %S" k)
  in
  let plans = get "plans" Json.to_list in
  let field k conv p =
    match Option.bind (Json.member k p) conv with
    | Some v -> v
    | None -> fail (Printf.sprintf "plan with bad or missing %S" k)
  in
  let floats l =
    List.map
      (fun x ->
        match Json.to_float x with Some f -> f | None -> fail "non-numeric eff")
      l
  in
  {
    initial = get "initial" Json.to_int;
    signatures =
      Array.of_list (List.map (field "signature_md5" Json.to_str) plans);
    eff =
      Array.of_list
        (List.map (fun p -> Array.of_list (floats (field "eff" Json.to_list p)))
           plans);
  }

let regenerate () =
  let sf = Qsens_tpch.Spec.scale_factor_of_paper in
  let schema = Qsens_tpch.Spec.schema ~sf in
  List.iter
    (fun q ->
      let s =
        Experiment.setup ~schema ~policy (Qsens_tpch.Queries.find ~sf q)
      in
      let r = Experiment.run ~seed ~max_probes s in
      let oc = open_out_bin (path q) in
      output_string oc (render r);
      close_out oc;
      Printf.printf "wrote %s (%d plans, dim %d)\n%!" (path q)
        (List.length r.candidates.plans) r.active_dim)
    queries
