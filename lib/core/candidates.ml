open Qsens_linalg
open Qsens_geom
module Obs = Qsens_obs.Obs

let m_probes = Obs.counter ~help:"distinct candidate probes" "candidates.probes"

let m_fresh =
  Obs.counter ~help:"probes that discovered a new plan" "candidates.fresh_plans"

let m_regions =
  Obs.counter ~help:"regions of influence enumerated" "candidates.regions"

let m_region_aborts =
  Obs.counter ~help:"oversized region enumerations" "candidates.region_aborts"

type plan = { signature : string; eff : Vec.t }

type result = {
  plans : plan list;
  initial : plan;
  verified_complete : bool;
  probes : int;
}

(* Bitwise equality of two cost points. *)
let same_bits a b =
  Array.length a = Array.length b
  && begin
       let same = ref true and i = ref 0 in
       while !same && !i < Array.length a do
         same := Int64.bits_of_float a.(!i) = Int64.bits_of_float b.(!i);
         incr i
       done;
       !same
     end

(* Slots of the probe memo's first level; a power of two. *)
let recent_slots = 256

let clamp box v =
  Vec.init (Vec.dim v) (fun i ->
      Float.min box.Box.hi.(i) (Float.max box.Box.lo.(i) v.(i)))

let discover ?(seed = 42) ?(random_corners = 64) ?(max_pair_rounds = 8)
    ?(vertex_budget = 200_000) ?(max_probes = max_int) ?pool oracle ~box =
  let m = Oracle.dim oracle in
  if Box.dim box <> m then invalid_arg "Candidates.discover: dimension mismatch";
  let st = Random.State.make [| seed |] in
  let known : (string, plan) Hashtbl.t = Hashtbl.create 16 in
  let order : string list ref = ref [] in
  let exhausted () = Oracle.calls oracle >= max_probes in
  (* The pairwise and vertex phases revisit the same corners many times;
     cache probe results per cost point so only distinct points cost an
     optimizer invocation.  Points are the same when their [%.12g] keys
     are.  A key is a function of the point's bits, so a first level
     holding, per slot of a hash of the bits, the last point seen there
     answers a bitwise repeat without building its key, in
     [recent_slots] points of memory whatever the number of probes. *)
  let seen_points : (string, string) Hashtbl.t = Hashtbl.create 256 in
  (* Per slot, the last point seen there and its signature.  The
     initial point has [m + 1] coordinates, so no probe matches it. *)
  let recent = Array.make recent_slots (Vec.zero (m + 1)) in
  let recent_signature = Array.make recent_slots "" in
  let point_key theta =
    String.concat "," (List.map (Printf.sprintf "%.12g") (Array.to_list theta))
  in
  let probe theta =
    let theta = clamp box theta in
    let slot = Hashtbl.hash theta land (recent_slots - 1) in
    if same_bits recent.(slot) theta then (false, recent_signature.(slot))
    else begin
      let key = point_key theta in
      let ((_, signature) as result) =
        match Hashtbl.find_opt seen_points key with
        | Some signature -> (false, signature)
        | None ->
            Obs.add m_probes 1;
            let signature, eff = Oracle.probe oracle theta in
            Hashtbl.add seen_points key signature;
            let fresh = not (Hashtbl.mem known signature) in
            if fresh then begin
              Obs.add m_fresh 1;
              Hashtbl.add known signature { signature; eff };
              order := signature :: !order
            end;
            (fresh, signature)
      in
      recent.(slot) <- theta;
      recent_signature.(slot) <- signature;
      result
    end
  in
  (* Phase 1: the estimated costs and structured probes. *)
  let ones = Vec.make m 1. in
  let initial_sig =
    Obs.with_span "candidates.phase1" @@ fun () ->
    let _, initial_sig = probe ones in
    for i = 0 to m - 1 do
    if not (exhausted ()) then begin
      let lo = Vec.copy ones and hi = Vec.copy ones in
      lo.(i) <- box.Box.lo.(i);
      hi.(i) <- box.Box.hi.(i);
      ignore (probe lo);
      ignore (probe hi)
    end
  done;
  let budget = min random_corners (Box.num_vertices box) in
  if Box.num_vertices box <= random_corners && m <= 16 then
    List.iter
      (fun v -> if not (exhausted ()) then ignore (probe v))
      (Box.vertices box)
  else
    for _ = 1 to budget do
      if not (exhausted ()) then begin
        let corner =
          Vec.init m (fun i ->
              if Random.State.bool st then box.Box.hi.(i) else box.Box.lo.(i))
        in
        ignore (probe corner)
      end
    done;
  for _ = 1 to budget / 2 do
    if not (exhausted ()) then ignore (probe (Box.sample st box))
  done;
  initial_sig
  in
  (* Phase 2: pairwise ratio-maximizing corners, to closure.  Snapshots
     come back sorted by plan signature so the probing order of the
     pairwise and verification phases never depends on hash-table
     iteration order. *)
  let snapshot () =
    Hashtbl.fold (fun _ p acc -> p :: acc) known []
    |> List.sort (fun a b -> String.compare a.signature b.signature)
  in
  let rec pair_rounds round =
    if round < max_pair_rounds && not (exhausted ()) then begin
      let plans = snapshot () in
      let found = ref false in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a.signature <> b.signature && not (exhausted ()) then begin
                let _, corner = Fractional.max_ratio ~num:a.eff ~den:b.eff box in
                let fresh, _ = probe corner in
                if fresh then found := true
              end)
            plans)
        plans;
      if !found then pair_rounds (round + 1)
    end
  in
  Obs.with_span "candidates.phase2" (fun () -> pair_rounds 0);
  (* Phase 3: Observation-3 completeness verification by probing the
     contracted vertices of every region of influence.  Any new plan
     restarts the loop; an oversized enumeration aborts verification. *)
  let contraction = 1e-6 in
  let verified = ref true in
  (* Enumerating region-of-influence vertices is pure (no oracle calls),
     so all regions of a round enumerate concurrently when a pool is
     supplied; probing stays sequential, in region order, to preserve
     the probe accounting of the sequential path exactly. *)
  let enumerate_regions plans =
    let nregions = Array.length plans in
    let out = Array.make nregions (Ok []) in
    let enum i =
      Obs.add m_regions 1;
      let region = Region.of_plans ~plans ~index:i box in
      let region = Region.contract contraction region in
      match Region.vertices ~max_subsets:vertex_budget region with
      | vs -> Ok vs
      | exception Vertex_enum.Too_large ->
          Obs.add m_region_aborts 1;
          Error ()
    in
    (match pool with
    | Some p when Qsens_parallel.Pool.domains p > 1 && nregions > 1 ->
        Qsens_parallel.Pool.parallel_for_chunked p ~n:nregions (fun lo hi ->
            for i = lo to hi - 1 do
              (* qsens-lint: disable=P001; qsens-check: disable=C001 — chunks cover disjoint index ranges *)
              out.(i) <- enum i
            done)
    | _ ->
        for i = 0 to nregions - 1 do
          out.(i) <- enum i
        done);
    out
  in
  let rec verify_loop iter =
    if exhausted () then verified := false
    else if iter > 20 then verified := false
    else begin
      let plans = Array.of_list (List.map (fun p -> p.eff) (snapshot ())) in
      let found = ref false in
      (* On the first oversized region, the sequential code abandoned the
         whole pass (discarding any fresh finds of the round); [Exit]
         reproduces that behavior. *)
      (try
         Array.iter
           (function
             | Error () ->
                 verified := false;
                 raise Exit
             | Ok vertices ->
                 List.iter
                   (fun v ->
                     if not (exhausted ()) then begin
                       let fresh, _ = probe v in
                       if fresh then found := true
                     end)
                   vertices)
           (enumerate_regions plans)
       with Exit -> found := false);
      if !found then verify_loop (iter + 1)
    end
  in
  let enum_feasible =
    let constraints = (2 * m) + Hashtbl.length known - 1 in
    Vertex_enum.count_subsets constraints m <= vertex_budget
  in
  Obs.with_span "candidates.phase3" (fun () ->
  if enum_feasible then verify_loop 0
  else begin
    verified := false;
    (* Sampling fallback: rounds of random corners and interior points
       until a full round discovers nothing new. *)
    let rec sample_rounds round =
      if round < max_pair_rounds && not (exhausted ()) then begin
        let found = ref false in
        for _ = 1 to 2 * m do
          let corner =
            Vec.init m (fun i ->
                if Random.State.bool st then box.Box.hi.(i) else box.Box.lo.(i))
          in
          let fresh, _ = probe corner in
          if fresh then found := true;
          let fresh, _ = probe (Box.sample st box) in
          if fresh then found := true
        done;
        if !found then sample_rounds (round + 1)
      end
    in
    sample_rounds 0
  end);
  if exhausted () then verified := false;
  let plans =
    List.rev_map (fun signature -> Hashtbl.find known signature) !order
  in
  {
    plans;
    initial = Hashtbl.find known initial_sig;
    verified_complete = !verified;
    probes = Oracle.calls oracle;
  }
