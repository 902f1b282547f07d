(* The batch workloads: fig5, fig6-small and analyze-split.

   An item is one TPC-H query.  fig5 and fig6-small run the whole
   pipeline ([Experiment.run]: white-box discovery, then the worst-case
   curve and census); analyze-split starts from a committed candidate set
   and runs only the worst-case, selection and census engines.  The
   traced pass rebuilds the pipeline from the same public calls so each
   layer can be wrapped in a span; its digest must equal the untraced
   one. *)

open Qsens_core
module Vec = Qsens_linalg.Vec

let sf = Qsens_tpch.Spec.scale_factor_of_paper
let max_probes = 1200

(* Discovery stays at the paper configuration's seed: its work varies by
   up to 70% per query with the seed, which would swamp the timings.  The
   workload seed varies the delta grid instead (see [deltas]). *)
let discovery_seed = 42

type kind = Figure | Analyze

type item = {
  query : string;
  setup : Experiment.setup;
  fixture : (Fixture.t * Candidates.plan list) option;
}

type out = {
  item : item;
  signatures : string list;
  plans : Vec.t array;
  initial : Vec.t;
  verified : bool;
  curve : Worst_case.point list;
  path : string;
  selection : (Select.point list * string) option;
  select_s : float;  (** seconds in [Select.curve]; traced passes only *)
  census : Experiment.census;
}

(* Seed 42 is the figures' grid, 10^0 .. 10^4 in quarter decades.  Any
   other seed moves each interior point by up to an eighth of a decade;
   the end points, and with them the discovery box, stay put. *)
let deltas ~seed =
  if seed = 42 then Worst_case.default_deltas
  else
    let st = Random.State.make [| seed |] in
    let last = List.length Worst_case.default_deltas - 1 in
    List.mapi
      (fun i d ->
        let jitter = Random.State.float st 0.25 -. 0.125 in
        if i = 0 || i = last then d else d *. Float.pow 10. jitter)
      Worst_case.default_deltas

let fig5_queries =
  List.filter (fun q -> q <> "Q8") (List.init 22 (fun i -> Printf.sprintf "Q%d" (i + 1)))

let fig6_small_queries =
  [ "Q1"; "Q3"; "Q4"; "Q6"; "Q10"; "Q11"; "Q12"; "Q13"; "Q14"; "Q15"; "Q16";
    "Q17"; "Q18"; "Q19"; "Q22" ]

let setup_items kind ~policy queries =
  let schema = Qsens_tpch.Spec.schema ~sf in
  let all = Qsens_tpch.Queries.all ~sf in
  List.map
    (fun q ->
      let query = List.find (fun (x : Qsens_plan.Query.t) -> x.name = q) all in
      let setup = Experiment.setup ~schema ~policy query in
      let fixture =
        match kind with
        | Figure -> None
        | Analyze ->
            let f = Fixture.load q in
            let plans =
              Array.to_list
                (Array.mapi
                   (fun i eff -> { Candidates.signature = f.signatures.(i); eff })
                   f.eff)
            in
            Some (f, plans)
      in
      { query = q; setup; fixture })
    queries

(* ---- one item ------------------------------------------------------- *)

(* Exactly [Experiment.white_box_oracle], with each optimizer call in a
   span. *)
let traced_oracle (s : Experiment.setup) =
  Oracle.make ~dim:(Projection.active_dim s.proj) ~probe:(fun theta ->
      Span.run "optimizer" (fun () ->
          let costs = Experiment.expand_theta s theta in
          let r = Qsens_optimizer.Optimizer.optimize s.env s.query ~costs in
          let eff =
            Qsens_cost.Groups.effective_usage s.groups ~base_costs:s.base
              ~usage:r.plan.usage
          in
          (r.signature, Projection.project s.proj eff)))

let of_candidates item (c : Candidates.result) ~curve ~path ~selection ~census
    =
  {
    item;
    signatures = List.map (fun (p : Candidates.plan) -> p.signature) c.plans;
    plans = Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) c.plans);
    initial = c.initial.eff;
    verified = c.verified_complete;
    curve;
    path;
    selection;
    select_s = 0.;
    census;
  }

let run_figure ~traced ~deltas item =
  if not traced then
    let r =
      Experiment.run ~deltas ~seed:discovery_seed ~max_probes item.setup
    in
    of_candidates item r.candidates ~curve:r.curve ~path:r.path
      ~selection:None ~census:r.census
  else
    let s = item.setup in
    let m = Projection.active_dim s.proj in
    let box =
      Qsens_geom.Box.around (Vec.make m 1.)
        ~delta:(List.fold_left Float.max 1. deltas)
    in
    let oracle = traced_oracle s in
    let c =
      Span.run "candidates" (fun () ->
          Candidates.discover ~seed:discovery_seed ~max_probes oracle ~box)
    in
    let plans = Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) c.plans) in
    let curve, path =
      Span.run "worst_case" (fun () ->
          Worst_case.curve_with_path ~deltas ~plans ~initial:c.initial.eff ())
    in
    let census = Span.run "census" (fun () -> Experiment.census_of s c.plans) in
    of_candidates item c ~curve ~path ~selection:None ~census

let run_analyze ~deltas item =
  let f, plan_list = Option.get item.fixture in
  let plans = f.eff and initial = f.eff.(f.initial) in
  let curve, path =
    Span.run "worst_case" (fun () ->
        Worst_case.curve_with_path ~deltas ~plans ~initial ())
  in
  let selection = Span.run "select" (fun () -> Select.curve ~deltas ~plans ()) in
  let select_s = if !Span.enabled then Span.last () else 0. in
  let census =
    Span.run "census" (fun () -> Experiment.census_of item.setup plan_list)
  in
  {
    item;
    signatures = Array.to_list f.signatures;
    plans;
    initial;
    verified = false;
    curve;
    path;
    selection = Some selection;
    select_s;
    census;
  }

(* ---- output digest and checks --------------------------------------- *)

let add_floats b a = Array.iter (fun x -> Printf.bprintf b " %.17g" x) a

let digest_text b o =
  Printf.bprintf b "%s|%s|%d\n" o.item.query o.path (Array.length o.plans);
  List.iter (fun s -> Printf.bprintf b "sig %s\n" s) o.signatures;
  List.iter
    (fun (p : Worst_case.point) ->
      Printf.bprintf b "pt %.17g %.17g" p.delta p.gtc;
      add_floats b p.witness;
      Buffer.add_char b '\n')
    o.curve;
  Option.iter
    (fun (points, spath) ->
      Printf.bprintf b "select %s\n" spath;
      List.iter
        (fun (p : Select.point) ->
          Printf.bprintf b "sel %.17g %d %d %d %d" p.delta p.classic p.lec
            p.minimax p.fallbacks;
          add_floats b p.expected;
          add_floats b p.regret;
          Buffer.add_char b '\n')
        points)
    o.selection;
  let c = o.census in
  Printf.bprintf b "census %d %d %d %.17g %.17g\n" c.pairs c.complementary_pairs
    c.near_pairs c.max_element_ratio c.theorem2

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_point (p : Worst_case.point) (q : Worst_case.point) =
  same_bits p.delta q.delta && same_bits p.gtc q.gtc
  && Array.length p.witness = Array.length q.witness
  && Array.for_all2 same_bits p.witness q.witness

(* Failure messages for one item: Theorem 1 on every point, the curve
   bit-identical to the rebuild-per-delta reference wherever the tables
   reach, and (analyze-split) the classic regret column equal to the
   worst-case curve. *)
let check ~deltas o =
  let q = o.item.query in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := (q ^ ": " ^ m) :: !fails) fmt in
  List.iter
    (fun (p : Worst_case.point) ->
      if not (1. <= p.gtc && p.gtc <= p.delta *. p.delta *. (1. +. 1e-9)) then
        fail "Theorem 1 broken at delta %.17g: gtc %.17g" p.delta p.gtc)
    o.curve;
  if Sweep.supported ~dim:(Vec.dim o.initial) then begin
    let naive =
      Worst_case.curve_naive ~deltas ~plans:o.plans ~initial:o.initial ()
    in
    if not (List.length naive = List.length o.curve
            && List.for_all2 same_point naive o.curve)
    then fail "curve differs from Worst_case.curve_naive"
  end;
  Option.iter
    (fun (points, _) ->
      List.iter2
        (fun (s : Select.point) (p : Worst_case.point) ->
          if not (same_bits s.delta p.delta && same_bits s.regret.(s.classic) p.gtc
                  && Array.for_all2 same_bits o.plans.(s.classic) o.initial)
          then fail "classic regret differs from the worst-case curve at delta %.17g" p.delta)
        points o.curve)
    o.selection;
  List.rev !fails
