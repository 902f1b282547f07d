open Qsens_linalg
open Qsens_catalog
open Qsens_cost
open Qsens_plan
open Qsens_optimizer
open Qsens_faults

exception
  Narrow_estimation_failed of {
    signature : string option;
    error : Fault.error;
  }

type setup = {
  env : Env.t;
  groups : Groups.t;
  query : Query.t;
  proj : Projection.t;
  base : Vec.t;
  dims : Complementary.dim_kind array;
}

(* Figure 5 varies d_s, d_t and CPU independently (Groups.Per_resource);
   the multi-device experiments scale whole devices (Groups.Per_device). *)
let scheme_for = function
  | Layout.Same_device -> Groups.Per_resource
  | Layout.Per_table_devices | Layout.Per_table_and_index_devices ->
      Groups.Per_device

(* The group dimensions a query can exercise: CPU, temp, and the table
   and index devices of the referenced tables. *)
let active_group_indices env groups (query : Query.t) =
  let tables =
    List.sort_uniq String.compare
      (List.map (fun (r : Query.relation) -> r.table) query.relations)
  in
  let relevant_devices =
    Layout.temp_device env.Env.layout
    :: List.concat_map
         (fun t ->
           [ Layout.table_device env.Env.layout t;
             Layout.index_device env.Env.layout t ])
         tables
  in
  let relevant_names =
    List.sort_uniq String.compare (List.map Device.name relevant_devices)
  in
  let name_matches group_name =
    if group_name = "cpu" then true
    else
      List.exists
        (fun dev ->
          group_name = "dev:" ^ dev
          || group_name = "seek:" ^ dev
          || group_name = "xfer:" ^ dev)
        relevant_names
  in
  let names = Groups.names groups in
  List.filter (fun i -> name_matches names.(i))
    (List.init (Array.length names) Fun.id)

let setup ?buffer_pages ?sort_heap_pages ~schema ~policy query =
  let env = Env.make ?buffer_pages ?sort_heap_pages ~schema ~policy () in
  let groups = Groups.make (scheme_for policy) env.Env.space in
  let active = active_group_indices env groups query in
  let proj = Projection.make ~full_dim:(Groups.dim groups) ~active in
  let all_kinds = Complementary.dim_kinds groups in
  let dims = Array.map (fun i -> all_kinds.(i)) (Projection.active proj) in
  { env; groups; query; proj; base = Defaults.base_costs env.Env.space; dims }

let expand_theta s theta_active =
  let theta = Projection.inject s.proj ~fill:1. theta_active in
  Groups.expand_costs s.groups ~base_costs:s.base ~theta

let effective_active s usage =
  Projection.project s.proj
    (Groups.effective_usage s.groups ~base_costs:s.base ~usage)

let white_box_oracle s =
  Oracle.make ~dim:(Projection.active_dim s.proj) ~probe:(fun theta ->
      let costs = expand_theta s theta in
      let r = Optimizer.optimize s.env s.query ~costs in
      (r.signature, effective_active s r.plan.Node.usage))

let narrow_oracle ?(seed = 23) ?faults ?retry ?breaker s ~box =
  let narrow = Narrow.create ?faults s.env s.query in
  let expand = expand_theta s in
  (* When faults are being injected, default to the resilient settings;
     without faults the defaults reproduce the fault-free pipeline. *)
  let retry =
    match (retry, faults) with
    | Some r, _ -> r
    | None, Some _ -> Fault.Retry.default
    | None, None -> Fault.Retry.none
  in
  let robust = Option.is_some faults in
  let explain_resilient costs =
    Fault.Retry.run retry ~seed:0 ~site:"experiment.explain" (fun ~attempt:_ ->
        Narrow.explain narrow ~costs)
  in
  let counter = ref seed in
  let oracle =
    Oracle.make ~dim:(Projection.active_dim s.proj) ~probe:(fun theta ->
        match explain_resilient (expand theta) with
        | Error error -> raise (Narrow_estimation_failed { signature = None; error })
        | Ok (signature, _cost) -> (
            incr counter;
            match
              Probe.estimate_usage ~seed:!counter ~retry ?breaker ~robust
                ~narrow ~expand ~signature ~box ()
            with
            | Ok e -> (signature, e.usage)
            | Error error ->
                raise
                  (Narrow_estimation_failed { signature = Some signature; error })))
  in
  (oracle, narrow)

type census = Complementary.census

let census_of s (plans : Candidates.plan list) =
  Complementary.census ~dims:s.dims
    (Array.of_list (List.map (fun (p : Candidates.plan) -> p.eff) plans))

type report = {
  query_name : string;
  policy : Layout.policy;
  active_dim : int;
  candidates : Candidates.result;
  curve : Worst_case.point list;
  path : string;
  census : census;
}

let run ?(deltas = Worst_case.default_deltas) ?(seed = 42) ?(narrow = false)
    ?faults ?retry ?breaker ?random_corners ?max_probes ?pool s =
  let m = Projection.active_dim s.proj in
  let delta_max = List.fold_left Float.max 1. deltas in
  let box = Qsens_geom.Box.around (Vec.make m 1.) ~delta:delta_max in
  let oracle =
    if narrow || Option.is_some faults then
      fst (narrow_oracle ~seed ?faults ?retry ?breaker s ~box)
    else white_box_oracle s
  in
  let candidates =
    Candidates.discover ~seed ?random_corners ?max_probes ?pool oracle ~box
  in
  let plan_vecs =
    Array.of_list (List.map (fun p -> p.Candidates.eff) candidates.plans)
  in
  let curve, path =
    Worst_case.curve_with_path ~deltas ?pool ~plans:plan_vecs
      ~initial:candidates.initial.Candidates.eff ()
  in
  {
    query_name = s.query.Query.name;
    policy = Layout.policy s.env.Env.layout;
    active_dim = m;
    candidates;
    curve;
    path;
    census = census_of s candidates.plans;
  }
