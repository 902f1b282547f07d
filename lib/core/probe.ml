open Qsens_linalg
open Qsens_geom
open Qsens_optimizer
open Qsens_faults
module Obs = Qsens_obs.Obs

let m_samples = Obs.counter ~help:"probe observations kept" "probe.samples"
let m_dropped = Obs.counter ~help:"probe observations lost to faults" "probe.dropped"

let m_degraded =
  Obs.counter ~help:"estimates that fell back to the ridge prior" "probe.degraded"

type estimate = {
  usage : Vec.t;
  samples : int;
  residual : float;
  dropped : int;
  degraded : bool;
}

let recost_site = "probe.recost"

let sample_thetas st box count =
  List.init count (fun _ -> Box.sample st box)

(* Gate one narrow-interface call through the optional circuit breaker,
   recording the outcome.  Only transient errors count as breaker
   failures: a structural error (singular system, unknown signature the
   interface genuinely never saw) says nothing about interface health. *)
let guarded ?breaker ~site f =
  match breaker with
  | Some b when not (Fault.Breaker.acquire b) ->
      Error
        (Fault.Circuit_open
           { site; failures = Fault.Breaker.consecutive_failures b })
  | _ -> (
      let r = f () in
      (match (breaker, r) with
      | Some b, Ok _ -> Fault.Breaker.record_success b
      | Some b, Error e when Fault.transient e -> Fault.Breaker.record_failure b
      | _ -> ());
      r)

(* One resilient recost: retry with seeded backoff; a cache miss
   (Unknown_signature) re-pins the plan and retries the recost within
   the same attempt — the sample is recovered, not dropped. *)
let recost_resilient ~retry ?breaker ~narrow ~signature costs =
  Fault.Retry.run retry ~seed:0 ~site:recost_site (fun ~attempt:_ ->
      guarded ?breaker ~site:recost_site (fun () ->
          match Narrow.recost narrow ~signature ~costs with
          | Error (Fault.Unknown_signature _) -> (
              match Narrow.repin narrow ~signature with
              | Ok () -> Narrow.recost narrow ~signature ~costs
              | Error e -> Error e)
          | r -> r))

let max_rel_residual usage observations =
  List.fold_left
    (fun acc (theta, obs) ->
      let pred = Vec.dot theta usage in
      if Float.equal obs 0. then acc
      else Float.max acc (Float.abs (pred -. obs) /. Float.abs obs))
    0. observations

(* Least squares leaves round-off where a true usage component is zero:
   tiny negatives that every worst-case engine rejects as negative
   usage.  Those within [1e-9] of the largest magnitude become [+0.0];
   larger negatives are a fitting failure and stay visible. *)
let round_off_tolerance = 1e-9

let flush_round_off usage =
  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. usage in
  Array.map
    (fun x ->
      if x < 0. && Float.abs x <= round_off_tolerance *. scale then 0. else x)
    usage

let estimate_usage ?(seed = 7) ?(oversample = 2) ?(retry = Fault.Retry.none)
    ?breaker ?prior ?(robust = false) ~narrow ~expand ~signature ~box () =
  Obs.with_span "probe.estimate" @@ fun () ->
  let m = Box.dim box in
  let count = max (oversample * m) (m + 1) in
  let st = Random.State.make [| seed |] in
  let thetas = Vec.make m 1. :: sample_thetas st box (count - 1) in
  let dropped = ref 0 in
  let circuit = ref None in
  let last_error = ref None in
  let observations =
    List.filter_map
      (fun theta ->
        if Option.is_some !circuit then None
        else
          match
            recost_resilient ~retry ?breaker ~narrow ~signature (expand theta)
          with
          | Ok t -> Some (theta, t)
          | Error (Fault.Circuit_open _ as e) ->
              (* stop hammering an open circuit; fall back below *)
              circuit := Some e;
              incr dropped;
              None
          | Error e ->
              incr dropped;
              last_error := Some e;
              None)
      thetas
  in
  let got = List.length observations in
  Obs.add m_samples got;
  Obs.add m_dropped !dropped;
  if got >= m then begin
    let c = Mat.of_rows (List.map fst observations) in
    let t = Vec.of_list (List.map snd observations) in
    match (if robust then Mat.irls c t else Mat.least_squares c t) with
    | exception Mat.Singular -> Error Fault.Singular_system
    | usage ->
        let usage = flush_round_off usage in
        Ok
          {
            usage;
            samples = got;
            residual = max_rel_residual usage observations;
            dropped = !dropped;
            degraded = false;
          }
  end
  else
    match (prior, got) with
    | Some prior, got when got >= 1 -> (
        (* Degraded path: too few surviving observations to determine
           the usage vector; shrink the unobserved directions toward the
           prior instead of refusing. *)
        let c = Mat.of_rows (List.map fst observations) in
        let t = Vec.of_list (List.map snd observations) in
        match Mat.ridge_least_squares ~ridge:1e-6 ~prior c t with
        | exception Mat.Singular -> Error Fault.Singular_system
        | usage ->
            let usage = flush_round_off usage in
            Obs.add m_degraded 1;
            Ok
              {
                usage;
                samples = got;
                residual = max_rel_residual usage observations;
                dropped = !dropped;
                degraded = true;
              })
    | _ -> (
        match !circuit with
        | Some e -> Error e
        | None -> (
            match (got, !last_error) with
            | 0, Some e -> Error e
            | _ -> Error (Fault.Too_few_observations { got; need = m })))

let validate ?(seed = 11) ?(trials = 16) ?(retry = Fault.Retry.none) ?breaker
    ~narrow ~expand ~signature ~box estimate =
  let st = Random.State.make [| seed |] in
  let last_error = ref None in
  let rec go i worst used =
    if i >= trials then
      if used > 0 then Ok worst
      else
        Error
          (match !last_error with
          | Some e -> e
          | None -> Fault.Too_few_observations { got = 0; need = 1 })
    else begin
      let theta = Box.sample st box in
      match
        recost_resilient ~retry ?breaker ~narrow ~signature (expand theta)
      with
      | Error e ->
          last_error := Some e;
          go (i + 1) worst used
      | Ok obs ->
          let pred = Vec.dot theta estimate.usage in
          let err =
            if Float.equal obs 0. then Float.abs pred
            else Float.abs (pred -. obs) /. Float.abs obs
          in
          go (i + 1) (Float.max worst err) (used + 1)
    end
  in
  go 0 0. 0
