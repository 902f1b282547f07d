open Qsens_linalg
module Obs = Qsens_obs.Obs

let m_steps = Obs.counter ~help:"adaptive simulation steps" "adaptive.steps"

let m_reopts =
  Obs.counter ~help:"plan switches during adaptive simulation"
    "adaptive.reoptimizations"

type policy = Never | Always | Periodic of int | Threshold of float

let policy_name = function
  | Never -> "never"
  | Always -> "always"
  | Periodic k -> Printf.sprintf "every-%d" k
  | Threshold g -> Printf.sprintf "gtc>%.2g" g

type outcome = {
  policy : policy;
  total_cost : float;
  reoptimizations : int;
  regret : float;
  worst_step_gtc : float;
}

type trace = Vec.t array

let drift_trace ?(seed = 3) ~dim ~horizon ?(drift = 0.05)
    ?(spike_probability = 0.01) ?(spike_magnitude = 20.)
    ?(max_delta = 100.) () =
  if horizon < 1 then invalid_arg "Adaptive.drift_trace: horizon < 1";
  let st = Random.State.make [| seed |] in
  let log_theta = Array.make dim 0. in
  let lo = -.log max_delta and hi = log max_delta in
  (* Spikes decay multiplicatively so a degraded device recovers over
     roughly ten steps, like a finishing rebuild. *)
  let spike = Array.make dim 0. in
  Array.init horizon (fun _ ->
      for d = 0 to dim - 1 do
        let step = (Random.State.float st 2. -. 1.) *. drift in
        log_theta.(d) <- Float.min hi (Float.max lo (log_theta.(d) +. step));
        spike.(d) <- spike.(d) *. 0.8
      done;
      if Random.State.float st 1. < spike_probability then begin
        let d = Random.State.int st dim in
        spike.(d) <- log spike_magnitude
      end;
      Array.init dim (fun d ->
          Float.min max_delta
            (Float.max (1. /. max_delta) (exp (log_theta.(d) +. spike.(d))))))

let simulate ~plans ~trace policy =
  if Array.length plans = 0 then
    invalid_arg "Adaptive.compare_policies: no plans";
  if Array.length trace = 0 then
    invalid_arg "Adaptive.compare_policies: empty trace";
  let m = Vec.dim trace.(0) in
  let ones = Vec.make m 1. in
  let current = ref (Framework.optimal_index ~plans ~costs:ones) in
  let total = ref 0. and reopts = ref 0 and worst = ref 1. in
  Array.iteri
    (fun step theta ->
      let reoptimize =
        match policy with
        | Never -> false
        | Always -> true
        | Periodic k -> step mod k = 0
        | Threshold g ->
            Framework.global_relative_cost ~plans ~a:plans.(!current)
              ~costs:theta
            > g
      in
      Obs.add m_steps 1;
      if reoptimize then begin
        let best = Framework.optimal_index ~plans ~costs:theta in
        if best <> !current then begin
          current := best;
          incr reopts;
          Obs.add m_reopts 1
        end
      end;
      total := !total +. Vec.dot plans.(!current) theta;
      let gtc =
        Framework.global_relative_cost ~plans ~a:plans.(!current) ~costs:theta
      in
      if gtc > !worst then worst := gtc)
    trace;
  {
    policy;
    total_cost = !total;
    reoptimizations = !reopts;
    regret = nan;
    worst_step_gtc = !worst;
  }

let compare_policies ~plans ~trace policies =
  let oracle = simulate ~plans ~trace Always in
  List.map
    (fun p ->
      let o = if p = Always then oracle else simulate ~plans ~trace p in
      { o with regret = o.total_cost /. oracle.total_cost })
    policies
