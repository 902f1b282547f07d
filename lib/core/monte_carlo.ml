open Qsens_linalg
open Qsens_geom

type summary = {
  samples : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_seen : float;
  still_optimal : float;
}

let gtc_distribution ?(seed = 97) ?(samples = 10_000) ?pool ?budget ~plans
    ~initial ~delta () =
  if samples < 1 then invalid_arg "Monte_carlo.gtc_distribution: samples < 1";
  (* Cooperative checkpoint: a budgeted run draws [min samples remaining]
     samples — the estimator degrades by doing less work rather than
     aborting — and only raises when nothing at all remains. *)
  let samples =
    match budget with
    | None -> samples
    | Some b ->
        let s = max 1 (min samples (Qsens_budget.Budget.remaining b)) in
        Qsens_budget.Budget.spend b ~who:"Monte_carlo.gtc_distribution" s;
        s
  in
  let m = Vec.dim initial in
  let box = Box.around (Vec.make m 1.) ~delta in
  let values = Array.make samples 1. in
  let optimal = ref 0 in
  let np = Array.length plans in
  (* Packed once; every sample is then one blocked matvec plus an argmin
     instead of per-plan [Vec.dot]s — entries bit-identical, the argmin
     replicates [Framework.optimal_index]'s strict-< lowest-index scan,
     and the 0-denominator branches match [Framework.relative_cost]. *)
  let mat = Kernel.pack plans in
  let gtc_at theta costs =
    if np = 0 then Framework.global_relative_cost ~plans ~a:initial ~costs:theta
    else begin
      Kernel.matvec_into mat theta costs;
      let best = ref 0 in
      for i = 1 to np - 1 do
        if Float.Array.get costs i < Float.Array.get costs !best then best := i
      done;
      let denom = Float.Array.get costs !best in
      if Float.equal denom 0. then
        if Float.equal (Vec.dot initial theta) 0. then 1. else infinity
      else Vec.dot initial theta /. denom
    end
  in
  let fill st lo hi =
    (* Per-task unboxed cost buffer (a Kernel scratch is single-owner
       state, so each domain makes its own). *)
    let costs_scratch =
      Kernel.Scratch.ensure (Kernel.Scratch.create ()) np
    in
    let local_optimal = ref 0 in
    for i = lo to hi - 1 do
      let theta = Box.sample st box in
      let gtc = gtc_at theta costs_scratch in
      (* qsens-check: disable=C001 — each task fills a disjoint [lo, hi) slice *)
      values.(i) <- gtc;
      if gtc <= 1. +. 1e-9 then incr local_optimal
    done;
    !local_optimal
  in
  (match pool with
  | Some p when Qsens_parallel.Pool.domains p > 1 && samples > 1 ->
      (* One PRNG stream per domain, seeded [seed + domain_id], over a
         fixed contiguous block of the sample index space: the summary
         depends only on (seed, samples, domains), never on scheduling. *)
      let d = Qsens_parallel.Pool.domains p in
      let per_block = Array.make d 0 in
      Qsens_parallel.Pool.run p
        (Array.init d (fun k ->
             let lo, hi =
               Qsens_parallel.Pool.chunk_bounds ~n:samples ~chunks:d k
             in
             fun () ->
               (* qsens-lint: disable=P001; qsens-check: disable=C001 — each task writes only its own block slot *)
               per_block.(k) <- fill (Random.State.make [| seed + k |]) lo hi));
      optimal := Array.fold_left ( + ) 0 per_block
  | _ -> optimal := fill (Random.State.make [| seed |]) 0 samples);
  Array.sort Float.compare values;
  let pct p =
    let idx =
      min (samples - 1)
        (int_of_float (Float.of_int samples *. p))
    in
    values.(idx)
  in
  {
    samples;
    mean = Array.fold_left ( +. ) 0. values /. Float.of_int samples;
    p50 = pct 0.50;
    p90 = pct 0.90;
    p99 = pct 0.99;
    max_seen = values.(samples - 1);
    still_optimal = Float.of_int !optimal /. Float.of_int samples;
  }
