open Qsens_linalg
open Qsens_geom
module Obs = Qsens_obs.Obs

let m_degenerate_ratios =
  Obs.counter
    ~help:"degenerate (NaN) plan ratios skipped in worst-case argmax"
    "wc.degenerate_ratios"

let total_cost ~usage ~costs = Vec.dot usage costs

let relative_cost ~a ~b ~costs =
  let denom = Vec.dot b costs in
  if Float.equal denom 0. then
    if Float.equal (Vec.dot a costs) 0. then 1. else infinity
  else Vec.dot a costs /. denom

let optimal_index ~plans ~costs =
  if Array.length plans = 0 then invalid_arg "Framework.optimal_index: no plans";
  let best = ref 0 in
  for i = 1 to Array.length plans - 1 do
    if Vec.dot plans.(i) costs < Vec.dot plans.(!best) costs then best := i
  done;
  !best

let global_relative_cost ~plans ~a ~costs =
  relative_cost ~a ~b:plans.(optimal_index ~plans ~costs) ~costs

let equicost ~a ~b ~costs =
  let ca = Vec.dot a costs and cb = Vec.dot b costs in
  Float.abs (ca -. cb) <= 1e-9 *. Float.max (Float.abs ca) (Float.abs cb)

let worst_case_gtc_fractional ?pool ~plans ~a box =
  if Array.length plans = 0 then
    invalid_arg "Framework.worst_case_gtc_fractional: no plans";
  let np = Array.length plans in
  (* Chunk-local argmax with strict improvement: the first (lowest-index)
     plan wins ties, as in the sequential loop.  Degenerate ratios (NaN
     from an everywhere-zero numerator and denominator) are skipped
     *explicitly*, with a count — `r > !best` being false for NaN used to
     drop them silently, leaving a stale default witness. *)
  let eval lo hi =
    let best = ref neg_infinity and witness = ref None and degen = ref 0 in
    for i = lo to hi - 1 do
      let r, corner = Fractional.max_ratio ~num:a ~den:plans.(i) box in
      if Float.is_nan r then incr degen
      else if r > !best then begin
        best := r;
        witness := Some corner
      end
    done;
    (!best, !witness, !degen)
  in
  let best, witness, degen =
    match pool with
    | Some p when Qsens_parallel.Pool.domains p > 1 && np > 1 ->
        (* Reduced in ascending chunk order; ties keep the left (earlier)
           chunk, so the result is bit-identical to sequential. *)
        Qsens_parallel.Pool.map_reduce p ~n:np ~map:eval
          ~reduce:(fun (b1, w1, d1) (b2, w2, d2) ->
            if b2 > b1 then (b2, w2, d1 + d2) else (b1, w1, d1 + d2))
          ~init:(neg_infinity, None, 0)
    | _ -> eval 0 np
  in
  Obs.add m_degenerate_ratios degen;
  match witness with
  | Some w -> (best, w)
  | None ->
      (* Every plan was degenerate: surface NaN rather than the
         neg_infinity sentinel with an arbitrary center witness. *)
      ((if degen > 0 then nan else best), Box.center box)
