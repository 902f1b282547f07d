(* Test-only reference for [Sweep.Bnb.eval]: the branch-and-bound search
   as it stood before the threshold bound — the recursive boxed engine,
   its subtree bound (every free numerator term at delta over every free
   denominator term at 1/delta), the Section-5.6 tightening for bitwise
   equal coordinates, and the Dinkelbach warm start — instantiated the
   way [Sweep.Bnb] instantiated it, with per-delta spec tables.  Only the
   sequential path is kept.  Properties hold the production engine to
   this one: same values and witness patterns, and never a disagreement
   with [Sweep.eval] where this one agrees. *)

open Qsens_core
open Qsens_linalg

type spec = {
  dim : int;
  num_hi : float array;
  num_lo : float array;
  den_hi : float array;
  den_lo : float array;
  num_bound : float array;
  num_bound_eq : float array;
  den_bound : float array;
  pinned : bool array;
  identical : bool;
  leaf : int -> float;
}

let inflate = 1. +. 1e-12
let eq_threshold = 1. +. 1e-9

(* Dinkelbach warm start: the pattern maximizing [num - lambda * den] is
   greedy per coordinate; iterate [lambda := leaf value]. *)
let greedy_pattern s lambda =
  let k = ref 0 in
  for i = 0 to s.dim - 1 do
    if
      s.num_hi.(i) -. (lambda *. s.den_hi.(i))
      > s.num_lo.(i) -. (lambda *. s.den_lo.(i))
    then k := !k lor (1 lsl i)
  done;
  !k

let seed_value s =
  let best = ref neg_infinity in
  let lambda = ref (s.leaf 0) in
  if Float.is_finite !lambda && !lambda > 0. then best := !lambda
  else lambda := 1.;
  (try
     for _ = 1 to 8 do
       let k = greedy_pattern s !lambda in
       let v = s.leaf k in
       if Float.equal v infinity then begin
         best := Float.max !best Float.max_float;
         raise Exit
       end;
       if Float.is_finite v && v > !best then best := v;
       if Float.is_nan v || v <= !lambda then raise Exit;
       lambda := v
     done
   with Exit -> ());
  !best

(* Value-only seed strictly below the best warm-start leaf. *)
let shared_seed specs =
  let v =
    Array.fold_left
      (fun acc s -> Float.max acc (seed_value s))
      neg_infinity specs
  in
  if Float.is_finite v && v > 0. then
    Float.min (v *. (1. -. 1e-12)) (Float.pred v)
  else neg_infinity

let search specs =
  let best = ref (shared_seed specs) and best_pat = ref (-1) in
  let improve v k =
    if v > !best then begin
      best := v;
      best_pat := k
    end
  in
  Array.iter
    (fun s ->
      if s.identical || s.dim = 0 then improve (s.leaf 0) 0
      else
        let rec node depth pattern pnum pden =
          if depth < 0 then improve (s.leaf pattern) pattern
          else begin
            let nb =
              if !best > eq_threshold then s.num_bound_eq.(depth)
              else s.num_bound.(depth)
            in
            if (pnum +. nb) *. inflate <= !best *. (pden +. s.den_bound.(depth))
            then ()
            else begin
              node (depth - 1) pattern
                (pnum +. s.num_lo.(depth))
                (pden +. s.den_lo.(depth));
              if not s.pinned.(depth) then
                node (depth - 1)
                  (pattern lor (1 lsl depth))
                  (pnum +. s.num_hi.(depth))
                  (pden +. s.den_hi.(depth))
            end
          end
        in
        node (s.dim - 1) 0 0. 0.)
    specs;
  (!best, !best_pat)

(* --- the worst-case instantiation --- *)

type t = {
  m : int;
  weights : float array array;  (* kept-slot indexed *)
  num_weights : float array;
  wsum : float array array;  (* per kept plan: ascending prefix sums *)
  nsum : float array;
  eq : bool array array;
  pinned : bool array array;
  identical : bool array;
  live : bool array;  (* not (degenerate and initial all-zero) *)
  ndegen : int;
}

let ascending_sum w = Array.fold_left ( +. ) 0. w

let prefix w =
  let out = Array.make (Array.length w + 1) 0. in
  Array.iteri (fun j x -> out.(j + 1) <- out.(j) +. x) w;
  out

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Same kept set as the production build (its validation and dominance
   pruning are unchanged). *)
let build ?prune ~plans ~initial ~center () =
  let kept =
    Sweep.Bnb.kept (Sweep.Bnb.build ?prune ~plans ~initial ~center ())
  in
  let m = Vec.dim center in
  let weights = Array.map (fun p -> Vec.map2 ( *. ) plans.(p) center) kept in
  let num_weights = Vec.map2 ( *. ) initial center in
  let initial_zero = Float.equal (ascending_sum num_weights) 0. in
  let eq =
    Array.map
      (fun w -> Array.init m (fun i -> bits_equal w.(i) num_weights.(i)))
      weights
  in
  let live =
    Array.map
      (fun w -> not (Float.equal (ascending_sum w) 0. && initial_zero))
      weights
  in
  {
    m;
    weights;
    num_weights;
    wsum = Array.map prefix weights;
    nsum = prefix num_weights;
    eq;
    pinned =
      Array.map
        (fun w ->
          Array.init m (fun i ->
              bits_equal w.(i) 0. && bits_equal num_weights.(i) 0.))
        weights;
    identical = Array.map (Array.for_all Fun.id) eq;
    live;
    ndegen = Array.fold_left (fun a l -> if l then a else a + 1) 0 live;
  }

let leaf_ratio ~delta ~inv ~wn ~wd k =
  let an = ref 0. and bn = ref 0. and ad = ref 0. and bd = ref 0. in
  for i = 0 to Array.length wd - 1 do
    if k land (1 lsl i) <> 0 then begin
      an := !an +. wn.(i);
      ad := !ad +. wd.(i)
    end
    else begin
      bn := !bn +. wn.(i);
      bd := !bd +. wd.(i)
    end
  done;
  Sweep.vertex_value ~delta ~inv !an !bn
  /. Sweep.vertex_value ~delta ~inv !ad !bd

let spec_of t ~delta ~inv s =
  let m = t.m in
  let wd = t.weights.(s) and wn = t.num_weights in
  let acc_eq = ref 0. in
  {
    dim = m;
    num_hi = Array.map (fun w -> delta *. w) wn;
    num_lo = Array.map (fun w -> w *. inv) wn;
    den_hi = Array.map (fun w -> delta *. w) wd;
    den_lo = Array.map (fun w -> w *. inv) wd;
    num_bound = Array.init m (fun i -> delta *. t.nsum.(i + 1));
    num_bound_eq =
      Array.init m (fun i ->
          acc_eq :=
            !acc_eq +. if t.eq.(s).(i) then wn.(i) *. inv else delta *. wn.(i);
          !acc_eq);
    den_bound = Array.init m (fun i -> inv *. t.wsum.(s).(i + 1));
    pinned = t.pinned.(s);
    identical = t.identical.(s);
    leaf = (fun k -> leaf_ratio ~delta ~inv ~wn ~wd k);
  }

(* [(gtc, pattern)], as [Sweep.Bnb.eval] returned them before the
   threshold bound. *)
let eval t ~delta =
  if delta < 1. then invalid_arg "Bnb_ref.eval: delta must be >= 1";
  let inv = 1. /. delta in
  let v, pat =
    if Float.equal delta 1. then begin
      let best = ref neg_infinity and best_pat = ref (-1) in
      Array.iteri
        (fun s live ->
          if live then begin
            let r =
              leaf_ratio ~delta ~inv ~wn:t.num_weights ~wd:t.weights.(s) 0
            in
            if r > !best then begin
              best := r;
              best_pat := 0
            end
          end)
        t.live;
      (!best, !best_pat)
    end
    else
      let specs = ref [] in
      for s = Array.length t.weights - 1 downto 0 do
        if t.live.(s) then specs := spec_of t ~delta ~inv s :: !specs
      done;
      search (Array.of_list !specs)
  in
  if pat >= 0 then (v, pat) else ((if t.ndegen > 0 then nan else v), -1)
