open Qsens_linalg

let theorem1 ~delta ~gamma =
  if delta < 1. then invalid_arg "Bounds.theorem1: delta must be >= 1";
  (gamma /. (delta *. delta), gamma *. (delta *. delta))

let zero_threshold ?(eps = 1e-9) v = eps *. Float.max 1e-300 (Vec.norm_inf v)

type support = int array

let word_bits = Sys.int_size

let support ~zero v =
  let s = Array.make ((Vec.dim v + word_bits - 1) / word_bits) 0 in
  for i = 0 to Vec.dim v - 1 do
    if not (v.(i) <= zero) then begin
      let k = i / word_bits in
      s.(k) <- s.(k) lor (1 lsl (i mod word_bits))
    end
  done;
  s

(* qsens-hot: begin *)

let in_support s i = (s.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

let same_support s t =
  let n = Array.length s in
  Array.length t = n
  &&
  let k = ref 0 in
  while !k < n && Int.equal s.(!k) t.(!k) do
    incr k
  done;
  !k = n

let symmetric_difference s t d =
  let n = Array.length s in
  if Array.length t <> n || (Array.length d + word_bits - 1) / word_bits <> n
  then invalid_arg "Bounds.symmetric_difference: dimension mismatch";
  for k = 0 to n - 1 do
    let w = s.(k) lxor t.(k) and base = k * word_bits in
    for i = base to Int.min (Array.length d) (base + word_bits) - 1 do
      d.(i) <- (w lsr (i - base)) land 1 = 1
    done
  done

type ratios = {
  mutable r_min : float;
  mutable r_max : float;
  mutable max_ratio : float;
}

(* Components where not both plans are zero are exactly the shared
   support of a non-complementary pair, scanned in ascending index. *)
let scan_ratios t s a b =
  let r_min = ref infinity and r_max = ref neg_infinity in
  for k = 0 to Array.length s - 1 do
    let w = s.(k) and base = k * word_bits in
    for i = base to Int.min (Vec.dim a) (base + word_bits) - 1 do
      if (w lsr (i - base)) land 1 = 1 then begin
        let r = a.(i) /. b.(i) in
        if r < !r_min then r_min := r;
        if r > !r_max then r_max := r
      end
    done
  done;
  if Float.equal !r_max neg_infinity then begin
    (* both plans all-zero *)
    r_min := 1.;
    r_max := 1.
  end;
  t.r_min <- !r_min;
  t.r_max <- !r_max;
  (* [max(r_max, 1 / r_min)] with [1 / 0] read as infinity; [r_max] is
     never NaN, so the maximum with infinity is infinity. *)
  t.max_ratio <-
    (if Float.equal !r_min 0. then infinity else Float.max !r_max (1. /. !r_min))

(* qsens-hot: end *)

let supports ?eps a b =
  if Vec.dim a <> Vec.dim b then
    invalid_arg "Bounds.complementary_dims: dimension mismatch";
  ( support ~zero:(zero_threshold ?eps a) a,
    support ~zero:(zero_threshold ?eps b) b )

let complementary_dims ?eps a b =
  let sa, sb = supports ?eps a b in
  let dims = ref [] in
  for i = Vec.dim a - 1 downto 0 do
    if in_support sa i <> in_support sb i then dims := i :: !dims
  done;
  !dims

let complementary ?eps a b =
  let sa, sb = supports ?eps a b in
  not (same_support sa sb)

(* The pair's ratio scan, or [None] when it is complementary. *)
let pair_ratios ?eps a b =
  let sa, sb = supports ?eps a b in
  if same_support sa sb then begin
    let t = { r_min = 1.; r_max = 1.; max_ratio = 1. } in
    scan_ratios t sa a b;
    Some t
  end
  else None

let ratio_range ?eps a b =
  Option.map (fun t -> (t.r_min, t.r_max)) (pair_ratios ?eps a b)

let max_element_ratio ?eps a b =
  match pair_ratios ?eps a b with None -> infinity | Some t -> t.max_ratio

let theorem2_bound plans =
  let n = Array.length plans in
  let worst = ref 1. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let r = max_element_ratio plans.(i) plans.(j) in
      if r > !worst then worst := r
    done
  done;
  !worst
