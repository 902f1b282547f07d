type t = { nr : int; nc : int; a : float array }

let make nr nc x = { nr; nc; a = Array.make (nr * nc) x }

let init nr nc f =
  { nr; nc; a = Array.init (nr * nc) (fun k -> f (k / nc) (k mod nc)) }

let of_rows = function
  | [] -> invalid_arg "Mat.of_rows: empty"
  | r0 :: _ as rs ->
      let nc = Array.length r0 in
      let rows = Array.of_list rs in
      Array.iter
        (fun r ->
          if Array.length r <> nc then invalid_arg "Mat.of_rows: ragged rows")
        rows;
      init (Array.length rows) nc (fun i j -> rows.(i).(j))

let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = m.nr
let cols m = m.nc
let get m i j = m.a.((i * m.nc) + j)
let set m i j x = m.a.((i * m.nc) + j) <- x
let row m i = Array.init m.nc (fun j -> get m i j)
let col m j = Array.init m.nr (fun i -> get m i j)
let transpose m = init m.nc m.nr (fun i j -> get m j i)

let mul m n =
  if m.nc <> n.nr then invalid_arg "Mat.mul: dimension mismatch";
  init m.nr n.nc (fun i j ->
      let acc = ref 0. in
      for k = 0 to m.nc - 1 do
        acc := !acc +. (get m i k *. get n k j)
      done;
      !acc)

let mul_vec m v =
  if m.nc <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.nr (fun i ->
      let acc = ref 0. in
      for j = 0 to m.nc - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let add m n =
  if m.nr <> n.nr || m.nc <> n.nc then invalid_arg "Mat.add: dimension mismatch";
  { m with a = Array.mapi (fun k x -> x +. n.a.(k)) m.a }

let scale k m = { m with a = Array.map (fun x -> k *. x) m.a }

let equal ?(eps = 1e-9) m n =
  m.nr = n.nr && m.nc = n.nc
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) m.a n.a

exception Singular

(* Gaussian elimination with partial pivoting, split in two so that one
   factorization can serve many right-hand sides.  [factor_strided a n
   stride piv] reduces the [n x n] matrix in the leading columns of the
   row-major buffer [a] ([stride] entries per row) in place.  Step [k]
   records its pivot row in [piv.(k)], swaps only columns [k ..], and
   stores row [i]'s multiplier in the slot [a_ik] it has just cleared,
   which nothing reads again: earlier multipliers therefore stay with
   the positions they were computed for.  Returns the number of row
   swaps, whose parity is the permutation sign.  [replay] then applies
   step [k]'s swap and nonzero multipliers to one right-hand side in
   step order, and [back_substitute] finishes it.  The right-hand side
   never feeds a pivot or a multiplier, so the three perform, on the
   matrix and on each right-hand side, the operations of one
   elimination of the augmented matrix, in the same order.  Int and
   bool returns keep every call allocation-free. *)
(* qsens-hot: begin *)
let factor_strided (a : float array) n stride (piv : int array) =
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    let rk = k * stride in
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.((i * stride) + k) > Float.abs a.((!p * stride) + k) then
        p := i
    done;
    let rp = !p * stride in
    if Float.abs a.(rp + k) < 1e-12 then raise Singular;
    piv.(k) <- !p;
    if !p <> k then begin
      incr swaps;
      for j = k to n - 1 do
        let t = a.(rk + j) in
        a.(rk + j) <- a.(rp + j);
        a.(rp + j) <- t
      done
    end;
    for i = k + 1 to n - 1 do
      let ri = i * stride in
      let f = a.(ri + k) /. a.(rk + k) in
      a.(ri + k) <- f;
      if not (Float.equal f 0.) then
        for j = k + 1 to n - 1 do
          a.(ri + j) <- a.(ri + j) -. (f *. a.(rk + j))
        done
    done
  done;
  !swaps

let replay (a : float array) n stride (piv : int array) (b : float array) =
  for k = 0 to n - 1 do
    let p = piv.(k) in
    if p <> k then begin
      let t = b.(k) in
      b.(k) <- b.(p);
      b.(p) <- t
    end;
    for i = k + 1 to n - 1 do
      let f = a.((i * stride) + k) in
      if not (Float.equal f 0.) then b.(i) <- b.(i) -. (f *. b.(k))
    done
  done

(* Overwrites the reduced right-hand side in [x] with the solution, row
   [n - 1] first, each row's sum in ascending column order.  Stops and
   returns false at the first coordinate with [x_i - hi_i > eps] or
   [lo_i - x_i > eps], leaving the coordinates below it unsolved; true
   when every coordinate is solved.  An infinite bound never stops it:
   [x - infinity] and [neg_infinity - x] are never above [eps]. *)
let back_substitute (a : float array) n stride ~lo ~hi eps (x : float array) =
  let inside = ref true and i = ref (n - 1) in
  while !inside && !i >= 0 do
    let k = !i in
    let rk = k * stride in
    let acc = ref x.(k) in
    for j = k + 1 to n - 1 do
      acc := !acc -. (a.(rk + j) *. x.(j))
    done;
    let xk = !acc /. a.(rk + k) in
    x.(k) <- xk;
    inside := not (xk -. hi.(k) > eps || lo.(k) -. xk > eps);
    decr i
  done;
  !inside

let factor n lu piv =
  if n < 0 || Array.length lu <> n * n || Array.length piv < n then
    invalid_arg "Mat.factor: buffer size mismatch";
  factor_strided lu n n piv

let solve_factored n lu piv ~lo ~hi ~eps x =
  if n < 0 || Array.length lu <> n * n || Array.length piv < n
     || Array.length x <> n || Array.length lo <> n || Array.length hi <> n
  then invalid_arg "Mat.solve_factored: buffer size mismatch";
  replay lu n n piv x;
  back_substitute lu n n ~lo ~hi eps x
(* qsens-hot: end *)

(* Bounds for the plain solvers, which never stop early. *)
let unbounded n = (Array.make n neg_infinity, Array.make n infinity)

let solve_in_place n aug x =
  if n < 0 || Array.length aug <> n * (n + 1) || Array.length x <> n then
    invalid_arg "Mat.solve_in_place: buffer size mismatch";
  let nc = n + 1 in
  for i = 0 to n - 1 do
    x.(i) <- aug.((i * nc) + n)
  done;
  let piv = Array.make n 0 in
  ignore (factor_strided aug n nc piv);
  replay aug n nc piv x;
  let lo, hi = unbounded n in
  ignore (back_substitute aug n nc ~lo ~hi 0. x)

let solve m b =
  let n = m.nr in
  if m.nc <> n then invalid_arg "Mat.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Mat.solve: rhs dimension mismatch";
  let aug = init n (n + 1) (fun i j -> if j = n then b.(i) else get m i j) in
  let x = Array.make n 0. in
  solve_in_place n aug.a x;
  x

(* One factorization, then each identity column as a right-hand side. *)
let inverse m =
  let n = m.nr in
  if m.nc <> n then invalid_arg "Mat.inverse: matrix not square";
  let lu = Array.copy m.a and piv = Array.make n 0 in
  ignore (factor_strided lu n n piv);
  let inv = make n n 0. and e = Array.make n 0. and lo, hi = unbounded n in
  for c = 0 to n - 1 do
    Array.fill e 0 n 0.;
    e.(c) <- 1.;
    replay lu n n piv e;
    ignore (back_substitute lu n n ~lo ~hi 0. e);
    for i = 0 to n - 1 do
      set inv i c e.(i)
    done
  done;
  inv

let determinant m =
  let n = m.nr in
  if m.nc <> n then invalid_arg "Mat.determinant: matrix not square";
  let lu = Array.copy m.a in
  match factor_strided lu n n (Array.make n 0) with
  | swaps ->
      let d = ref (if swaps land 1 = 0 then 1. else -1.) in
      for i = 0 to n - 1 do
        d := !d *. lu.((i * n) + i)
      done;
      !d
  | exception Singular -> 0.

let least_squares c t =
  if rows c < cols c then
    invalid_arg "Mat.least_squares: underdetermined system";
  let ct = transpose c in
  let normal = mul ct c in
  let rhs = mul_vec ct t in
  solve normal rhs

let ridge_least_squares ~ridge ~prior c t =
  if ridge <= 0. then invalid_arg "Mat.ridge_least_squares: ridge <= 0";
  let n = cols c in
  if Array.length prior <> n then
    invalid_arg "Mat.ridge_least_squares: prior dimension mismatch";
  (* (CtC + lambda I) x = Ct t + lambda prior, with lambda scaled by the
     mean diagonal of CtC so [ridge] is unitless. *)
  let ct = transpose c in
  let normal = mul ct c in
  let scale = ref 0. in
  for i = 0 to n - 1 do
    scale := !scale +. get normal i i
  done;
  let lambda = ridge *. Float.max 1e-300 (!scale /. Float.of_int n) in
  for i = 0 to n - 1 do
    set normal i i (get normal i i +. lambda)
  done;
  let rhs = Array.mapi (fun i x -> x +. (lambda *. prior.(i))) (mul_vec ct t) in
  solve normal rhs

(* Iteratively reweighted least squares with Huber weights.  Residuals
   are scaled by 1.4826 * median |r| (a robust sigma estimate); points
   beyond [tuning] scaled deviations are downweighted proportionally to
   1/|r|, so a few corrupted observations degrade the fit instead of
   dragging it.  When the residual scale is (numerically) zero — clean,
   exactly-consistent observations — the OLS solution is returned
   untouched, which keeps fault-free runs bit-identical to
   [least_squares]. *)
let dot_row c i x =
  let acc = ref 0. in
  for j = 0 to cols c - 1 do
    acc := !acc +. (get c i j *. x.(j))
  done;
  !acc

let irls ?(max_iter = 20) ?(tol = 1e-10) ?(tuning = 1.345) c t =
  let m = rows c and n = cols c in
  let x = ref (least_squares c t) in
  let residual x = Array.init m (fun i -> t.(i) -. dot_row c i x)
  and continue_ = ref true
  and iter = ref 0 in
  while !continue_ && !iter < max_iter do
    incr iter;
    let r = residual !x in
    let abs_r = Array.map Float.abs r in
    let sorted = Array.copy abs_r in
    Array.sort Float.compare sorted;
    let median =
      if m mod 2 = 1 then sorted.(m / 2)
      else (sorted.((m / 2) - 1) +. sorted.(m / 2)) /. 2.
    in
    let s = 1.4826 *. median in
    let scale_floor =
      1e-12 *. Float.max 1. (Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0. t)
    in
    if s <= scale_floor then continue_ := false
    else begin
      let k = tuning *. s in
      let w =
        Array.map (fun a -> if a <= k then 1. else k /. a) abs_r
      in
      (* weighted normal equations via sqrt-weight row scaling *)
      let cw = init m n (fun i j -> sqrt w.(i) *. get c i j) in
      let tw = Array.mapi (fun i ti -> sqrt w.(i) *. ti) t in
      let x' = least_squares cw tw in
      let delta =
        Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.
          (Array.mapi (fun i v -> v -. !x.(i)) x')
      in
      let size =
        Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1. x'
      in
      x := x';
      if delta <= tol *. size then continue_ := false
    end
  done;
  !x

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.nr - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[";
    for j = 0 to m.nc - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%g" (get m i j)
    done;
    Format.fprintf ppf "]"
  done;
  Format.fprintf ppf "@]"
