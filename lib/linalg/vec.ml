type t = float array

let make n x = Array.make n x
let init = Array.init
let of_list = Array.of_list
let to_list = Array.to_list
let dim = Array.length
let get = Array.get
let copy = Array.copy
let zero n = Array.make n 0.
let basis n i = init n (fun j -> if i = j then 1. else 0.)

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length a) (Array.length b))

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let dot_sub a pos len x =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg
      (Printf.sprintf "Vec.dot_sub: slice [%d, %d) outside array of length %d"
         pos (pos + len) (Array.length a));
  if len <> Array.length x then
    invalid_arg
      (Printf.sprintf "Vec.dot_sub: dimension mismatch (%d vs %d)" len
         (Array.length x));
  let acc = ref 0. in
  for i = 0 to len - 1 do
    acc := !acc +. (a.(pos + i) *. x.(i))
  done;
  !acc

(* Same ascending accumulation over an unboxed [floatarray] slice.  The
   bounds are validated up front, so the loop reads with unsafe accessors
   — the values (and hence the bits) are the same as [dot_sub] on a boxed
   copy of the slice. *)
let dot_sub_fa a pos len x =
  if pos < 0 || len < 0 || pos + len > Float.Array.length a then
    invalid_arg
      (Printf.sprintf
         "Vec.dot_sub_fa: slice [%d, %d) outside array of length %d" pos
         (pos + len) (Float.Array.length a));
  if len <> Array.length x then
    invalid_arg
      (Printf.sprintf "Vec.dot_sub_fa: dimension mismatch (%d vs %d)" len
         (Array.length x));
  let acc = ref 0. in
  for i = 0 to len - 1 do
    acc :=
      !acc +. (Float.Array.unsafe_get a (pos + i) *. Array.unsafe_get x i)
  done;
  !acc

let map2_named name f a b =
  check_dims name a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let map2 f a b = map2_named "map2" f a b
let add a b = map2_named "add" ( +. ) a b
let sub a b = map2_named "sub" ( -. ) a b
let scale k a = Array.map (fun x -> k *. x) a
let neg a = scale (-1.) a
let norm2 a = sqrt (dot a a)
let norm_inf a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a

let normalize a =
  let n = norm2 a in
  if Float.equal n 0. then copy a else scale (1. /. n) a

let equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         if Float.abs (a.(i) -. b.(i)) > eps then ok := false
       done;
       !ok
     end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = Float.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let dominates a b =
  Array.length a = Array.length b
  &&
  let all_le = ref true and some_lt = ref false in
  for i = 0 to Array.length a - 1 do
    if a.(i) > b.(i) then all_le := false;
    if a.(i) < b.(i) then some_lt := true
  done;
  !all_le && !some_lt

let map = Array.map
let fold = Array.fold_left
let max_elt a = Array.fold_left Float.max neg_infinity a
let min_elt a = Array.fold_left Float.min infinity a

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let pp ppf a =
  Format.fprintf ppf "(@[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%g" x)
    a;
  Format.fprintf ppf "@])"

let to_string a = Format.asprintf "%a" pp a
