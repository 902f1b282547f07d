(* Packed plan matrices on unboxed storage.  The data lives in one
   contiguous [floatarray] — flat, unboxed, no per-row indirection — so
   the blocked matvec streams it with unsafe accessors after validating
   bounds once per call.  Lint rule K003 bans fresh allocation inside the
   marked hot sections; the [_into] variants plus {!Scratch} keep
   steady-state evaluation at zero minor-heap words. *)

module FA = Float.Array

type t = { data : floatarray; rows : int; cols : int }

let pack plans =
  let rows = Array.length plans in
  if rows = 0 then { data = FA.create 0; rows = 0; cols = 0 }
  else begin
    let cols = Array.length plans.(0) in
    Array.iteri
      (fun i p ->
        if Array.length p <> cols then
          invalid_arg
            (Printf.sprintf "Kernel.pack: row %d has %d columns, expected %d" i
               (Array.length p) cols))
      plans;
    let data = FA.create (rows * cols) in
    Array.iteri
      (fun i p ->
        let base = i * cols in
        for j = 0 to cols - 1 do
          FA.unsafe_set data (base + j) (Array.unsafe_get p j)
        done)
      plans;
    { data; rows; cols }
  end

let rows t = t.rows
let cols t = t.cols
let bytes t = (FA.length t.data * 8) + 48

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg
      (Printf.sprintf "Kernel.get: index (%d, %d) outside %dx%d matrix" i j
         t.rows t.cols);
  FA.get t.data ((i * t.cols) + j)

let row t i =
  if i < 0 || i >= t.rows then
    invalid_arg
      (Printf.sprintf "Kernel.row: row %d outside %dx%d matrix" i t.rows t.cols);
  Array.init t.cols (fun j -> FA.get t.data ((i * t.cols) + j))

let dot_row t i x =
  if i < 0 || i >= t.rows then
    invalid_arg
      (Printf.sprintf "Kernel.dot_row: row %d outside %dx%d matrix" i t.rows
         t.cols);
  Vec.dot_sub_fa t.data (i * t.cols) t.cols x

(* Reusable output buffers for the [_into] paths: one growable unboxed
   array per scratch, so repeated evaluations against matrices of any
   (bounded) size allocate nothing after warm-up. *)
module Scratch = struct
  type t = { mutable buf : floatarray }

  let create () = { buf = FA.create 0 }

  let ensure t n =
    if n < 0 then invalid_arg "Kernel.Scratch.ensure: negative size";
    if FA.length t.buf < n then t.buf <- FA.create n;
    t.buf

  let capacity t = FA.length t.buf
end

let check_matvec ~who t x =
  if Array.length x <> t.cols then
    invalid_arg
      (Printf.sprintf "Kernel.%s: vector has dimension %d, expected %d" who
         (Array.length x) t.cols)

(* Four-row blocking: independent accumulators per row amortize the load
   of [x.(j)] across rows.  Columns are never blocked — each row
   accumulates in ascending index order, so every entry is bit-identical
   to [Vec.dot (row t i) x].  The loop is written out once per output
   representation (boxed [float array] and unboxed [floatarray]) rather
   than through a store callback: a closure would box every finished
   accumulator, allocating on the very path these exist to keep clean. *)
(* qsens-hot: begin *)
let matvec t x out =
  check_matvec ~who:"matvec" t x;
  if Array.length out <> t.rows then
    invalid_arg
      (Printf.sprintf "Kernel.matvec: output has dimension %d, expected %d"
         (Array.length out) t.rows);
  let data = t.data and cols = t.cols in
  let i = ref 0 in
  while !i + 4 <= t.rows do
    let r0 = !i * cols in
    let r1 = r0 + cols in
    let r2 = r1 + cols in
    let r3 = r2 + cols in
    let acc0 = ref 0. and acc1 = ref 0. in
    let acc2 = ref 0. and acc3 = ref 0. in
    for j = 0 to cols - 1 do
      let xj = Array.unsafe_get x j in
      acc0 := !acc0 +. (FA.unsafe_get data (r0 + j) *. xj);
      acc1 := !acc1 +. (FA.unsafe_get data (r1 + j) *. xj);
      acc2 := !acc2 +. (FA.unsafe_get data (r2 + j) *. xj);
      acc3 := !acc3 +. (FA.unsafe_get data (r3 + j) *. xj)
    done;
    Array.unsafe_set out !i !acc0;
    Array.unsafe_set out (!i + 1) !acc1;
    Array.unsafe_set out (!i + 2) !acc2;
    Array.unsafe_set out (!i + 3) !acc3;
    i := !i + 4
  done;
  for r = !i to t.rows - 1 do
    Array.unsafe_set out r (Vec.dot_sub_fa data (r * cols) cols x)
  done

let matvec_into t x out =
  check_matvec ~who:"matvec_into" t x;
  if FA.length out < t.rows then
    invalid_arg
      (Printf.sprintf "Kernel.matvec_into: output has dimension %d, expected \
                       at least %d"
         (FA.length out) t.rows);
  let data = t.data and cols = t.cols in
  let i = ref 0 in
  while !i + 4 <= t.rows do
    let r0 = !i * cols in
    let r1 = r0 + cols in
    let r2 = r1 + cols in
    let r3 = r2 + cols in
    let acc0 = ref 0. and acc1 = ref 0. in
    let acc2 = ref 0. and acc3 = ref 0. in
    for j = 0 to cols - 1 do
      let xj = Array.unsafe_get x j in
      acc0 := !acc0 +. (FA.unsafe_get data (r0 + j) *. xj);
      acc1 := !acc1 +. (FA.unsafe_get data (r1 + j) *. xj);
      acc2 := !acc2 +. (FA.unsafe_get data (r2 + j) *. xj);
      acc3 := !acc3 +. (FA.unsafe_get data (r3 + j) *. xj)
    done;
    FA.unsafe_set out !i !acc0;
    FA.unsafe_set out (!i + 1) !acc1;
    FA.unsafe_set out (!i + 2) !acc2;
    FA.unsafe_set out (!i + 3) !acc3;
    i := !i + 4
  done;
  for r = !i to t.rows - 1 do
    FA.unsafe_set out r (Vec.dot_sub_fa data (r * cols) cols x)
  done
(* qsens-hot: end *)

let dot_rows t x =
  let out = Array.make t.rows 0. in
  matvec t x out;
  out
