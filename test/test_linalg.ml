(* Unit and property tests for the dense linear algebra substrate. *)

open Qsens_linalg

let check_float = Alcotest.(check (float 1e-9))

let vec_close msg a b =
  Alcotest.(check bool) msg true (Vec.equal ~eps:1e-7 a b)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_dot () =
  check_float "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  check_float "dot zero" 0. (Vec.dot (Vec.zero 3) [| 4.; 5.; 6. |]);
  check_float "dot basis" 5. (Vec.dot (Vec.basis 3 1) [| 4.; 5.; 6. |])

let test_dot_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_arith () =
  vec_close "add" [| 5.; 7. |] (Vec.add [| 1.; 2. |] [| 4.; 5. |]);
  vec_close "sub" [| -3.; -3. |] (Vec.sub [| 1.; 2. |] [| 4.; 5. |]);
  vec_close "scale" [| 2.; 4. |] (Vec.scale 2. [| 1.; 2. |]);
  vec_close "neg" [| -1.; 2. |] (Vec.neg [| 1.; -2. |])

let test_norms () =
  check_float "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  check_float "norm_inf" 4. (Vec.norm_inf [| 3.; -4. |]);
  vec_close "normalize" [| 0.6; 0.8 |] (Vec.normalize [| 3.; 4. |]);
  vec_close "normalize zero" (Vec.zero 2) (Vec.normalize (Vec.zero 2))

let test_dominates () =
  (* Section 4.4: a dominates b when b = a + q, q >= 0, b <> a. *)
  Alcotest.(check bool) "dominates" true (Vec.dominates [| 1.; 2. |] [| 1.; 3. |]);
  Alcotest.(check bool) "equal not dominated" false
    (Vec.dominates [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check bool) "incomparable" false
    (Vec.dominates [| 1.; 2. |] [| 2.; 1. |]);
  Alcotest.(check bool) "reverse" false (Vec.dominates [| 1.; 3. |] [| 1.; 2. |])

let test_minmax () =
  check_float "max" 7. (Vec.max_elt [| 3.; 7.; 1. |]);
  check_float "min" 1. (Vec.min_elt [| 3.; 7.; 1. |]);
  Alcotest.(check int) "argmax" 1 (Vec.argmax [| 3.; 7.; 1. |])

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mul () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 3.; 4. |] ] in
  let b = Mat.of_rows [ [| 5.; 6. |]; [| 7.; 8. |] ] in
  let c = Mat.mul a b in
  check_float "c00" 19. (Mat.get c 0 0);
  check_float "c01" 22. (Mat.get c 0 1);
  check_float "c10" 43. (Mat.get c 1 0);
  check_float "c11" 50. (Mat.get c 1 1)

let test_mul_vec () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 3.; 4. |] ] in
  vec_close "Av" [| 5.; 11. |] (Mat.mul_vec a [| 1.; 2. |])

let test_transpose () =
  let a = Mat.of_rows [ [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] ] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  Alcotest.(check int) "cols" 2 (Mat.cols t);
  check_float "t21" 6. (Mat.get t 2 1)

let test_solve () =
  (* 2x + y = 5, x - y = 1 -> x = 2, y = 1 *)
  let a = Mat.of_rows [ [| 2.; 1. |]; [| 1.; -1. |] ] in
  vec_close "solve" [| 2.; 1. |] (Mat.solve a [| 5.; 1. |])

let test_solve_pivoting () =
  (* Leading zero forces a row swap. *)
  let a = Mat.of_rows [ [| 0.; 1. |]; [| 1.; 0. |] ] in
  vec_close "pivot" [| 7.; 3. |] (Mat.solve a [| 3.; 7. |])

let test_solve_singular () =
  let a = Mat.of_rows [ [| 1.; 2. |]; [| 2.; 4. |] ] in
  Alcotest.check_raises "singular" Mat.Singular (fun () ->
      ignore (Mat.solve a [| 1.; 2. |]))

let test_inverse () =
  let a = Mat.of_rows [ [| 4.; 7. |]; [| 2.; 6. |] ] in
  let inv = Mat.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.equal ~eps:1e-9 (Mat.mul a inv) (Mat.identity 2))

let test_determinant () =
  let a = Mat.of_rows [ [| 4.; 7. |]; [| 2.; 6. |] ] in
  check_float "det" 10. (Mat.determinant a);
  let s = Mat.of_rows [ [| 1.; 2. |]; [| 2.; 4. |] ] in
  check_float "singular det" 0. (Mat.determinant s);
  (* Row swap flips the sign. *)
  let b = Mat.of_rows [ [| 0.; 1. |]; [| 1.; 0. |] ] in
  check_float "swap det" (-1.) (Mat.determinant b)

let test_least_squares_exact () =
  (* With square consistent systems least squares equals solve. *)
  let c = Mat.of_rows [ [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ] in
  let u = [| 2.; 3. |] in
  let t = Mat.mul_vec c u in
  vec_close "recover" u (Mat.least_squares c t)

let test_least_squares_overdetermined () =
  (* Observations with symmetric noise: LS averages it out. *)
  let c =
    Mat.of_rows [ [| 1.; 0. |]; [| 1.; 0. |]; [| 0.; 1. |]; [| 0.; 1. |] ]
  in
  let t = [| 1.9; 2.1; 3.2; 2.8 |] in
  vec_close "average" [| 2.; 3. |] (Mat.least_squares c t)

(* ------------------------------------------------------------------ *)
(* Properties *)

let vec_gen n =
  QCheck.Gen.(array_size (return n) (float_bound_inclusive 100.))

let arb_vec n = QCheck.make ~print:Vec.to_string (vec_gen n)

let prop_dot_symmetric =
  QCheck.Test.make ~count:200 ~name:"dot symmetric"
    (QCheck.pair (arb_vec 5) (arb_vec 5)) (fun (a, b) ->
      Float.abs (Vec.dot a b -. Vec.dot b a) <= 1e-6)

let prop_dot_linear =
  QCheck.Test.make ~count:200 ~name:"dot linear in scaling"
    (QCheck.triple (arb_vec 4) (arb_vec 4)
       (QCheck.float_range 0.1 10.)) (fun (a, b, k) ->
      let lhs = Vec.dot (Vec.scale k a) b and rhs = k *. Vec.dot a b in
      Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1. (Float.abs rhs))

let prop_solve_roundtrip =
  (* Random diagonally dominant systems are well conditioned. *)
  QCheck.Test.make ~count:200 ~name:"solve then multiply"
    (QCheck.pair (arb_vec 4) (arb_vec 4)) (fun (d, b) ->
      let n = 4 in
      let a =
        Mat.init n n (fun i j ->
            if i = j then 10. +. d.(i) else Float.of_int ((i + (2 * j)) mod 3))
      in
      let x = Mat.solve a b in
      Vec.equal ~eps:1e-6 (Mat.mul_vec a x) b)

let prop_least_squares_recovers =
  (* Noise-free overdetermined systems recover the generator exactly:
     the core guarantee behind the paper's usage-vector estimation. *)
  QCheck.Test.make ~count:200 ~name:"least squares recovers usage vector"
    (QCheck.pair (arb_vec 3) (QCheck.make (vec_gen 24)))
    (fun (u, raw) ->
      let rows =
        List.init 8 (fun i ->
            [| 1. +. raw.((3 * i)); 1. +. raw.((3 * i) + 1);
               1. +. raw.((3 * i) + 2) |])
      in
      let c = Mat.of_rows rows in
      let t = Mat.mul_vec c u in
      match Mat.least_squares c t with
      | x -> Vec.equal ~eps:1e-4 x u
      | exception Mat.Singular -> QCheck.assume_fail ())

(* Test-only copy of the elimination [Mat] ran before it was split into
   a factorization and per-right-hand-side replays: one pass over the
   augmented matrix that updates every column, right-hand sides
   included, at each step.  [Mat]'s solvers must return exactly what
   these return, bit for bit, and raise [Singular] on the same
   inputs. *)
module Whole_elimination = struct
  let forward_eliminate (a : float array) n ncols =
    let swaps = ref 0 in
    for k = 0 to n - 1 do
      let rk = k * ncols in
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs a.((i * ncols) + k) > Float.abs a.((!piv * ncols) + k) then
          piv := i
      done;
      let rp = !piv * ncols in
      if Float.abs a.(rp + k) < 1e-12 then raise Mat.Singular;
      if !piv <> k then begin
        incr swaps;
        for j = 0 to ncols - 1 do
          let t = a.(rk + j) in
          a.(rk + j) <- a.(rp + j);
          a.(rp + j) <- t
        done
      end;
      for i = k + 1 to n - 1 do
        let ri = i * ncols in
        let f = a.(ri + k) /. a.(rk + k) in
        if not (Float.equal f 0.) then
          for j = k to ncols - 1 do
            a.(ri + j) <- a.(ri + j) -. (f *. a.(rk + j))
          done
      done
    done;
    !swaps

  let solve_in_place n aug x =
    ignore (forward_eliminate aug n (n + 1));
    let nc = n + 1 in
    for i = n - 1 downto 0 do
      let acc = ref aug.((i * nc) + n) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (aug.((i * nc) + j) *. x.(j))
      done;
      x.(i) <- !acc /. aug.((i * nc) + i)
    done

  (* [a] is row-major [n x n]; the inverse comes back the same way. *)
  let inverse n a =
    let nc = 2 * n in
    let aug =
      Array.init (n * nc) (fun k ->
          let i = k / nc and j = k mod nc in
          if j < n then a.((i * n) + j) else if j - n = i then 1. else 0.)
    in
    ignore (forward_eliminate aug n nc);
    let inv = Array.make (n * n) 0. in
    for c = 0 to n - 1 do
      for i = n - 1 downto 0 do
        let acc = ref aug.((i * nc) + n + c) in
        for j = i + 1 to n - 1 do
          acc := !acc -. (aug.((i * nc) + j) *. inv.((j * n) + c))
        done;
        inv.((i * n) + c) <- !acc /. aug.((i * nc) + i)
      done
    done;
    inv

  let determinant n a =
    let aug = Array.copy a in
    match forward_eliminate aug n n with
    | swaps ->
        let d = ref (if swaps land 1 = 0 then 1. else -1.) in
        for i = 0 to n - 1 do
          d := !d *. aug.((i * n) + i)
        done;
        !d
    | exception Mat.Singular -> 0.
end

(* Square systems that reach every branch of the elimination: exact
   zeros of both signs (zero multipliers, zero columns), small integers
   (pivot ties, exact cancellation, singular matrices), and magnitudes
   from 1e-300 to 1e300 (underflow, overflow, infinities and NaN on the
   right-hand sides). *)
let gen_entry st =
  let open QCheck.Gen in
  match int_bound 5 st with
  | 0 -> 0.
  | 1 -> -0.
  | 2 | 3 -> Float.of_int (int_range (-3) 3 st)
  | _ ->
      (if bool st then 1. else -1.) *. Float.pow 10. (float_range (-300.) 300. st)

let gen_system =
  let open QCheck.Gen in
  int_range 1 6 >>= fun n ->
  map
    (fun (a, b) -> (n, a, b))
    (pair (array_size (return (n * n)) gen_entry) (array_size (return n) gen_entry))

let print_system (n, a, b) =
  let floats v = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") v)) in
  Printf.sprintf "n %d, a [%s], b [%s]" n (floats a) (floats b)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let outcome f = match f () with v -> Some v | exception Mat.Singular -> None

let same_outcome a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_bits x y
  | _ -> false

let prop_mat_matches_whole_elimination =
  QCheck.Test.make ~count:2000
    ~name:"mat: solvers bit-identical to the whole-matrix elimination"
    (QCheck.make ~print:print_system gen_system)
    (fun (n, a, b) ->
      let augmented () =
        Array.init (n * (n + 1)) (fun k ->
            let i = k / (n + 1) and j = k mod (n + 1) in
            if j = n then b.(i) else a.((i * n) + j))
      in
      let expected =
        outcome (fun () ->
            let x = Array.make n 0. in
            Whole_elimination.solve_in_place n (augmented ()) x;
            x)
      in
      let m = Mat.init n n (fun i j -> a.((i * n) + j)) in
      let in_place =
        outcome (fun () ->
            let x = Array.make n 0. in
            Mat.solve_in_place n (augmented ()) x;
            x)
      and factored =
        outcome (fun () ->
            let lu = Array.copy a and piv = Array.make n 0 and x = Array.copy b in
            ignore (Mat.factor n lu piv);
            let lo = Array.make n neg_infinity and hi = Array.make n infinity in
            (* Infinite bounds must never stop the solve. *)
            if Mat.solve_factored n lu piv ~lo ~hi ~eps:0. x then x else [||])
      and inverse =
        outcome (fun () ->
            let inv = Mat.inverse m in
            Array.init (n * n) (fun k -> Mat.get inv (k / n) (k mod n)))
      in
      same_outcome expected in_place
      && same_outcome expected factored
      && same_outcome expected (outcome (fun () -> Mat.solve m b))
      && same_outcome (outcome (fun () -> Whole_elimination.inverse n a)) inverse
      && same_bits
           [| Whole_elimination.determinant n a |]
           [| Mat.determinant m |])

(* Bounded back substitution: with finite bounds, [solve_factored]
   stops exactly at the first coordinate it computes (the highest
   index) whose full-solve value is outside [lo - eps, hi + eps], and
   every coordinate it has computed by then is bit for bit the full
   solve's.  Each bound is infinite, a random entry, or the coordinate's
   own full-solve value, where [x - x > 0] is false and [>=] would
   stop. *)
let gen_bounded =
  let open QCheck.Gen in
  gen_system >>= fun (n, a, b) ->
  map
    (fun (codes, eps) -> (n, a, b, codes, eps))
    (pair
       (array_size (return (2 * n)) (pair (int_bound 2) gen_entry))
       (oneofl [ 0.; 1e-7; 1. ]))

let print_bounded (n, a, b, codes, eps) =
  Printf.sprintf "%s, bounds [%s], eps %h" (print_system (n, a, b))
    (String.concat " "
       (Array.to_list (Array.map (fun (c, v) -> Printf.sprintf "%d:%h" c v) codes)))
    eps

let prop_bounded_back_substitution =
  QCheck.Test.make ~count:2000
    ~name:"mat: bounded back substitution stops at the first coordinate out of bounds"
    (QCheck.make ~print:print_bounded gen_bounded)
    (fun (n, a, b, codes, eps) ->
      let lu = Array.copy a and piv = Array.make n 0 in
      match Mat.factor n lu piv with
      | exception Mat.Singular -> true
      | _ ->
          let solve lo hi =
            let x = Array.copy b in
            let full = Mat.solve_factored n lu piv ~lo ~hi ~eps x in
            (full, x)
          in
          let _, expected =
            solve (Array.make n neg_infinity) (Array.make n infinity)
          in
          let bound k default =
            match codes.(k) with
            | 0, _ -> default
            | 1, _ -> expected.(k mod n)
            | _, v -> v
          in
          let lo = Array.init n (fun i -> bound i neg_infinity)
          and hi = Array.init n (fun i -> bound (n + i) infinity) in
          let out i =
            expected.(i) -. hi.(i) > eps || lo.(i) -. expected.(i) > eps
          in
          let stop = ref (-1) in
          for i = 0 to n - 1 do
            if out i then stop := i
          done;
          let full, x = solve lo hi in
          let from = if !stop < 0 then 0 else !stop in
          full = (!stop < 0)
          && same_bits (Array.sub x from (n - from)) (Array.sub expected from (n - from)))

let prop_dominates_irreflexive =
  QCheck.Test.make ~count:200 ~name:"dominates is irreflexive"
    (arb_vec 4) (fun a -> not (Vec.dominates a a))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_dot_symmetric; prop_dot_linear; prop_solve_roundtrip;
        prop_least_squares_recovers; prop_dominates_irreflexive;
        prop_mat_matches_whole_elimination; prop_bounded_back_substitution ]
  in
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "dot mismatch" `Quick test_dot_mismatch;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "norms" `Quick test_norms;
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "minmax" `Quick test_minmax;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "solve pivoting" `Quick test_solve_pivoting;
          Alcotest.test_case "solve singular" `Quick test_solve_singular;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
          Alcotest.test_case "least squares overdetermined" `Quick
            test_least_squares_overdetermined;
        ] );
      ("properties", qsuite);
    ]
