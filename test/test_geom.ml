(* Tests for half-spaces, boxes, the simplex solver, vertex enumeration,
   linear-fractional optimization, and regions of influence. *)

open Qsens_linalg
open Qsens_geom

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Halfspace *)

let test_halfspace_membership () =
  let h = Halfspace.make [| 1.; 1. |] 2. in
  Alcotest.(check bool) "inside" true (Halfspace.contains h [| 0.5; 0.5 |]);
  Alcotest.(check bool) "boundary" true (Halfspace.contains h [| 1.; 1. |]);
  Alcotest.(check bool) "outside" false (Halfspace.contains h [| 2.; 2. |]);
  Alcotest.(check bool) "on_boundary" true (Halfspace.on_boundary h [| 1.; 1. |])

let test_halfspace_shift () =
  let h = Halfspace.make [| 3.; 4. |] 10. in
  let h' = Halfspace.shift 1. h in
  (* The normal has norm 5, so the offset drops by 5. *)
  check_float "offset" 5. h'.Halfspace.offset

let test_switchover () =
  (* Example 1 of the paper: A = (1,0), B = (0,1).  The switchover plane
     is the diagonal; on it both plans cost the same. *)
  let h = Halfspace.switchover [| 1.; 0. |] [| 0.; 1. |] in
  Alcotest.(check bool) "diagonal on plane" true
    (Halfspace.on_boundary h [| 3.; 3. |]);
  (* Below the diagonal (c1 < c2): plan a is cheaper, i.e. inside. *)
  Alcotest.(check bool) "a cheaper side" true (Halfspace.contains h [| 1.; 2. |]);
  Alcotest.(check bool) "b cheaper side" false
    (Halfspace.contains h [| 2.; 1. |])

let test_complement () =
  let h = Halfspace.make [| 1.; 0. |] 1. in
  let c = Halfspace.complement h in
  Alcotest.(check bool) "flipped" true (Halfspace.contains c [| 2.; 0. |]);
  Alcotest.(check bool) "both on boundary" true
    (Halfspace.contains c [| 1.; 0. |] && Halfspace.contains h [| 1.; 0. |])

(* ------------------------------------------------------------------ *)
(* Box *)

let test_box_around () =
  let b = Box.around [| 2.; 8. |] ~delta:2. in
  Alcotest.(check bool) "lo" true (Vec.equal b.Box.lo [| 1.; 4. |]);
  Alcotest.(check bool) "hi" true (Vec.equal b.Box.hi [| 4.; 16. |]);
  Alcotest.(check bool) "contains center" true (Box.contains b [| 2.; 8. |]);
  Alcotest.(check bool) "excludes" false (Box.contains b [| 5.; 8. |])

let test_box_vertices () =
  let b = Box.make [| 0.; 0. |] [| 1.; 2. |] in
  let vs = Box.vertices b in
  Alcotest.(check int) "count" 4 (List.length vs);
  Alcotest.(check bool) "has (1,2)" true
    (List.exists (fun v -> Vec.equal v [| 1.; 2. |]) vs);
  Alcotest.(check bool) "has (0,0)" true
    (List.exists (fun v -> Vec.equal v [| 0.; 0. |]) vs)

let test_box_corner_maximizing () =
  let b = Box.make [| 1.; 1. |] [| 10.; 10. |] in
  Alcotest.(check bool) "mixed signs" true
    (Vec.equal (Box.corner_maximizing b [| 1.; -1. |]) [| 10.; 1. |])

let test_box_sample_degenerate () =
  (* A degenerate interval (lo = hi) must return the endpoint exactly,
     not exp (log l), which drifts in the last ulp; 3.7 is not exactly
     representable, so the round trip would differ. *)
  let st = Random.State.make [| 5 |] in
  let b = Box.make [| 3.7; 1. |] [| 3.7; 2. |] in
  for _ = 1 to 20 do
    let x = Box.sample st b in
    Alcotest.(check bool) "exact endpoint" true (x.(0) = 3.7);
    Alcotest.(check bool) "in range" true (x.(1) >= 1. && x.(1) <= 2.)
  done;
  Alcotest.(check bool) "exp/log differs" true (exp (log 3.7) <> 3.7)

let test_box_halfspaces () =
  let b = Box.make [| 0.; 0. |] [| 1.; 1. |] in
  let hs = Box.to_halfspaces b in
  Alcotest.(check int) "4 facets" 4 (List.length hs);
  Alcotest.(check bool) "inside all" true
    (List.for_all (fun h -> Halfspace.contains h [| 0.5; 0.5 |]) hs);
  Alcotest.(check bool) "outside some" false
    (List.for_all (fun h -> Halfspace.contains h [| 1.5; 0.5 |]) hs)

(* ------------------------------------------------------------------ *)
(* Simplex *)

let test_simplex_basic () =
  (* max x + y st x <= 2, y <= 3 -> 5 at (2,3). *)
  match
    Simplex.maximize ~obj:[| 1.; 1. |]
      ~constraints:[ ([| 1.; 0. |], 2.); ([| 0.; 1. |], 3.) ]
  with
  | Simplex.Optimal (x, v) ->
      check_float "value" 5. v;
      Alcotest.(check bool) "point" true (Vec.equal ~eps:1e-9 x [| 2.; 3. |])
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_classic () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2,6). *)
  match
    Simplex.maximize ~obj:[| 3.; 5. |]
      ~constraints:
        [ ([| 1.; 0. |], 4.); ([| 0.; 2. |], 12.); ([| 3.; 2. |], 18.) ]
  with
  | Simplex.Optimal (x, v) ->
      check_float "value" 36. v;
      Alcotest.(check bool) "point" true (Vec.equal ~eps:1e-9 x [| 2.; 6. |])
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_unbounded () =
  match Simplex.maximize ~obj:[| 1.; 0. |] ~constraints:[ ([| 0.; 1. |], 1.) ] with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_infeasible () =
  (* x <= -1 with x >= 0 has no solution. *)
  match Simplex.maximize ~obj:[| 1. |] ~constraints:[ ([| 1. |], -1.) ] with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_negative_rhs_feasible () =
  (* -x <= -2 means x >= 2; max -x st x >= 2, x <= 5 -> x = 2. *)
  match
    Simplex.maximize ~obj:[| -1. |]
      ~constraints:[ ([| -1. |], -2.); ([| 1. |], 5.) ]
  with
  | Simplex.Optimal (x, _) -> check_float "x" 2. x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_feasible_in_box () =
  let box = Box.make [| 1.; 1. |] [| 4.; 4. |] in
  (* x + y <= 3 cuts a corner off the box: (1,1) qualifies. *)
  let h = Halfspace.make [| 1.; 1. |] 3. in
  (match Simplex.feasible_in_box box [ h ] with
  | Some p ->
      Alcotest.(check bool) "in box" true (Box.contains box p);
      Alcotest.(check bool) "in halfspace" true (Halfspace.contains h p)
  | None -> Alcotest.fail "expected feasible");
  (* x + y <= 1 excludes the whole box. *)
  let h2 = Halfspace.make [| 1.; 1. |] 1. in
  Alcotest.(check bool) "infeasible" true
    (Simplex.feasible_in_box box [ h2 ] = None)

(* ------------------------------------------------------------------ *)
(* Vertex enumeration *)

let test_count_subsets () =
  Alcotest.(check int) "C(5,2)" 10 (Vertex_enum.count_subsets 5 2);
  Alcotest.(check int) "C(34,5)" 278256 (Vertex_enum.count_subsets 34 5);
  Alcotest.(check int) "C(n,0)" 1 (Vertex_enum.count_subsets 7 0);
  Alcotest.(check int) "C(n,n)" 1 (Vertex_enum.count_subsets 7 7);
  Alcotest.(check int) "k>n" 0 (Vertex_enum.count_subsets 3 5)

(* [count_subsets] is exact whenever C(n, k) fits in an int and
   [max_int] otherwise: C(62, 31) fits although its running product
   does not, and C(76, 22) overflows although a wrapped product can
   come out small.  Checked against a saturating Pascal triangle, which
   is exact-or-max_int because each entry bounds its two summands. *)
let test_count_subsets_saturation () =
  Alcotest.(check int) "C(62,31)" 465_428_353_255_261_088
    (Vertex_enum.count_subsets 62 31);
  Alcotest.(check int) "C(76,22) saturates" max_int
    (Vertex_enum.count_subsets 76 22);
  let nmax = 200 in
  let row = Array.make (nmax + 1) 0 in
  row.(0) <- 1;
  for n = 0 to nmax do
    if n > 0 then
      for k = n downto 1 do
        row.(k) <- (if row.(k) > max_int - row.(k - 1) then max_int
                    else row.(k) + row.(k - 1))
      done;
    for k = 0 to n do
      if Vertex_enum.count_subsets n k <> row.(k) then
        Alcotest.failf "C(%d, %d): got %d, expected %d" n k
          (Vertex_enum.count_subsets n k) row.(k)
    done
  done

let test_vertex_enum_box () =
  let b = Box.make [| 0.; 0. |] [| 2.; 3. |] in
  let vs = Vertex_enum.vertices (Box.to_halfspaces b) in
  Alcotest.(check int) "square has 4 vertices" 4 (List.length vs)

let test_vertex_enum_triangle () =
  (* x >= 0, y >= 0, x + y <= 1. *)
  let hs =
    [
      Halfspace.make [| -1.; 0. |] 0.;
      Halfspace.make [| 0.; -1. |] 0.;
      Halfspace.make [| 1.; 1. |] 1.;
    ]
  in
  let vs = Vertex_enum.vertices hs in
  Alcotest.(check int) "triangle has 3 vertices" 3 (List.length vs);
  Alcotest.(check bool) "has (1,0)" true
    (List.exists (fun v -> Vec.equal ~eps:1e-7 v [| 1.; 0. |]) vs)

let test_vertex_enum_too_large () =
  let b = Box.make (Vec.zero 6) (Vec.make 6 1.) in
  Alcotest.check_raises "budget" Vertex_enum.Too_large (fun () ->
      ignore (Vertex_enum.vertices ~max_subsets:10 (Box.to_halfspaces b)))

(* A polytope with no vertex at all (x0 <= -1 against the box's
   x0 >= 1) over more than 10^5 subsets, most of which reach a solve.
   x0 <= -1 is itself a unit row, so every solve stops on a box bound
   before the feasibility scan. *)
let empty_polytope () =
  let n = 6 in
  let st = Random.State.make [| 7 |] in
  let random () =
    Halfspace.make
      (Array.init n (fun _ -> Random.State.float st 2. -. 1.))
      (Random.State.float st 1.)
  in
  ( n,
    Halfspace.make (Array.init n (fun j -> if j = 0 then 1. else 0.)) (-1.)
    :: Box.to_halfspaces (Box.make (Vec.make n 1.) (Vec.make n 2.))
    @ List.init 10 (fun _ -> random ()) )

(* Allocation guard for the per-subset loop on [empty_polytope].  Only
   per-call set-up may allocate; the brute-force path allocated 758
   minor words per subset here. *)
let test_vertex_enum_alloc () =
  let n, hs = empty_polytope () in
  let subsets = Vertex_enum.count_subsets (List.length hs) n in
  Alcotest.(check bool) "at least 10^5 subsets" true (subsets >= 100_000);
  let vs, minor, _ =
    Qsens_obs.Obs.measure_alloc ~n:subsets (fun () ->
        Vertex_enum.vertices ~max_subsets:subsets hs)
  in
  Alcotest.(check int) "no vertex" 0 (List.length vs);
  if minor > 0.1 then
    Alcotest.failf "%.3f minor words per subset (limit 0.1)" minor

(* The allocation guard again, where [empty_polytope] no longer reaches:
   its x0 <= -1 is a unit row, so every solve there stops on a box
   bound.  Here a polytope with no vertex and no unit row,
   x0 + x1 <= -1 against x0 + x1 >= 1 beside 21 random rows, has no
   box bound, so every solve goes on to the guard and the feasibility
   scan, which must not allocate either. *)
let test_vertex_enum_alloc_scan () =
  let n = 6 in
  let st = Random.State.make [| 7 |] in
  let random () =
    Halfspace.make
      (Array.init n (fun _ -> Random.State.float st 2. -. 1.))
      (Random.State.float st 1.)
  in
  let pair sign = Halfspace.make (Array.init n (fun j -> if j < 2 then sign else 0.)) (-1.) in
  let hs = pair 1. :: pair (-1.) :: List.init 21 (fun _ -> random ()) in
  let subsets = Vertex_enum.count_subsets (List.length hs) n in
  let vs, minor, _ =
    Qsens_obs.Obs.measure_alloc ~n:subsets (fun () ->
        Vertex_enum.vertices ~max_subsets:subsets hs)
  in
  Alcotest.(check int) "no vertex" 0 (List.length vs);
  if minor > 0.1 then
    Alcotest.failf "%.3f minor words per subset (limit 0.1)" minor;
  match
    Obs_totals.run
      [ "vertex_enum.solved"; "vertex_enum.rejected" ]
      (fun () -> Vertex_enum.vertices ~max_subsets:subsets hs)
  with
  | Ok _, counts -> Alcotest.(check (list int)) "every solve scanned" [ 94962; 0 ] counts
  | Error e, _ -> Alcotest.fail e

(* The work counters, pinned.  An enumerator that factored every subset
   afresh, re-solved every facet choice, or scanned every solution in
   full would pass every bit-identity test; only the counts tell it
   apart.  On [empty_polytope] the six box pairs make each class stand
   for up to 2^6 subsets, and every solve stops on a box bound.  On a
   box straddling the origin cut by rows through it, 15 of the 36
   solves stop on a box bound, and 4 survivors have zero coordinates
   and are re-solved. *)
let enum_counters =
  List.map (( ^ ) "vertex_enum.")
    [ "subsets"; "skipped"; "factored"; "solved"; "rejected"; "resolved"; "vertices" ]

let test_vertex_enum_counters () =
  let count hs =
    match Obs_totals.run enum_counters (fun () -> Vertex_enum.vertices hs) with
    | Ok _, counts -> counts
    | Error e, _ -> Alcotest.fail e
  in
  let _, hs = empty_polytope () in
  Alcotest.(check (list int)) "empty polytope" [ 100947; 41545; 11011; 59402; 59402; 0; 0 ] (count hs);
  let hs =
    Halfspace.make [| 2.; -1.; -2. |] 0.
    :: Halfspace.make [| -2.; 1.; -2. |] 0.
    :: Box.to_halfspaces (Box.make [| -3.; -1.; -1. |] [| 1.; 2.; 3. |])
  in
  Alcotest.(check (list int)) "straddling box" [ 56; 18; 10; 36; 15; 4; 9 ] (count hs)

(* Bit-identity against the brute-force reference (test/vertex_enum_ref.ml).
   Regions are built the way discovery builds them — [Region.of_plans],
   then [contract 1e-6] — over usage vectors that reach the enumerator's
   skip rules: sparse coordinates (zero columns), duplicated plans (twin
   and zero rows) and an all-zero plan, beside the box's lo/hi pairs. *)

let pool1 = Qsens_parallel.Pool.create ~domains:1 ()
let pool2 = Qsens_parallel.Pool.create ~domains:2 ()
let pool3 = Qsens_parallel.Pool.create ~domains:3 ()

let () =
  at_exit (fun () ->
      List.iter Qsens_parallel.Pool.shutdown [ pool1; pool2; pool3 ])

type region_case = {
  plans : Vec.t array;
  index : int;
  delta : float;
  max_subsets : int;
}

let gen_region_case st =
  let open QCheck.Gen in
  let m = int_range 2 6 st and k = int_range 2 14 st in
  let coord st =
    if float_bound_exclusive 1. st < 0.3 then 0.
    else Float.pow 10. (float_range (-2.) 4. st)
  in
  let plans = Array.init k (fun _ -> Array.init m (fun _ -> coord st)) in
  for i = 1 to k - 1 do
    if float_bound_exclusive 1. st < 0.15 then
      plans.(i) <- Array.copy plans.(int_bound (i - 1) st)
  done;
  if float_bound_exclusive 1. st < 0.3 then
    plans.(int_bound (k - 1) st) <- Vec.zero m;
  {
    plans;
    index = int_bound (k - 1) st;
    delta = oneofl [ 10.; 1e4 ] st;
    max_subsets = oneofl [ 200_000; 20_000; 2_000 ] st;
  }

let print_region_case c =
  Printf.sprintf "index %d, delta %g, max_subsets %d, plans [%s]" c.index
    c.delta c.max_subsets
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun p ->
               String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") p)))
             c.plans)))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_vertices_match_reference =
  QCheck.Test.make ~count:100
    ~name:"vertices: bit-identical to the brute-force reference"
    (QCheck.make ~print:print_region_case gen_region_case)
    (fun c ->
      let m = Array.length c.plans.(0) in
      let box = Box.around (Vec.make m 1.) ~delta:c.delta in
      let region =
        Region.contract 1e-6 (Region.of_plans ~plans:c.plans ~index:c.index box)
      in
      let hs = Region.halfspaces region in
      let run f = match f () with vs -> Some vs | exception Vertex_enum.Too_large -> None in
      let expected =
        run (fun () -> Vertex_enum_ref.vertices ~max_subsets:c.max_subsets hs)
      in
      List.for_all
        (fun pool ->
          match
            (expected, run (fun () -> Vertex_enum.vertices ~max_subsets:c.max_subsets ?pool hs))
          with
          | None, None -> true
          | Some e, Some v -> List.length e = List.length v && List.for_all2 same_bits e v
          | _ -> false)
        [ None; Some pool1; Some pool2; Some pool3 ])

(* Bit-identity on systems whose vertices have zero coordinates, and on
   opposite rows that are not box facets.  Rows pass through the origin
   or bound boxes that straddle it, so eliminations cancel to exact
   zeros: there a facet choice's replay on its class's factorization
   can give a zero of the other sign than solving the choice directly,
   which the enumerator must catch and re-solve.  Opposite rows sit at
   adjacent indices (mirrored rows, mirrored plan pairs [A_j + A_k =
   2 A_i]) and, in the mirrored kind, also apart, where they must not
   be paired.  The region property above never yields a zero
   coordinate. *)

type zero_case = { kind : string; hs : Halfspace.t list }

let gen_zero_case st =
  let open QCheck.Gen in
  let m = int_range 2 4 st in
  let small () = Float.of_int (int_range (-2) 2 st) in
  let row ?(offset = 0.) () = Halfspace.make (Array.init m (fun _ -> small ())) offset in
  let straddle () =
    Box.make
      (Array.init m (fun _ -> -.Float.of_int (int_range 1 4 st)))
      (Array.init m (fun _ -> Float.of_int (int_range 1 4 st)))
  in
  match int_bound 3 st with
  | 0 ->
      let rows = List.init (int_range 1 6 st) (fun _ -> row ()) in
      { kind = "straddling box"; hs = rows @ Box.to_halfspaces (straddle ()) }
  | 1 -> { kind = "origin rows"; hs = List.init (int_range m 10 st) (fun _ -> row ()) }
  | 2 ->
      let offset () = if bool st then 0. else small () in
      let rows =
        List.concat
          (List.init (int_range 2 6 st) (fun _ ->
               let h = row ~offset:(offset ()) () in
               if bool st then [ h; Halfspace.make (Vec.neg h.normal) (offset ()) ]
               else [ h ]))
      in
      (* Opposites of earlier rows, inserted further on. *)
      let arr = Array.of_list rows in
      let extra =
        List.init (int_range 0 2 st) (fun _ ->
            let h = arr.(int_bound (Array.length arr - 1) st) in
            (int_bound (Array.length arr) st, Halfspace.make (Vec.neg h.normal) (offset ())))
      in
      let hs =
        List.concat
          (List.mapi
             (fun i h -> List.filter_map (fun (at, e) -> if at = i then Some e else None) extra @ [ h ])
             rows)
      in
      { kind = "mirrored rows"; hs }
  | _ ->
      let centre = Array.init m (fun _ -> Float.of_int (int_range 0 4 st)) in
      let others =
        List.concat
          (List.init (int_range 1 4 st) (fun _ ->
               let d = Array.init m (fun _ -> small ()) in
               if bool st then [ Vec.add centre d; Vec.sub centre d ]
               else [ Array.init m (fun _ -> Float.of_int (int_range 0 4 st)) ]))
      in
      let index = int_bound (List.length others) st in
      let plans =
        Array.of_list
          (List.filteri (fun i _ -> i < index) others
          @ (centre :: List.filteri (fun i _ -> i >= index) others))
      in
      let box = if bool st then straddle () else Box.around (Vec.make m 1.) ~delta:4. in
      let region = Region.of_plans ~plans ~index box in
      let region = if bool st then Region.contract 1e-6 region else region in
      { kind = "mirrored plans"; hs = Region.halfspaces region }

let print_zero_case c =
  Printf.sprintf "%s: [%s]" c.kind
    (String.concat "; "
       (List.map
          (fun h ->
            Printf.sprintf "%s <= %h"
              (String.concat " "
                 (Array.to_list (Array.map (Printf.sprintf "%h") h.Halfspace.normal)))
              h.Halfspace.offset)
          c.hs))

let prop_zero_vertices_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"vertices: bit-identical to the reference with zero coordinates"
    (QCheck.make ~print:print_zero_case gen_zero_case)
    (fun c ->
      let run f = match f () with vs -> Some vs | exception Vertex_enum.Too_large -> None in
      let expected = run (fun () -> Vertex_enum_ref.vertices c.hs) in
      List.for_all
        (fun pool ->
          match (expected, run (fun () -> Vertex_enum.vertices ?pool c.hs)) with
          | None, None -> true
          | Some e, Some v -> List.length e = List.length v && List.for_all2 same_bits e v
          | _ -> false)
        [ None; Some pool1; Some pool2; Some pool3 ])

(* Bit-identity where the box-bound test in back substitution starts and
   stops applying.  Rows mix small-integer rows; unit and scaled unit
   rows [c e_j], c in {1, -1, 2, -2, 0.5, -0.5}, of which only |c| = 1
   bounds a coordinate, some with their facet [eps] outside the box,
   where [x - hi > eps] is false and [>=] would be true; offsets from
   1e200 to 1e308, which put a call on either side of the finiteness
   gate, and infinite ones; and entries at and past the skip rules'
   2^(1022 - n) gate, where no call passes the finiteness gate.  The
   box's facets come first or last. *)

let gen_gate_case st =
  let open QCheck.Gen in
  let m = int_range 2 4 st in
  let small () = Float.of_int (int_range (-3) 3 st) in
  let signed v = if bool st then v else -.v in
  let lo = Array.init m (fun _ -> -.Float.of_int (int_range 0 3 st))
  and hi = Array.init m (fun _ -> Float.of_int (int_range 0 3 st)) in
  let big () =
    signed (if int_bound 2 st = 0 then infinity else Float.pow 10. (float_range 200. 308. st))
  in
  let huge () =
    signed
      (oneofl
         [
           Float.ldexp 1. (1022 - m);
           Float.ldexp (1. -. epsilon_float) (1022 - m);
           Float.ldexp 1. (1023 - m);
         ]
         st)
  in
  let row () =
    match int_bound 3 st with
    | 0 ->
        let j = int_bound (m - 1) st and c = oneofl [ 1.; -1.; 2.; -2.; 0.5; -0.5 ] st in
        let normal = Array.init m (fun i -> if i = j then c else signed 0.) in
        let offset =
          if bool st then small ()
          else if c > 0. then c *. (hi.(j) +. 1e-7)
          else c *. (lo.(j) -. 1e-7)
        in
        Halfspace.make normal offset
    | 1 -> Halfspace.make (Array.init m (fun _ -> small ())) (big ())
    | 2 ->
        Halfspace.make
          (Array.init m (fun _ -> if bool st then huge () else small ()))
          (small ())
    | _ -> Halfspace.make (Array.init m (fun _ -> small ())) (small ())
  in
  let rows = List.init (int_range 1 6 st) (fun _ -> row ()) in
  let box = Box.to_halfspaces (Box.make lo hi) in
  { kind = "gate"; hs = (if bool st then box @ rows else rows @ box) }

let prop_gate_vertices_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"vertices: bit-identical to the reference across the finiteness gate"
    (QCheck.make ~print:print_zero_case gen_gate_case)
    (fun c ->
      let run f = match f () with vs -> Some vs | exception Vertex_enum.Too_large -> None in
      let expected = run (fun () -> Vertex_enum_ref.vertices c.hs) in
      List.for_all
        (fun pool ->
          match (expected, run (fun () -> Vertex_enum.vertices ?pool c.hs)) with
          | None, None -> true
          | Some e, Some v -> List.length e = List.length v && List.for_all2 same_bits e v
          | _ -> false)
        [ None; Some pool1; Some pool2; Some pool3 ])

(* A solve whose first computed coordinate, x1 = 1e308, is far outside
   its box while the last, x0 = (infinity - 10 * 1e308) / 1, comes out
   NaN.  Every row product of that point is then NaN, which the
   feasibility scan passes, so the reference returns it as a vertex.
   The infinite offset puts the call outside the finiteness gate, where
   no bound stops a solve. *)
let test_vertex_enum_nan_vertex () =
  let hs =
    Halfspace.make [| 1.; 10. |] infinity
    :: Halfspace.make [| 0.; 1. |] 1e308
    :: Box.to_halfspaces (Box.make [| -1.; -1. |] [| 1.; 1. |])
  in
  let expected = Vertex_enum_ref.vertices hs in
  Alcotest.(check bool) "the reference returns the NaN point" true
    (List.exists (fun v -> Float.is_nan v.(0) && v.(1) = 1e308) expected);
  List.iter
    (fun pool ->
      let got = Vertex_enum.vertices ?pool hs in
      Alcotest.(check bool) "bit-identical to the reference" true
        (List.length expected = List.length got && List.for_all2 same_bits expected got))
    [ None; Some pool1; Some pool2; Some pool3 ]

(* Discovery on the split layout for five queries whose verification
   phase enumerates regions of influence, hashed with every plan's
   signature and exact (%h) effective usage, the probe count and the
   verified flag.  The constant was computed with the brute-force
   enumerator; any change to the vertex lists discovery probes moves it. *)
let golden_discovery_digest () =
  let open Qsens_core in
  let sf = Qsens_tpch.Spec.scale_factor_of_paper in
  let schema = Qsens_tpch.Spec.schema ~sf in
  let all = Qsens_tpch.Queries.all ~sf in
  let delta = List.fold_left Float.max 1. Worst_case.default_deltas in
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let query =
        List.find (fun (q : Qsens_plan.Query.t) -> String.equal q.name name) all
      in
      let s =
        Experiment.setup ~schema
          ~policy:Qsens_catalog.Layout.Per_table_and_index_devices query
      in
      let box = Box.around (Vec.make (Projection.active_dim s.proj) 1.) ~delta in
      let r =
        Candidates.discover ~seed:42 ~max_probes:1200
          (Experiment.white_box_oracle s) ~box
      in
      Printf.bprintf buf "%s %d %b\n" name r.probes r.verified_complete;
      List.iter
        (fun (p : Candidates.plan) ->
          Buffer.add_string buf p.signature;
          Array.iter (Printf.bprintf buf " %h") p.eff;
          Buffer.add_char buf '\n')
        r.plans)
    [ "Q13"; "Q15"; "Q17"; "Q19"; "Q22" ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_discovery () =
  Alcotest.(check string) "discovery digest" "44bca500d5f414c50087525b04ad4df1"
    (golden_discovery_digest ())

(* ------------------------------------------------------------------ *)
(* Fractional *)

let test_fractional_example1 () =
  (* Example 1 / Theorem 1 tightness: A=(1,0), B=(0,1) over
     [1/d, d]^2 gives max ratio exactly d^2. *)
  let delta = 10. in
  let box = Box.around [| 1.; 1. |] ~delta in
  let r, corner =
    Fractional.max_ratio ~num:[| 1.; 0. |] ~den:[| 0.; 1. |] box
  in
  Alcotest.(check (float 1e-6)) "delta^2" (delta *. delta) r;
  (* Attained where c1 is most expensive and c2 cheapest. *)
  Alcotest.(check bool) "corner" true
    (Vec.equal ~eps:1e-9 corner [| delta; 1. /. delta |])

let test_fractional_constant () =
  (* Proportional vectors: the ratio is constant everywhere. *)
  let box = Box.around [| 1.; 1.; 1. |] ~delta:100. in
  let r, _ = Fractional.max_ratio ~num:[| 2.; 4.; 6. |] ~den:[| 1.; 2.; 3. |] box in
  Alcotest.(check (float 1e-6)) "constant 2" 2. r

let test_fractional_theorem2_bound () =
  (* Non-complementary pair: max ratio over ANY box is below r_max. *)
  let num = [| 4.; 1. |] and den = [| 1.; 2. |] in
  let box = Box.around [| 1.; 1. |] ~delta:1_000_000. in
  let r, _ = Fractional.max_ratio ~num ~den box in
  Alcotest.(check bool) "r <= r_max" true (r <= 4. +. 1e-6);
  Alcotest.(check bool) "r approaches r_max" true (r > 3.99)

let test_fractional_min () =
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r, _ = Fractional.min_ratio ~num:[| 1.; 0. |] ~den:[| 0.; 1. |] box in
  Alcotest.(check (float 1e-6)) "1/delta^2" 0.01 r

let prop_fractional_attains_max =
  (* Bisection agrees with brute-force corner enumeration. *)
  let gen =
    QCheck.Gen.(
      pair
        (array_size (return 3) (float_bound_inclusive 10.))
        (array_size (return 3) (float_bound_inclusive 10.)))
  in
  QCheck.Test.make ~count:200 ~name:"fractional max equals corner max"
    (QCheck.make gen) (fun (num, den) ->
      QCheck.assume (Vec.dot den (Vec.make 3 1.) > 0.01);
      QCheck.assume (Vec.dot num (Vec.make 3 1.) > 0.01);
      let box = Box.around [| 1.; 1.; 1. |] ~delta:50. in
      let r, _ = Fractional.max_ratio ~num ~den box in
      let brute =
        List.fold_left
          (fun acc c ->
            let d = Vec.dot den c in
            if d > 0. then Float.max acc (Vec.dot num c /. d) else acc)
          0. (Box.vertices box)
      in
      Float.abs (r -. brute) <= 1e-6 *. Float.max 1. brute)

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_membership () =
  (* Plans (1,3) and (3,1) split the box along the diagonal. *)
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  (* Plan 0 is optimal where resource 2 is cheap: c = (10, 0.1). *)
  Alcotest.(check bool) "plan 0 side" true (Region.contains r0 [| 10.; 0.1 |]);
  Alcotest.(check bool) "plan 1 side" false (Region.contains r0 [| 0.1; 10. |])

let test_region_empty_for_dominated () =
  (* A dominated plan has an empty region of influence. *)
  let plans = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:10. in
  let r1 = Region.of_plans ~plans ~index:1 box in
  Alcotest.(check bool) "empty" true (Region.interior_point ~margin:1e-6 r1 = None);
  Alcotest.(check bool) "dominated" true (Region.dominated plans 1);
  Alcotest.(check bool) "dominant not dominated" false (Region.dominated plans 0)

let test_region_vertices () =
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:2. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  let vs = Region.vertices r0 in
  (* The diagonal passes through two corners of the square, cutting it
     into triangles: 3 vertices, all inside the region. *)
  Alcotest.(check int) "3 vertices" 3 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check bool) "vertex in region" true
        (Region.contains ~eps:1e-6 r0 v))
    vs

let test_region_contract () =
  let plans = [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  let box = Box.around [| 1.; 1. |] ~delta:2. in
  let r0 = Region.of_plans ~plans ~index:0 box in
  let c = Region.contract 0.1 r0 in
  (* A point on the switchover plane leaves the contracted region. *)
  Alcotest.(check bool) "boundary point excluded" true
    (Region.contains r0 [| 1.; 1. |] && not (Region.contains c [| 1.; 1. |]))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_fractional_attains_max;
        prop_vertices_match_reference;
        prop_zero_vertices_match_reference;
        prop_gate_vertices_match_reference;
      ]
  in
  Alcotest.run "geom"
    [
      ( "halfspace",
        [
          Alcotest.test_case "membership" `Quick test_halfspace_membership;
          Alcotest.test_case "shift" `Quick test_halfspace_shift;
          Alcotest.test_case "switchover" `Quick test_switchover;
          Alcotest.test_case "complement" `Quick test_complement;
        ] );
      ( "box",
        [
          Alcotest.test_case "around" `Quick test_box_around;
          Alcotest.test_case "vertices" `Quick test_box_vertices;
          Alcotest.test_case "corner maximizing" `Quick test_box_corner_maximizing;
          Alcotest.test_case "halfspaces" `Quick test_box_halfspaces;
          Alcotest.test_case "sample degenerate" `Quick
            test_box_sample_degenerate;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic" `Quick test_simplex_basic;
          Alcotest.test_case "classic" `Quick test_simplex_classic;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs_feasible;
          Alcotest.test_case "feasible in box" `Quick test_feasible_in_box;
        ] );
      ( "vertex-enum",
        [
          Alcotest.test_case "count subsets" `Quick test_count_subsets;
          Alcotest.test_case "count subsets saturation" `Quick
            test_count_subsets_saturation;
          Alcotest.test_case "box" `Quick test_vertex_enum_box;
          Alcotest.test_case "triangle" `Quick test_vertex_enum_triangle;
          Alcotest.test_case "too large" `Quick test_vertex_enum_too_large;
          Alcotest.test_case "golden discovery digest" `Quick
            test_golden_discovery;
          Alcotest.test_case "allocation per subset" `Quick
            test_vertex_enum_alloc;
          Alcotest.test_case "allocation through the feasibility scan" `Quick
            test_vertex_enum_alloc_scan;
          Alcotest.test_case "work counters" `Quick test_vertex_enum_counters;
          Alcotest.test_case "NaN vertex past the finiteness gate" `Quick
            test_vertex_enum_nan_vertex;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "example 1 tightness" `Quick test_fractional_example1;
          Alcotest.test_case "constant ratio" `Quick test_fractional_constant;
          Alcotest.test_case "theorem 2 cap" `Quick test_fractional_theorem2_bound;
          Alcotest.test_case "min ratio" `Quick test_fractional_min;
        ] );
      ( "region",
        [
          Alcotest.test_case "membership" `Quick test_region_membership;
          Alcotest.test_case "dominated empty" `Quick test_region_empty_for_dominated;
          Alcotest.test_case "vertices" `Quick test_region_vertices;
          Alcotest.test_case "contract" `Quick test_region_contract;
        ] );
      ("properties", qsuite);
    ]
