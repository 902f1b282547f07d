(* Adversarial plan sets for the bit-identity properties: weights drawn
   from exact zeros, subnormals, ordinary magnitudes and values near
   overflow, with duplicate plans and all-zero plans planted, and delta
   grids from 1 (the collapsed-box shortcut) up to 1e300.  These are the
   inputs where products overflow to +inf, vertex costs underflow to 0,
   and [0/0] and [inf/inf] ratios appear. *)

let gen_weight =
  QCheck.Gen.(
    frequency
      [
        (2, return 0.);
        (1, oneofl [ 5e-324; 1e-320; 0x0.fffffffffffffp-1022 ]);
        (1, map (fun x -> x *. 0x1p-1030) (float_range 0. 1.));
        (4, float_range 0.1 10.);
        (1, float_range 1e300 1.7e308);
      ])

(* [dim_hi] components, up to [plans_hi] plans; a duplicate and an
   all-zero plan are each planted about half the time. *)
let gen_plans ~dim_hi ~plans_hi =
  QCheck.Gen.(
    int_range 1 dim_hi >>= fun m ->
    int_range 1 plans_hi >>= fun k ->
    array_size (return k) (array_size (return m) gen_weight) >>= fun plans ->
    bool >>= fun dup ->
    bool >>= fun zero ->
    int_range 0 (k - 1) >>= fun i ->
    int_range 0 (k - 1) >>= fun j ->
    let plans = Array.map Array.copy plans in
    if dup then plans.(j) <- Array.copy plans.(i);
    if zero then plans.(i) <- Array.make m 0.;
    return plans)

let gen_deltas =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (frequency
         [
           (3, oneofl [ 1.5; 2.; 10.; 177.; 1e4; 1e10; 1e100; 1e300 ]);
           (2, float_range 1. 1e3);
         ])
    >>= fun ds -> return (1. :: ds))

let print_case plans deltas =
  let vec v =
    let items = Array.to_list (Array.map (Printf.sprintf "%h") v) in
    "[" ^ String.concat "; " items ^ "]"
  in
  Printf.sprintf "plans %s, deltas %s"
    (String.concat ", " (Array.to_list (Array.map vec plans)))
    (vec (Array.of_list deltas))
