(* Test-only reference for [Complementary.census]: the pairwise census as
   it stood before the one-pass build.  Each pair goes through the old
   [classify] (exact zero divergences from [complementary_dims], then the
   element-ratio scan of [max_element_ratio], then the near dimensions),
   and Theorem 2's bound walks every pair a second time.  The Theorem 2
   helpers are copied here rather than called, so the production census
   and this one share only the dimension and kind types. *)

open Qsens_core
open Complementary

let effective_zero eps v =
  eps *. Float.max 1e-300 (Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. v)

let complementary_dims ?(eps = 1e-9) a b =
  if Array.length a <> Array.length b then
    invalid_arg "Bounds.complementary_dims: dimension mismatch";
  let za = effective_zero eps a and zb = effective_zero eps b in
  let dims = ref [] in
  for i = Array.length a - 1 downto 0 do
    let a0 = a.(i) <= za and b0 = b.(i) <= zb in
    if (a0 && not b0) || ((not a0) && b0) then dims := i :: !dims
  done;
  !dims

let complementary ?eps a b = complementary_dims ?eps a b <> []

let ratio_range ?(eps = 1e-9) a b =
  if complementary ~eps a b then None
  else begin
    let za = effective_zero eps a and zb = effective_zero eps b in
    let r_min = ref infinity and r_max = ref neg_infinity in
    Array.iteri
      (fun i ai ->
        let a0 = ai <= za and b0 = b.(i) <= zb in
        if not (a0 && b0) then begin
          let r = ai /. b.(i) in
          if r < !r_min then r_min := r;
          if r > !r_max then r_max := r
        end)
      a;
    if Float.equal !r_max neg_infinity then Some (1., 1.)
    else Some (!r_min, !r_max)
  end

let max_element_ratio ?eps a b =
  match ratio_range ?eps a b with
  | None -> infinity
  | Some (r_min, r_max) ->
      Float.max r_max (if Float.equal r_min 0. then infinity else 1. /. r_min)

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

let classify ?(near_threshold = 10.) ~dims a b =
  if Array.length a <> Array.length dims || Array.length b <> Array.length dims
  then invalid_arg "Complementary.classify: dimension mismatch";
  let comp_dims = complementary_dims a b in
  let max_ratio = max_element_ratio a b in
  let complementary = comp_dims <> [] in
  let near = (not complementary) && max_ratio > near_threshold in
  let za = effective_zero 1e-9 a and zb = effective_zero 1e-9 b in
  let divergent =
    if complementary then comp_dims
    else if near then begin
      let acc = ref [] in
      Array.iteri
        (fun i ai ->
          let bi = b.(i) in
          if ai > za && bi > zb then begin
            let r = Float.max (ai /. bi) (bi /. ai) in
            if r > near_threshold then acc := i :: !acc
          end)
        a;
      !acc
    end
    else []
  in
  let index_tables =
    List.filter_map
      (fun i -> match dims.(i) with Index_dim t -> Some t | _ -> None)
      divergent
  in
  let kind_of_dim i =
    match dims.(i) with
    | Temp_dim -> Some Temp_complementary
    | Index_dim _ -> Some Access_path_complementary
    | Table_dim t ->
        if List.exists (String.equal t) index_tables then
          Some Access_path_complementary
        else Some Table_complementary
    | Combined_dim _ -> Some Table_complementary
    | Cpu_dim -> Some Cpu_complementary
    | Shared_dim -> None
  in
  let kinds =
    List.filter_map kind_of_dim divergent |> List.sort_uniq compare_kind
  in
  { complementary; near; max_ratio; kinds }

let census ~dims plans =
  let n = Array.length plans in
  let pairs = ref 0 and comp = ref 0 and near = ref 0 and ratio = ref 1. in
  let kind_counts = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr pairs;
      let v = classify ~dims plans.(i) plans.(j) in
      if v.complementary then incr comp;
      if v.near then incr near;
      if Float.is_finite v.max_ratio && v.max_ratio > !ratio then
        ratio := v.max_ratio;
      if v.complementary || v.near then
        List.iter
          (fun k ->
            Hashtbl.replace kind_counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt kind_counts k)))
          v.kinds
    done
  done;
  {
    pairs = !pairs;
    complementary_pairs = !comp;
    near_pairs = !near;
    by_kind =
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) kind_counts []
      |> List.sort (fun (a, _) (b, _) -> compare_kind a b);
    max_element_ratio = !ratio;
    theorem2 = theorem2_bound plans;
  }
