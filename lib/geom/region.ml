open Qsens_linalg

type t = {
  switchovers : Halfspace.t list; (* (A_i - A_j) . x <= 0 for each j *)
  feasible : Box.t;
}

let of_plans ~plans ~index box =
  let a = plans.(index) in
  let switchovers =
    Array.to_list plans
    |> List.filteri (fun j _ -> j <> index)
    |> List.map (fun b -> Halfspace.switchover a b)
  in
  { switchovers; feasible = box }

let box r = r.feasible
let halfspaces r = r.switchovers @ Box.to_halfspaces r.feasible

let contains ?eps r x =
  Box.contains ?eps r.feasible x
  && List.for_all (fun h -> Halfspace.contains ?eps h x) r.switchovers

let interior_point ?(margin = 1e-9) r =
  let shrunk = List.map (Halfspace.shift margin) r.switchovers in
  Simplex.feasible_in_box r.feasible shrunk

let vertices ?max_subsets r =
  Vertex_enum.vertices ?max_subsets (halfspaces r)

let contract d r =
  { r with switchovers = List.map (Halfspace.shift d) r.switchovers }

let dominated plans i =
  let target = plans.(i) in
  let n = Array.length plans in
  let rec loop j =
    if j >= n then false
    else if j <> i && Vec.dominates plans.(j) target then true
    else loop (j + 1)
  in
  loop 0
