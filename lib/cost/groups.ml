open Qsens_catalog
open Qsens_linalg

type scheme = Per_resource | Per_device

type t = {
  space : Space.t;
  names : string array;
  of_resource : int array; (* space coordinate -> group index *)
}

let make scheme space =
  let resources = Space.resources space in
  match scheme with
  | Per_resource ->
      {
        space;
        names = Array.map Resource.to_string resources;
        of_resource = Array.init (Array.length resources) Fun.id;
      }
  | Per_device ->
      let name_of = function
        | Resource.Cpu -> "cpu"
        | Resource.Seek d | Resource.Transfer d -> "dev:" ^ Device.name d
      in
      let names = ref [] and count = ref 0 in
      let find_or_add name =
        let rec lookup i = function
          | [] ->
              names := !names @ [ name ];
              incr count;
              !count - 1
          | n :: rest -> if n = name then i else lookup (i + 1) rest
        in
        lookup 0 !names
      in
      let of_resource =
        Array.map (fun r -> find_or_add (name_of r)) resources
      in
      { space; names = Array.of_list !names; of_resource }

let space g = g.space
let dim g = Array.length g.names
let names g = g.names
let group_of_resource g i = g.of_resource.(i)

let effective_usage g ~base_costs ~usage =
  let eff = Vec.zero (dim g) in
  Array.iteri
    (fun i gi -> eff.(gi) <- eff.(gi) +. (usage.(i) *. base_costs.(i)))
    g.of_resource;
  eff

let expand_costs g ~base_costs ~theta =
  Array.mapi (fun i c0 -> theta.(g.of_resource.(i)) *. c0) base_costs

let ones g = Vec.make (dim g) 1.

let feasible_box g ~delta = Qsens_geom.Box.around (ones g) ~delta

let pp_vec g ppf v =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i name ->
      if not (Float.equal v.(i) 0.) then
        Format.fprintf ppf "%-28s %.6g@," name v.(i))
    g.names;
  Format.fprintf ppf "@]"
