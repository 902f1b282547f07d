open Qsens_linalg
open Qsens_cost

type dim_kind =
  | Cpu_dim
  | Table_dim of string
  | Index_dim of string
  | Combined_dim of string
  | Temp_dim
  | Shared_dim

(* Group names come in two flavours: per-resource ("cpu", "seek:<dev>",
   "xfer:<dev>") and per-device ("cpu", "dev:<dev>").  Device names encode
   the layout: "tbl:x" / "idx:x" (per-table-and-index), "dev:x" /
   "dev:temp" (per-table), "disk" (same-device). *)
let kind_of_device dev =
  if dev = "disk" then Shared_dim
  else if dev = "dev:temp" then Temp_dim
  else
    match String.index_opt dev ':' with
    | Some i -> begin
        let prefix = String.sub dev 0 i in
        let rest = String.sub dev (i + 1) (String.length dev - i - 1) in
        match prefix with
        | "tbl" -> Table_dim rest
        | "idx" -> Index_dim rest
        | "dev" -> Combined_dim rest
        | _ -> Shared_dim
      end
    | None -> Shared_dim

let kind_of_name name =
  if name = "cpu" then Cpu_dim
  else
    match String.index_opt name ':' with
    | None -> Shared_dim
    | Some i -> begin
        let prefix = String.sub name 0 i in
        let dev = String.sub name (i + 1) (String.length name - i - 1) in
        match prefix with
        | "seek" | "xfer" | "dev" -> kind_of_device dev
        | _ -> Shared_dim
      end

let dim_kinds groups = Array.map kind_of_name (Groups.names groups)

type kind =
  | Table_complementary
  | Access_path_complementary
  | Temp_complementary
  | Cpu_complementary

let kind_name = function
  | Table_complementary -> "table"
  | Access_path_complementary -> "access-path"
  | Temp_complementary -> "temp"
  | Cpu_complementary -> "cpu"

let kind_rank = function
  | Table_complementary -> 0
  | Access_path_complementary -> 1
  | Temp_complementary -> 2
  | Cpu_complementary -> 3

let compare_kind a b = Int.compare (kind_rank a) (kind_rank b)

type verdict = {
  complementary : bool;
  near : bool;
  max_ratio : float;
  kinds : kind list;
}

let kinds_by_rank =
  [| Table_complementary; Access_path_complementary; Temp_complementary;
     Cpu_complementary |]

(* Each plan's zero threshold and support, computed once. *)
type facts = {
  vecs : Vec.t array;
  zero : Float.Array.t;
  supports : Bounds.support array;
}

let facts ~dims vecs =
  if Array.length vecs >= 2 then
    Array.iter
      (fun v ->
        if Vec.dim v <> Array.length dims then
          invalid_arg "Complementary.classify: dimension mismatch")
      vecs;
  let zero = Float.Array.map_from_array Bounds.zero_threshold vecs in
  {
    vecs;
    zero;
    supports =
      Array.mapi
        (fun p v -> Bounds.support ~zero:(Float.Array.get zero p) v)
        vecs;
  }

type relation = Benign | Complementary | Near

(* The kind rules, fixed per dimension: [rank] is the rank of the kind a
   divergence there counts as (-1: none), and [partners] lists, for a
   table's data device, the index devices of the same table.  A
   divergence on a table's data device paired with a divergence on its
   index device is an access-path difference (index-only versus fetch),
   not a table difference.  The rest is per-pair scratch: the ratio
   scan, the divergent dimensions, and the kinds of the last pair as a
   mask over kind ranks. *)
type scratch = {
  rank : int array;
  partners : int array array;
  ratios : Bounds.ratios;
  divergent : bool array;
  mutable kinds : int;
}

let scratch dims =
  let index_dims t =
    let acc = ref [] in
    for j = Array.length dims - 1 downto 0 do
      match dims.(j) with
      | Index_dim u when String.equal t u -> acc := j :: !acc
      | _ -> ()
    done;
    Array.of_list !acc
  in
  {
    rank =
      Array.map
        (function
          | Table_dim _ | Combined_dim _ -> kind_rank Table_complementary
          | Index_dim _ -> kind_rank Access_path_complementary
          | Temp_dim -> kind_rank Temp_complementary
          | Cpu_dim -> kind_rank Cpu_complementary
          | Shared_dim -> -1)
        dims;
    partners =
      Array.map (function Table_dim t -> index_dims t | _ -> [||]) dims;
    ratios = { Bounds.r_min = 1.; r_max = 1.; max_ratio = 1. };
    divergent = Array.make (Array.length dims) false;
    kinds = 0;
  }

(* qsens-hot: begin *)

let kind_mask s =
  let d = s.divergent and mask = ref 0 in
  for i = 0 to Array.length d - 1 do
    if d.(i) then begin
      let r = s.rank.(i) in
      if r >= 0 then begin
        let p = s.partners.(i) and paired = ref false in
        for k = 0 to Array.length p - 1 do
          if d.(p.(k)) then paired := true
        done;
        let r = if !paired then kind_rank Access_path_complementary else r in
        mask := !mask lor (1 lsl r)
      end
    end
  done;
  !mask

(* Pair [(i, j)] of [f]: a complementary pair diverges where the
   supports differ; a near pair (max element ratio above
   [near_threshold]) where both components are nonzero and one exceeds
   the other more than [near_threshold]-fold.  Leaves the pair's max
   element ratio in [s.ratios] (infinity when complementary) and its
   kinds in [s.kinds]. *)
let relate s ~near_threshold f i j =
  let a = f.vecs.(i) and b = f.vecs.(j) in
  let sa = f.supports.(i) and sb = f.supports.(j) in
  let d = s.divergent in
  if not (Bounds.same_support sa sb) then begin
    Bounds.symmetric_difference sa sb d;
    s.ratios.max_ratio <- infinity;
    s.kinds <- kind_mask s;
    Complementary
  end
  else begin
    Bounds.scan_ratios s.ratios sa a b;
    if s.ratios.max_ratio > near_threshold then begin
      let za = Float.Array.get f.zero i and zb = Float.Array.get f.zero j in
      for k = 0 to Array.length d - 1 do
        let ak = a.(k) and bk = b.(k) in
        d.(k) <-
          ak > za && bk > zb && Float.max (ak /. bk) (bk /. ak) > near_threshold
      done;
      s.kinds <- kind_mask s;
      Near
    end
    else begin
      s.kinds <- 0;
      Benign
    end
  end

(* qsens-hot: end *)

let kinds_of_mask mask =
  List.filter
    (fun k -> mask land (1 lsl kind_rank k) <> 0)
    (Array.to_list kinds_by_rank)

(* The paper's "greater than an order of magnitude". *)
let order_of_magnitude = 10.

let classify ?(near_threshold = order_of_magnitude) ~dims a b =
  let s = scratch dims in
  let rel = relate s ~near_threshold (facts ~dims [| a; b |]) 0 1 in
  {
    complementary = (match rel with Complementary -> true | _ -> false);
    near = (match rel with Near -> true | _ -> false);
    max_ratio = s.ratios.max_ratio;
    kinds = kinds_of_mask s.kinds;
  }

type census = {
  pairs : int;
  complementary_pairs : int;
  near_pairs : int;
  by_kind : (kind * int) list;
  max_element_ratio : float;
  theorem2 : float;
}

let census ~dims vecs =
  let f = facts ~dims vecs in
  let s = scratch dims in
  let n = Array.length vecs in
  let counts = Array.make (Array.length kinds_by_rank) 0 in
  let comp = ref 0 and near = ref 0 in
  let ratio = ref 1. and theorem2 = ref 1. in
  let count_kinds () =
    for k = 0 to Array.length counts - 1 do
      if s.kinds land (1 lsl k) <> 0 then counts.(k) <- counts.(k) + 1
    done
  in
  (* qsens-hot: begin *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let rel = relate s ~near_threshold:order_of_magnitude f i j in
      let r = s.ratios.max_ratio in
      if Float.is_finite r && r > !ratio then ratio := r;
      if r > !theorem2 then theorem2 := r;
      match rel with
      | Benign -> ()
      | Complementary ->
          incr comp;
          count_kinds ()
      | Near ->
          incr near;
          count_kinds ()
    done
  done;
  (* qsens-hot: end *)
  {
    pairs = n * (n - 1) / 2;
    complementary_pairs = !comp;
    near_pairs = !near;
    by_kind =
      List.filter_map
        (fun k ->
          let c = counts.(kind_rank k) in
          if c > 0 then Some (k, c) else None)
        (Array.to_list kinds_by_rank);
    max_element_ratio = !ratio;
    theorem2 = !theorem2;
  }
