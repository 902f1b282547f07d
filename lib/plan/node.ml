open Qsens_catalog
open Qsens_cost
open Qsens_linalg

type order = (string * string) option

type access_kind =
  | Table_scan
  | Index_range of { index : Index.t; match_sel : float; index_only : bool }

type op =
  | Access of { alias : string; kind : access_kind }
  | Block_nlj of { outer : t; inner : t; rescans : float }
  | Index_nlj of {
      outer : t;
      inner_alias : string;
      index : Index.t;
      join : Query.join;
      index_only : bool;
    }
  | Hash_join of { build : t; probe : t; spilled : bool }
  | Merge_join of { left : t; right : t }
  | Sort of { input : t; key : order; spilled : bool }
  | Group_agg of { input : t; hash : bool; spilled : bool }

and t = {
  op : op;
  mask : int;
  aliases : string list;
  card : float;
  width : int;
  usage : Vec.t;
  order : order;
}

(* Everything the cost model derives from the catalog, layout and query
   is computed once per context; the constructors only combine it. *)

(* One index on a relation's table. *)
type ix = {
  index : Index.t;
  entry_width : int;
  leaf : float;  (* leaf pages *)
  covering : bool;  (* the key covers every column the query needs *)
}

(* One relation of the query: bit [i] of a node's mask is relation [i]. *)
type rel = {
  alias : string;
  bit : int;
  relation : Query.relation;
  tbl : Table.t;
  rows : float;
  pages : float;
  row_width : int;
  base : float;  (* effective cardinality after local predicates *)
  join_cols : string list;
  needed : string list;
  t_seek : int;  (* usage slots of the table's device *)
  t_xfer : int;
  i_seek : int;  (* usage slots of its indexes' device *)
  i_xfer : int;
  indexes : ix array;  (* the schema's indexes on the table, in schema order *)
}

type edge = { join : Query.join; lbit : int; rbit : int; sel : float }

type ctx = {
  env : Env.t;
  query : Query.t;
  est : Cardinality.t;
  dim : int;
  cpu : int;
  tmp_seek : int;
  tmp_xfer : int;
  rels : rel array;  (* query order *)
  by_name : rel array;  (* alias order: how node alias lists are sorted *)
  edges : edge array;  (* query order *)
  cards : float array;  (* per alias mask, valid where [known] *)
  known : Bytes.t;
  names : string list array;  (* per alias mask, sorted; [] until built *)
}

let max_relations = 16

let make_ix (tbl : Table.t) needed (index : Index.t) =
  {
    index;
    entry_width = Index.entry_width index tbl;
    leaf = Index.leaf_pages index tbl;
    covering = Index.covers index needed;
  }

let make_ctx (env : Env.t) (query : Query.t) =
  let n = List.length query.relations in
  if n > max_relations then
    invalid_arg
      (Printf.sprintf "Node.make_ctx: %d relations (at most %d)" n
         max_relations);
  let est = Cardinality.make env.schema query in
  let slot r = Space.index env.space r in
  let bit_of alias =
    let rec find i = function
      | [] -> raise Not_found
      | (r : Query.relation) :: rest ->
          if String.equal r.alias alias then 1 lsl i else find (i + 1) rest
    in
    find 0 query.relations
  in
  let join_cols alias =
    List.filter_map
      (fun (j : Query.join) ->
        if j.left = alias then Some j.left_col
        else if j.right = alias then Some j.right_col
        else None)
      query.joins
  in
  let rel i (r : Query.relation) =
    let tbl = Env.table env r.table in
    let join_cols = join_cols r.alias in
    let pred_cols = List.map (fun (p : Query.pred) -> p.column) r.preds in
    let needed =
      List.sort_uniq String.compare (pred_cols @ join_cols @ r.projected)
    in
    let tdev = Env.table_dev env r.table and idev = Env.index_dev env r.table in
    {
      alias = r.alias;
      bit = 1 lsl i;
      relation = r;
      tbl;
      rows = tbl.Table.rows;
      pages = Table.pages tbl;
      row_width = Table.row_width tbl;
      base = Cardinality.base est r.alias;
      join_cols;
      needed;
      t_seek = slot (Resource.Seek tdev);
      t_xfer = slot (Resource.Transfer tdev);
      i_seek = slot (Resource.Seek idev);
      i_xfer = slot (Resource.Transfer idev);
      indexes =
        Array.of_list
          (List.map (make_ix tbl needed) (Schema.indexes_of env.schema r.table));
    }
  in
  let rels = Array.of_list (List.mapi rel query.relations) in
  let by_name = Array.copy rels in
  Array.sort (fun a b -> String.compare a.alias b.alias) by_name;
  let edge (j : Query.join) =
    {
      join = j;
      lbit = bit_of j.left;
      rbit = bit_of j.right;
      sel = Cardinality.join_selectivity est j;
    }
  in
  let tmp = Env.temp_dev env in
  {
    env;
    query;
    est;
    dim = Space.dim env.space;
    cpu = slot Resource.Cpu;
    tmp_seek = slot (Resource.Seek tmp);
    tmp_xfer = slot (Resource.Transfer tmp);
    rels;
    by_name;
    edges = Array.of_list (List.map edge query.joins);
    cards = Array.make (1 lsl n) 0.;
    known = Bytes.make (1 lsl n) '\000';
    names = Array.make (1 lsl n) [];
  }

let rel ctx alias =
  match Array.find_opt (fun r -> String.equal r.alias alias) ctx.rels with
  | Some r -> r
  | None -> raise Not_found

(* The precomputed facts for [idx], or fresh ones for an index outside
   the schema. *)
let ix_for r (idx : Index.t) =
  match Array.find_opt (fun ix -> ix.index == idx) r.indexes with
  | Some ix -> ix
  | None -> make_ix r.tbl r.needed idx

let edge_for ctx (j : Query.join) =
  match Array.find_opt (fun e -> e.join == j) ctx.edges with
  | Some e -> e
  | None ->
      let r_bit alias = (rel ctx alias).bit in
      {
        join = j;
        lbit = r_bit j.left;
        rbit = r_bit j.right;
        sel = Cardinality.join_selectivity ctx.est j;
      }

(* The sorted alias list of a mask, built once per context. *)
let names ctx mask =
  match ctx.names.(mask) with
  | [] ->
      let l =
        Array.fold_right
          (fun r acc -> if r.bit land mask <> 0 then r.alias :: acc else acc)
          ctx.by_name []
      in
      ctx.names.(mask) <- l;
      l
  | l -> l

(* The row count of the join over [first] and [second], cached per alias
   set.  It multiplies the effective cardinalities of [first]'s aliases in
   name order, then [second]'s, then the selectivities of the internal
   edges in query order — the arithmetic of [Cardinality.of_aliases] on
   the list [first @ second], whose cache likewise keeps the order of the
   set's first request.  A canonical order would move last bits. *)
let set_card ctx first second =
  let rows = ref 1. in
  for k = 0 to Array.length ctx.by_name - 1 do
    let r = ctx.by_name.(k) in
    if r.bit land first <> 0 then rows := !rows *. r.base
  done;
  for k = 0 to Array.length ctx.by_name - 1 do
    let r = ctx.by_name.(k) in
    if r.bit land second <> 0 then rows := !rows *. r.base
  done;
  let mask = first lor second in
  for k = 0 to Array.length ctx.edges - 1 do
    let e = ctx.edges.(k) in
    if e.lbit land mask <> 0 && e.rbit land mask <> 0 then
      rows := !rows *. e.sel
  done;
  ctx.cards.(mask) <- !rows;
  Bytes.set ctx.known mask '\001'

(* Pages scanned per positioning seek during a sequential read. *)
let seq_extent = 64.

(* CPU instructions to evaluate one join pair in a nested loop. *)
let cpu_pair = 20.

let[@inline] pages_of_rows card width =
  Float.max 1. (card *. Float.of_int width /. Float.of_int Table.page_capacity)

let[@inline] rescans ctx outer =
  let outer_pages = pages_of_rows outer.card outer.width in
  Float.max 1.
    (Float.round (outer_pages /. ctx.env.Env.sort_heap_pages +. 0.5))

let mk ctx op ~mask ~card ~width ~usage ~order =
  { op; mask; aliases = names ctx mask; card; width; usage; order }

(* Usage vectors accumulate in place: [add u i x] charges [x] units of
   the resource at slot [i]. *)

(* qsens-hot: begin *)
let[@inline] card ctx first second =
  let mask = first lor second in
  if Bytes.get ctx.known mask = '\000' then set_card ctx first second;
  ctx.cards.(mask)

let[@inline] add (u : Vec.t) i x = u.(i) <- u.(i) +. x

let add_vec (u : Vec.t) (v : Vec.t) =
  for i = 0 to Array.length v - 1 do
    u.(i) <- u.(i) +. v.(i)
  done

let blit (src : Vec.t) (u : Vec.t) = Array.blit src 0 u 0 (Array.length src)

(* Random fetch of rows from a table's data pages through an index.  A
   clustered index reads the qualifying pages sequentially; an unclustered
   one pays a random page read per distinct page touched. *)
let fetch_rows ctx u r (index : Index.t) ~probes ~rows =
  let env = ctx.env in
  if index.clustered then begin
    let page_refs =
      probes
      *. Float.max 1.
           (rows /. probes *. Float.of_int r.row_width
           /. Float.of_int Table.page_capacity)
    in
    (* Clustered runs are sequential: each probe reads contiguous pages.
       Re-reads across probes hit the buffer pool only when the table
       fits in it. *)
    let io =
      if r.pages <= env.buffer_pages then Float.min page_refs r.pages
      else page_refs
    in
    (* One positioning seek per probe, plus track-to-track seeks at extent
       rate along the sequential run. *)
    add u r.t_seek (Float.min probes io +. (io /. seq_extent));
    add u r.t_xfer io
  end
  else begin
    let io = Yao.io_pages ~pages:r.pages ~buffer:env.buffer_pages rows in
    add u r.t_seek io;
    add u r.t_xfer io
  end;
  add u ctx.cpu (rows *. Defaults.cpu_row)

let inlj_width r ix ~outer =
  outer.width + if ix.covering then ix.entry_width else r.row_width

(* Each constructor's arithmetic is one [Fill] function, run on a fresh
   vector by the constructors and on a scratch vector by the optimizer.
   It overwrites [u] with the node's usage and returns the output
   width. *)
module Fill = struct
  let block_nlj ctx u ~outer ~inner =
    blit outer.usage u;
    let rescans = rescans ctx outer in
    for i = 0 to Array.length inner.usage - 1 do
      u.(i) <- u.(i) +. (rescans *. inner.usage.(i))
    done;
    let card = card ctx outer.mask inner.mask in
    add u ctx.cpu
      ((outer.card *. inner.card *. cpu_pair)
      +. (card *. Defaults.cpu_join_output));
    outer.width + inner.width

  let hash_join ctx u ~build ~probe =
    blit build.usage u;
    add_vec u probe.usage;
    let build_pages = pages_of_rows build.card build.width in
    let probe_pages = pages_of_rows probe.card probe.width in
    if build_pages > ctx.env.sort_heap_pages then begin
      let spill = build_pages +. probe_pages in
      add u ctx.tmp_xfer (2. *. spill);
      add u ctx.tmp_seek (Float.max 2. (2. *. spill /. seq_extent));
      add u ctx.cpu ((build.card +. probe.card) *. Defaults.cpu_row)
    end;
    let card = card ctx build.mask probe.mask in
    add u ctx.cpu
      ((build.card *. Defaults.cpu_hash_build)
      +. (probe.card *. Defaults.cpu_hash_probe)
      +. (card *. Defaults.cpu_join_output));
    build.width + probe.width

  let merge_join ctx u ~left lusage ~right rusage =
    blit lusage u;
    add_vec u rusage;
    let card = card ctx left.mask right.mask in
    add u ctx.cpu
      (((left.card +. right.card) *. Defaults.cpu_row)
      +. (card *. Defaults.cpu_join_output));
    left.width + right.width

  let sort ctx u input =
    let env = ctx.env in
    blit input.usage u;
    let pages = pages_of_rows input.card input.width in
    let n = Float.max 2. input.card in
    add u ctx.cpu
      (n *. (Float.log n /. Float.log 2.) *. Defaults.cpu_sort_compare);
    if pages > env.sort_heap_pages then begin
      let runs = Float.round ((pages /. env.sort_heap_pages) +. 0.5) in
      let fanin = 256. in
      let passes =
        Float.max 1. (Float.round ((Float.log runs /. Float.log fanin) +. 0.5))
      in
      add u ctx.tmp_xfer (2. *. pages *. passes);
      add u ctx.tmp_seek
        (Float.max (2. *. runs *. passes) (2. *. pages *. passes /. seq_extent));
      add u ctx.cpu (passes *. input.card *. Defaults.cpu_row)
    end

  let index_nlj_of ctx u ~outer r ix e =
    let env = ctx.env in
    let probes = Float.max 1. outer.card in
    let per_probe = r.rows *. e.sel in
    let matched = probes *. per_probe in
    blit outer.usage u;
    let leaf_refs =
      probes
      *. Float.max 1.
           (per_probe *. Float.of_int ix.entry_width
           /. Float.of_int Table.page_capacity)
    in
    let leaf_io =
      Yao.io_pages ~pages:ix.leaf ~buffer:env.buffer_pages leaf_refs
    in
    add u r.i_seek leaf_io;
    add u r.i_xfer leaf_io;
    add u ctx.cpu (probes *. Defaults.cpu_index_probe);
    if not ix.covering then
      fetch_rows ctx u r ix.index ~probes ~rows:matched;
    let card = card ctx r.bit outer.mask in
    add u ctx.cpu (card *. Defaults.cpu_join_output);
    inlj_width r ix ~outer

  let index_nlj ctx u ~outer ~inner ~index ~edge =
    let r = ctx.rels.(inner) in
    index_nlj_of ctx u ~outer r r.indexes.(index) ctx.edges.(edge)
end
(* qsens-hot: end *)

(* Each [Build] function assembles the node its [Fill] function costed,
   with a copy of [u] as its usage.  It must follow the fill on the same
   inputs: the cardinality it reads was cached by the fill. *)
module Build = struct
  let block_nlj ctx u ~outer ~inner =
    mk ctx
      (Block_nlj { outer; inner; rescans = rescans ctx outer })
      ~mask:(outer.mask lor inner.mask)
      ~card:(card ctx outer.mask inner.mask)
      ~width:(outer.width + inner.width) ~usage:(Vec.copy u) ~order:outer.order

  let hash_join ctx u ~build ~probe =
    let spilled =
      pages_of_rows build.card build.width > ctx.env.sort_heap_pages
    in
    mk ctx
      (Hash_join { build; probe; spilled })
      ~mask:(build.mask lor probe.mask)
      ~card:(card ctx build.mask probe.mask)
      ~width:(build.width + probe.width) ~usage:(Vec.copy u) ~order:None

  let merge_join ctx u ~left ~right =
    mk ctx
      (Merge_join { left; right })
      ~mask:(left.mask lor right.mask)
      ~card:(card ctx left.mask right.mask)
      ~width:(left.width + right.width) ~usage:(Vec.copy u) ~order:left.order

  let sort ctx u ~key input =
    let spilled =
      pages_of_rows input.card input.width > ctx.env.sort_heap_pages
    in
    mk ctx
      (Sort { input; key; spilled })
      ~mask:input.mask ~card:input.card ~width:input.width
      ~usage:(Vec.copy u) ~order:key

  let index_nlj_of ctx u ~outer r ix e =
    mk ctx
      (Index_nlj
         {
           outer;
           inner_alias = r.alias;
           index = ix.index;
           join = e.join;
           index_only = ix.covering;
         })
      ~mask:(outer.mask lor r.bit) ~card:(card ctx r.bit outer.mask)
      ~width:(inlj_width r ix ~outer) ~usage:(Vec.copy u) ~order:outer.order

  let index_nlj ctx u ~outer ~inner ~index ~edge =
    let r = ctx.rels.(inner) in
    index_nlj_of ctx u ~outer r r.indexes.(index) ctx.edges.(edge)
end

(* ------------------------------------------------------------------ *)
(* Constructors *)

let scan_order (idx : Index.t) alias : order =
  match idx.key_columns with col :: _ -> Some (alias, col) | [] -> None

let table_scan_of ctx r =
  let u = Vec.zero ctx.dim in
  (* Sequential read of the table's pages. *)
  add u r.t_seek (Float.max 1. (r.pages /. seq_extent));
  add u r.t_xfer r.pages;
  add u ctx.cpu (r.rows *. Defaults.cpu_row);
  mk ctx
    (Access { alias = r.alias; kind = Table_scan })
    ~mask:r.bit ~card:r.base ~width:r.row_width ~usage:u ~order:None

let table_scan ctx alias = table_scan_of ctx (rel ctx alias)

let index_scan_of ctx r ix =
  let idx = ix.index in
  let matching_pred =
    List.find_opt
      (fun (p : Query.pred) -> Index.matches_column idx p.column)
      r.relation.preds
  in
  let match_sel =
    match matching_pred with Some p -> p.selectivity | None -> 1.
  in
  let leading_is_join_col =
    match idx.key_columns with
    | lead :: _ -> List.exists (String.equal lead) r.join_cols
    | [] -> false
  in
  (* Reject accesses that neither filter, nor cover, nor provide a
     useful order: they are dominated by the plain table scan. *)
  if Option.is_none matching_pred && (not ix.covering) && not leading_is_join_col
  then None
  else begin
    let u = Vec.zero ctx.dim in
    let scanned_entries = r.rows *. match_sel in
    let leaf_read = Float.max 1. (ix.leaf *. match_sel) in
    add u r.i_seek (1. +. (leaf_read /. seq_extent));
    add u r.i_xfer leaf_read;
    add u ctx.cpu
      (Defaults.cpu_index_probe +. (scanned_entries *. Defaults.cpu_row *. 0.25));
    if not ix.covering then
      fetch_rows ctx u r idx ~probes:1. ~rows:scanned_entries;
    let width = if ix.covering then ix.entry_width else r.row_width in
    Some
      (mk ctx
         (Access
            {
              alias = r.alias;
              kind = Index_range { index = idx; match_sel; index_only = ix.covering };
            })
         ~mask:r.bit ~card:r.base ~width ~usage:u
         ~order:(scan_order idx r.alias))
  end

let index_scan ctx alias (idx : Index.t) =
  let r = rel ctx alias in
  if not (String.equal idx.table r.relation.table) then None
  else index_scan_of ctx r (ix_for r idx)

let access_paths ctx alias =
  let r = rel ctx alias in
  table_scan_of ctx r
  :: List.filter_map (index_scan_of ctx r) (Array.to_list r.indexes)

let block_nlj ctx ~outer ~inner =
  let u = Vec.zero ctx.dim in
  let (_ : int) = Fill.block_nlj ctx u ~outer ~inner in
  Build.block_nlj ctx u ~outer ~inner

let index_nlj ctx ~outer ~inner_alias (idx : Index.t) (j : Query.join) =
  let r = rel ctx inner_alias in
  let inner_col, outer_alias =
    if j.left = inner_alias then (j.left_col, j.right) else (j.right_col, j.left)
  in
  if
    (not (String.equal idx.table r.relation.table))
    || (not (Index.matches_column idx inner_col))
    || not (List.exists (String.equal outer_alias) outer.aliases)
  then None
  else begin
    let ix = ix_for r idx and e = edge_for ctx j in
    let u = Vec.zero ctx.dim in
    let (_ : int) = Fill.index_nlj_of ctx u ~outer r ix e in
    Some (Build.index_nlj_of ctx u ~outer r ix e)
  end

let hash_join ctx ~build ~probe =
  let u = Vec.zero ctx.dim in
  let (_ : int) = Fill.hash_join ctx u ~build ~probe in
  Build.hash_join ctx u ~build ~probe

let sorted_on node alias col =
  match node.order with
  | Some (a, c) -> a = alias && c = col
  | None -> false

let merge_join ctx ~left ~right (j : Query.join) =
  let ok =
    (sorted_on left j.left j.left_col && sorted_on right j.right j.right_col)
    || (sorted_on left j.right j.right_col && sorted_on right j.left j.left_col)
  in
  if not ok then None
  else begin
    let u = Vec.zero ctx.dim in
    let (_ : int) = Fill.merge_join ctx u ~left left.usage ~right right.usage in
    Some (Build.merge_join ctx u ~left ~right)
  end

let sort ctx ~key input =
  let u = Vec.zero ctx.dim in
  Fill.sort ctx u input;
  Build.sort ctx u ~key input

let group_agg ctx ~hash ~groups input =
  let env = ctx.env in
  let input, spilled, order =
    if hash then begin
      let group_pages = pages_of_rows groups input.width in
      (input, group_pages > env.sort_heap_pages, None)
    end
    else (sort ctx ~key:None input, false, None)
  in
  let u = Vec.copy input.usage in
  if hash && spilled then begin
    let pages = pages_of_rows input.card input.width in
    add u ctx.tmp_xfer (2. *. pages);
    add u ctx.tmp_seek (Float.max 2. (2. *. pages /. seq_extent))
  end;
  add u ctx.cpu (input.card *. Defaults.cpu_agg_row);
  mk ctx
    (Group_agg { input; hash; spilled })
    ~mask:input.mask ~card:groups ~width:input.width ~usage:u ~order

let finalize_variants ctx node =
  let query = ctx.query in
  let grouped =
    let agg groups = [ group_agg ctx ~hash:true ~groups node;
                       group_agg ctx ~hash:false ~groups node ] in
    match query.group_by with
    | Some groups -> agg groups
    | None ->
        if query.distinct then agg (Float.max 1. (node.card /. 2.))
        else [ node ]
  in
  if query.order_by then List.map (sort ctx ~key:None) grouped else grouped

let finalize ctx node =
  let query = ctx.query in
  let node =
    match query.group_by with
    | Some groups -> group_agg ctx ~hash:true ~groups node
    | None ->
        if query.distinct then
          group_agg ctx ~hash:true ~groups:(Float.max 1. (node.card /. 2.)) node
        else node
  in
  if query.order_by then sort ctx ~key:None node else node

(* ------------------------------------------------------------------ *)
(* Inspection *)

let cost p c = Vec.dot p.usage c

let rec signature p =
  match p.op with
  | Access { alias; kind = Table_scan } -> Printf.sprintf "TS(%s)" alias
  | Access { alias; kind = Index_range { index; match_sel; index_only } } ->
      Printf.sprintf "IXS(%s.%s%s%s)" alias index.Index.name
        (if match_sel < 1. then ":m" else "")
        (if index_only then ":io" else "")
  | Block_nlj { outer; inner; _ } ->
      Printf.sprintf "BNLJ(%s,%s)" (signature outer) (signature inner)
  | Index_nlj { outer; inner_alias; index; index_only; _ } ->
      Printf.sprintf "INLJ(%s,%s.%s%s)" (signature outer) inner_alias
        index.Index.name
        (if index_only then ":io" else "")
  | Hash_join { build; probe; spilled } ->
      Printf.sprintf "HSJ%s(%s,%s)"
        (if spilled then ":sp" else "")
        (signature build) (signature probe)
  | Merge_join { left; right } ->
      Printf.sprintf "MGJ(%s,%s)" (signature left) (signature right)
  | Sort { input; spilled; _ } ->
      Printf.sprintf "SORT%s(%s)" (if spilled then ":sp" else "") (signature input)
  | Group_agg { input; hash; spilled } ->
      Printf.sprintf "GRP:%s%s(%s)"
        (if hash then "h" else "s")
        (if spilled then ":sp" else "")
        (signature input)

let pp_explain ppf p =
  let rec go indent p =
    let pad = String.make indent ' ' in
    let line fmt = Format.fprintf ppf ("%s" ^^ fmt ^^ "  [rows=%.3g]@,") pad in
    match p.op with
    | Access { alias; kind = Table_scan } -> line "TBSCAN %s" alias p.card
    | Access { alias; kind = Index_range { index; match_sel; index_only } } ->
        line "IXSCAN %s via %s (sel=%.3g%s)" alias index.Index.name match_sel
          (if index_only then ", index-only" else "")
          p.card
    | Block_nlj { outer; inner; rescans } ->
        line "NLJOIN (block, %.0f rescans)" rescans p.card;
        go (indent + 2) outer;
        go (indent + 2) inner
    | Index_nlj { outer; inner_alias; index; index_only; _ } ->
        line "NLJOIN (index probe %s.%s%s)" inner_alias index.Index.name
          (if index_only then ", index-only" else "")
          p.card;
        go (indent + 2) outer
    | Hash_join { build; probe; spilled } ->
        line "HSJOIN%s" (if spilled then " (spilled)" else "") p.card;
        go (indent + 2) build;
        go (indent + 2) probe
    | Merge_join { left; right } ->
        line "MSJOIN" p.card;
        go (indent + 2) left;
        go (indent + 2) right
    | Sort { input; spilled; _ } ->
        line "SORT%s" (if spilled then " (external)" else "") p.card;
        go (indent + 2) input
    | Group_agg { input; hash; spilled } ->
        line "GRPBY (%s%s)"
          (if hash then "hash" else "sort")
          (if spilled then ", spilled" else "")
          p.card;
        go (indent + 2) input
  in
  Format.fprintf ppf "@[<v>";
  go 0 p;
  Format.fprintf ppf "@]"
