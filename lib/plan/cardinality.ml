open Qsens_catalog

type t = {
  schema : Schema.t;
  query : Query.t;
  cache : (string, float) Hashtbl.t;
}

let make schema query = { schema; query; cache = Hashtbl.create 64 }

let base_rows t alias =
  let r = Query.relation t.query alias in
  (Schema.table t.schema r.table).Table.rows

let base t alias =
  let r = Query.relation t.query alias in
  base_rows t alias *. Query.local_selectivity r

let column_ndv t alias col =
  let r = Query.relation t.query alias in
  (Table.column (Schema.table t.schema r.table) col).Column.ndv

let join_selectivity t (j : Query.join) =
  match j.selectivity with
  | Some s -> s
  | None ->
      let ndv_l = column_ndv t j.left j.left_col in
      let ndv_r = column_ndv t j.right j.right_col in
      1. /. Float.max 1. (Float.max ndv_l ndv_r)

let rec of_aliases t aliases =
  let key = String.concat "," (List.sort String.compare aliases) in
  match Hashtbl.find_opt t.cache key with
  | Some card -> card
  | None ->
      let card = compute t aliases in
      Hashtbl.add t.cache key card;
      card

and compute t aliases =
  let inside a = List.exists (String.equal a) aliases in
  let internal_edges =
    List.filter (fun (j : Query.join) -> inside j.left && inside j.right)
      t.query.joins
  in
  let rows =
    List.fold_left (fun acc a -> acc *. base t a) 1. aliases
  in
  List.fold_left
    (fun acc j -> acc *. join_selectivity t j)
    rows internal_edges

