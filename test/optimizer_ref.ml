(* Test-only reference for [Optimizer.optimize]: the DP as it stood
   before candidates were skipped on a cost bound.  Every hash,
   block nested-loop and merge candidate is filled and costed, and every
   merge input that lacks the join order gets its sort filled before the
   pairs are tried.  The production DP must return exactly this result —
   plan signature, total cost and usage, bit for bit — and count exactly
   the same memo insertion attempts and wins.  The memo counters are
   recorded under the production names, so a caller reads them the same
   way after either call. *)

open Qsens_catalog
open Qsens_plan
open Qsens_linalg
module Obs = Qsens_obs.Obs

let m_calls = Obs.counter ~help:"optimizer invocations" "optimizer.calls"

let m_memo_inserts =
  Obs.counter ~help:"memo insertion attempts" "optimizer.memo_inserts"

let m_memo_kept =
  Obs.counter ~help:"memo insertions that improved a variant" "optimizer.memo_kept"

type result = { plan : Node.t; total_cost : float; signature : string }

(* Per-subset memo of the cheapest plan for each (interesting order,
   output width) combination — System-R's per-interesting-order retention
   extended with width, because narrower intermediate results (e.g. from
   index-only accesses) can win later through smaller sorts and spills
   even when currently more expensive.

   A slot is keyed by two ints: the interned order key ([0] when the
   order is not interesting) and the width.  Slots of the subset under
   construction live in growable arrays, each caching its occupant's
   cost.  A finished subset's variants are sorted once by the key's
   string form, ["alias.column#width"] or ["#width"]: the enumeration
   order — and with it every cost-tie resolution downstream — must not
   depend on insertion order. *)
module Memo = struct
  type t = {
    key_names : string array;  (* order key -> its string form; 0 -> "" *)
    mutable len : int;
    mutable okey : int array;
    mutable width : int array;
    mutable cost : float array;
    mutable oid : int array;  (* the occupant's order id *)
    mutable node : Node.t array;
    mutable key : string array;
    mutable slot : int;  (* the slot [wins] looked at, or -1 *)
    mutable inserts : int;  (* insertion attempts and wins since the last [finish] *)
    mutable kept : int;
    variants : Node.t array array;  (* per finished subset, in key order *)
    oids : int array array;
  }

  let create ~key_names ~subsets =
    {
      key_names;
      len = 0;
      okey = [||];
      width = [||];
      cost = [||];
      oid = [||];
      node = [||];
      key = [||];
      slot = -1;
      inserts = 0;
      kept = 0;
      variants = Array.make subsets [||];
      oids = Array.make subsets [||];
    }

  let find t okey width =
    let s = ref 0 in
    while !s < t.len && not (t.okey.(!s) = okey && t.width.(!s) = width) do
      incr s
    done;
    if !s < t.len then !s else -1

  (* Counts one insertion attempt of a candidate of cost [c]; true when
     it takes its slot.  Strict: on a tie the first insert keeps it. *)
  let[@inline] wins t ~okey ~width c =
    let s = find t okey width in
    t.slot <- s;
    t.inserts <- t.inserts + 1;
    let win = s < 0 || c < t.cost.(s) in
    if win then t.kept <- t.kept + 1;
    win

  let grow t filler =
    let cap = max 8 (2 * t.len) in
    let extend a x = Array.append a (Array.make (cap - t.len) x) in
    t.okey <- extend t.okey 0;
    t.width <- extend t.width 0;
    t.cost <- extend t.cost 0.;
    t.oid <- extend t.oid 0;
    t.node <- extend t.node filler;
    t.key <- extend t.key ""

  (* Stores the winner of the last [wins] in its slot. *)
  let keep t ~okey ~width ~oid c node =
    let s =
      if t.slot >= 0 then t.slot
      else begin
        if t.len = Array.length t.okey then grow t node;
        let s = t.len in
        t.len <- s + 1;
        t.okey.(s) <- okey;
        t.width.(s) <- width;
        t.key.(s) <- t.key_names.(okey) ^ "#" ^ string_of_int width;
        s
      end
    in
    t.cost.(s) <- c;
    t.oid.(s) <- oid;
    t.node.(s) <- node

  (* Seals subset [mask]: its variants in key order. *)
  let finish t mask =
    let by_key = Array.init t.len Fun.id in
    Array.sort (fun a b -> String.compare t.key.(a) t.key.(b)) by_key;
    t.variants.(mask) <- Array.map (fun s -> t.node.(s)) by_key;
    t.oids.(mask) <- Array.map (fun s -> t.oid.(s)) by_key;
    t.len <- 0;
    Obs.add m_memo_inserts t.inserts;
    Obs.add m_memo_kept t.kept;
    t.inserts <- 0;
    t.kept <- 0
end

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

let same_order (a, c) (a', c') = String.equal a a' && String.equal c c'

let optimize ?(max_bushy_side = 2) env (query : Query.t) ~costs =
  Obs.add m_calls 1;
  Obs.with_span "optimizer.optimize" @@ fun () ->
  let aliases =
    Array.of_list (List.map (fun (r : Query.relation) -> r.alias) query.relations)
  in
  let n = Array.length aliases in
  if n = 0 then failwith "Optimizer.optimize: query has no relations";
  if n > 16 then failwith "Optimizer.optimize: too many relations";
  let ctx = Node.make_ctx env query in
  let bit_of alias =
    let rec find i = if aliases.(i) = alias then i else find (i + 1) in
    find 0
  in
  let full = (1 lsl n) - 1 in
  let joins = Array.of_list query.joins in
  let n_edges = Array.length joins in
  let el = Array.map (fun (j : Query.join) -> 1 lsl bit_of j.left) joins in
  let er = Array.map (fun (j : Query.join) -> 1 lsl bit_of j.right) joins in
  let crosses e s1 s2 =
    (el.(e) land s1 <> 0 && er.(e) land s2 <> 0)
    || (el.(e) land s2 <> 0 && er.(e) land s1 <> 0)
  in
  let base = Array.map (Node.access_paths ctx) aliases in
  (* Interned orders: id 0 is no order, id [k] is [orders.(k - 1)].  Every
     order a plan here can carry is an access path's scan order or a join
     column, kept by the plans above it or set by a sort for a merge. *)
  let orders =
    let ends =
      List.concat_map
        (fun (j : Query.join) -> [ (j.left, j.left_col); (j.right, j.right_col) ])
        query.joins
    in
    let scans =
      List.concat_map
        (List.filter_map (fun (p : Node.t) -> p.order))
        (Array.to_list base)
    in
    List.fold_left
      (fun acc o -> if List.exists (same_order o) acc then acc else o :: acc)
      [] (ends @ scans)
    |> List.rev |> Array.of_list
  in
  let order_id = function
    | None -> 0
    | Some o ->
        let rec find k = if same_order orders.(k) o then k + 1 else find (k + 1) in
        find 0
  in
  (* An order is interesting only if it is on the join column of an edge
     leading out of the subset — otherwise no future merge join can use
     it, and the variant competes on cost alone (System-R's treatment of
     interesting orders).  [partner.(id)] holds the far ends of the edges
     whose near end is the order: the order is interesting in [mask] when
     one of them lies outside it. *)
  let partner =
    Array.init
      (Array.length orders + 1)
      (fun id ->
        if id = 0 then 0
        else
          let o = orders.(id - 1) in
          let far = ref 0 in
          Array.iteri
            (fun e (j : Query.join) ->
              if same_order o (j.left, j.left_col) then far := !far lor er.(e);
              if same_order o (j.right, j.right_col) then far := !far lor el.(e))
            joins;
          !far)
  in
  (* The memo keys an interesting order by its string form,
     "alias.column": orders that print alike share a key. *)
  let order_names = Array.map (fun (a, c) -> a ^ "." ^ c) orders in
  let key_names =
    Array.fold_left
      (fun acc k -> if List.exists (String.equal k) acc then acc else acc @ [ k ])
      [ "" ] order_names
    |> Array.of_list
  in
  let key_of_order =
    Array.init
      (Array.length orders + 1)
      (fun id ->
        if id = 0 then 0
        else
          let rec find k =
            if String.equal key_names.(k) order_names.(id - 1) then k
            else find (k + 1)
          in
          find 1)
  in
  let okey mask oid =
    if partner.(oid) land lnot mask <> 0 then key_of_order.(oid) else 0
  in
  (* The order id of each edge's left and right join column. *)
  let end_key side = Array.map (fun j -> order_id (Some (side j))) joins in
  let lkey = end_key (fun (j : Query.join) -> (j.left, j.left_col)) in
  let rkey = end_key (fun (j : Query.join) -> (j.right, j.right_col)) in
  (* For an index nested-loop join into relation [i] along edge [e]: the
     positions of the indexes on [i]'s table whose leading column is the
     edge's column on [i]'s side. *)
  let inlj_indexes =
    Array.map
      (fun alias ->
        let rel = Query.relation query alias in
        let indexes =
          Array.of_list (Schema.indexes_of env.Env.schema rel.table)
        in
        Array.map
          (fun (j : Query.join) ->
            let inner_col = if j.left = alias then j.left_col else j.right_col in
            let ks = ref [] in
            for k = Array.length indexes - 1 downto 0 do
              if Index.matches_column indexes.(k) inner_col then ks := k :: !ks
            done;
            Array.of_list !ks)
          joins)
      aliases
  in
  let memo = Memo.create ~key_names ~subsets:(full + 1) in
  (* Base access paths. *)
  Array.iteri
    (fun i paths ->
      List.iter
        (fun (p : Node.t) ->
          let oid = order_id p.order in
          let okey = okey (1 lsl i) oid in
          let c = Node.cost p costs in
          if Memo.wins memo ~okey ~width:p.width c then
            Memo.keep memo ~okey ~width:p.width ~oid c p)
        paths;
      Memo.finish memo (1 lsl i))
    base;
  (* Whether a subset's induced join graph is connected, to restrict
     cartesian products to genuinely disconnected queries. *)
  let connected = Array.make (full + 1) false in
  for mask = 1 to full do
    if popcount mask = 1 then connected.(mask) <- true
    else begin
      let seed = mask land -mask in
      let reach = ref seed in
      let changed = ref true in
      while !changed do
        changed := false;
        for e = 0 to n_edges - 1 do
          let bl = el.(e) and br = er.(e) in
          if bl land mask <> 0 && br land mask <> 0 then begin
            if bl land !reach <> 0 && br land !reach = 0 then begin
              reach := !reach lor br;
              changed := true
            end;
            if br land !reach <> 0 && bl land !reach = 0 then begin
              reach := !reach lor bl;
              changed := true
            end
          end
        done
      done;
      connected.(mask) <- !reach = mask
    end
  done;
  let scratch = Vec.zero (Qsens_cost.Space.dim env.Env.space) in
  (* The usage of each variant sorted for a merge join: the variant's own
     when it already has the order, else a sort's, filled into [lbuf] /
     [rbuf] without building the sort. *)
  let lsrc = ref [||] and rsrc = ref [||] in
  let lbuf = ref [||] and rbuf = ref [||] in
  let reserve k =
    if Array.length !lbuf < k then begin
      let fresh () = Array.init k (fun _ -> Vec.zero (Vec.dim scratch)) in
      lbuf := fresh ();
      rbuf := fresh ();
      lsrc := Array.make k scratch;
      rsrc := Array.make k scratch
    end
  in
  (* Winners only: build the sort nodes a merge join's inputs lack. *)
  let keep_merge ~okey ~width ~kl ~kr c (l : Node.t) lu (r : Node.t) ru =
    let sorted (v : Node.t) u k =
      if u == v.usage then v else Node.Build.sort ctx u ~key:(Some orders.(k - 1)) v
    in
    let left = sorted l lu kl and right = sorted r ru kr in
    Memo.keep memo ~okey ~width ~oid:kl c
      (Node.Build.merge_join ctx scratch ~left ~right)
  in
  let try_hash_join (l : Node.t) (r : Node.t) =
    let width = Node.Fill.hash_join ctx scratch ~build:l ~probe:r in
    let c = Vec.dot scratch costs in
    if Memo.wins memo ~okey:0 ~width c then
      Memo.keep memo ~okey:0 ~width ~oid:0 c
        (Node.Build.hash_join ctx scratch ~build:l ~probe:r)
  in
  let try_block_nlj mask (l : Node.t) lo (r : Node.t) =
    let width = Node.Fill.block_nlj ctx scratch ~outer:l ~inner:r in
    let c = Vec.dot scratch costs in
    let okey = okey mask lo in
    if Memo.wins memo ~okey ~width c then
      Memo.keep memo ~okey ~width ~oid:lo c
        (Node.Build.block_nlj ctx scratch ~outer:l ~inner:r)
  in
  let try_merge_join mask (l : Node.t) lu kl (r : Node.t) ru kr =
    let width = Node.Fill.merge_join ctx scratch ~left:l lu ~right:r ru in
    let c = Vec.dot scratch costs in
    let okey = okey mask kl in
    if Memo.wins memo ~okey ~width c then
      keep_merge ~okey ~width ~kl ~kr c l lu r ru
  in
  let try_index_nlj mask (outer : Node.t) oo i k e =
    let width =
      Node.Fill.index_nlj ctx scratch ~outer ~inner:i ~index:k ~edge:e
    in
    let c = Vec.dot scratch costs in
    let okey = okey mask oo in
    if Memo.wins memo ~okey ~width c then
      Memo.keep memo ~okey ~width ~oid:oo c
        (Node.Build.index_nlj ctx scratch ~outer ~inner:i ~index:k ~edge:e)
  in
  (* Point the sorted-usage sources of [vs] at order [k]. *)
  let sort_sources (vs : Node.t array) oids k src buf =
    for v = 0 to Array.length vs - 1 do
      if oids.(v) = k then src.(v) <- vs.(v).usage
      else begin
        Node.Fill.sort ctx buf.(v) vs.(v);
        src.(v) <- buf.(v)
      end
    done
  in
  let join_subsets mask s1 s2 ~cross =
    let lefts = memo.variants.(s1) and rights = memo.variants.(s2) in
    let loids = memo.oids.(s1) in
    let nl = Array.length lefts and nr = Array.length rights in
    if nl > 0 && nr > 0 then begin
      (* Variants differ not only in cost and order but also in output
         width (index-only accesses are narrower), and width feeds
         downstream spill costs — so every variant pair must be
         considered, not just the cheapest. *)
      for li = 0 to nl - 1 do
        for ri = 0 to nr - 1 do
          if cross then try_hash_join lefts.(li) rights.(ri);
          try_block_nlj mask lefts.(li) loids.(li) rights.(ri)
        done
      done;
      (* Merge join: pair key-sorted variants, adding an explicit sort on
         top of every variant that lacks the order. *)
      if cross then begin
        reserve (max nl nr);
        let lsrc = !lsrc and rsrc = !rsrc in
        for e = 0 to n_edges - 1 do
          if crosses e s1 s2 then begin
            let left_in_s1 = el.(e) land s1 <> 0 in
            let kl = if left_in_s1 then lkey.(e) else rkey.(e) in
            let kr = if left_in_s1 then rkey.(e) else lkey.(e) in
            sort_sources lefts loids kl lsrc !lbuf;
            sort_sources rights memo.oids.(s2) kr rsrc !rbuf;
            for li = 0 to nl - 1 do
              for ri = 0 to nr - 1 do
                try_merge_join mask lefts.(li) lsrc.(li) kl rights.(ri)
                  rsrc.(ri) kr
              done
            done
          end
        done
      end
    end
  in
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      (* Composite joins over all ordered splits. *)
      let s1 = ref ((mask - 1) land mask) in
      while !s1 <> 0 do
        let s2 = mask lxor !s1 in
        (* Bushy trees are considered, but one side of a composite join is
           kept small (DB2-style heuristic): full bushy enumeration is
           cubic in the subset lattice and adds little plan diversity. *)
        let bushy_ok = min (popcount !s1) (popcount s2) <= max_bushy_side in
        let cross = ref false in
        if bushy_ok then
          for e = 0 to n_edges - 1 do
            if crosses e !s1 s2 then cross := true
          done;
        let allow_cartesian = (not connected.(mask)) && not !cross in
        if !cross || allow_cartesian then
          join_subsets mask !s1 s2 ~cross:!cross;
        s1 := (!s1 - 1) land mask
      done;
      (* Index nested loops with a single-table inner. *)
      for i = 0 to n - 1 do
        let b = 1 lsl i in
        let rest = mask lxor b in
        if mask land b <> 0 && rest <> 0 then begin
          let outers = memo.variants.(rest) and ooids = memo.oids.(rest) in
          for v = 0 to Array.length outers - 1 do
            for e = 0 to n_edges - 1 do
              if crosses e b rest then begin
                let ks = inlj_indexes.(i).(e) in
                for x = 0 to Array.length ks - 1 do
                  try_index_nlj mask outers.(v) ooids.(v) i ks.(x) e
                done
              end
            done
          done
        end
      done;
      Memo.finish memo mask
    end
  done;
  let tops =
    List.concat_map (Node.finalize_variants ctx)
      (Array.to_list memo.variants.(full))
  in
  match tops with
  | [] -> failwith "Optimizer.optimize: no plan found"
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc node ->
            if Node.cost node costs < Node.cost acc costs then node else acc)
          first rest
      in
      {
        plan = best;
        total_cost = Node.cost best costs;
        signature = Node.signature best;
      }
