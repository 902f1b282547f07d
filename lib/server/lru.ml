module Obs = Qsens_obs.Obs

(* Intrusive doubly-linked list, most-recent at [head], least-recent at
   [tail]; a Hashtbl gives O(1) key lookup into the chain. *)
type 'a node = {
  key : string;
  value : 'a;
  size : int;
  mutable prev : 'a node option;  (* toward head / more recent *)
  mutable next : 'a node option;  (* toward tail / less recent *)
}

type stats = { hits : int; misses : int; evictions : int }

type metrics = {
  m_hits : Obs.metric;
  m_misses : Obs.metric;
  m_evictions : Obs.metric;
}

let metrics name =
  let metric kind help =
    Obs.counter ~help (Printf.sprintf "server.cache.%s.%s" name kind)
  in
  {
    m_hits = metric "hits" "cache hits";
    m_misses = metric "misses" "cache misses";
    m_evictions = metric "evictions" "cache evictions (byte budget)";
  }

type 'a t = {
  byte_budget : int;
  size_of : 'a -> int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  metrics : metrics;
}

let create ~metrics ~byte_budget ~size_of =
  if byte_budget < 0 then invalid_arg "Lru.create: negative byte budget";
  {
    byte_budget;
    size_of;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    metrics;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let drop t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  t.bytes <- t.bytes - node.size

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
      t.hits <- t.hits + 1;
      Obs.add t.metrics.m_hits 1;
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.add t.metrics.m_misses 1;
      None

let mem t key = Hashtbl.mem t.table key

let evict_to_budget t =
  while t.bytes > t.byte_budget do
    match t.tail with
    | Some node ->
        drop t node;
        t.evictions <- t.evictions + 1;
        Obs.add t.metrics.m_evictions 1
    | None -> t.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
  done

let put t key value =
  (match Hashtbl.find_opt t.table key with
  | Some old -> drop t old
  | None -> ());
  let size = t.size_of value in
  if size <= t.byte_budget then begin
    let node = { key; value; size; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node;
    t.bytes <- t.bytes + size;
    evict_to_budget t
  end

let remove t key =
  match Hashtbl.find_opt t.table key with
  | Some node -> drop t node
  | None -> ()

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.bytes <- 0

let length t = Hashtbl.length t.table
let bytes t = t.bytes
let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let to_alist t =
  let rec collect acc = function
    | None -> acc (* head-first accumulation reversed = oldest-first *)
    | Some node -> collect ((node.key, node.value) :: acc) node.next
  in
  collect [] t.head
