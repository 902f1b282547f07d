(* Deterministic tracing + metrics registry.

   Timestamps are *logical*: every track (the main line of control plus one
   track per pool task, keyed by (batch, index)) carries its own monotonic
   event counter.  Exported traces order tracks by label and events by
   counter, so a fixed seed produces byte-identical output regardless of how
   the domain scheduler interleaved the work.  Wall-clock time is an opt-in
   annotation ([args.wall_ns]), never the timeline.

   Every entry point checks [recording_flag] first; the disabled path
   performs no allocation and no locking. *)

type kind = Counter | Gauge | Histogram

type metric = { id : int; name : string; kind : kind; help : string }

let name m = m.name
let kind m = m.kind
let help m = m.help

type cell =
  | Ccounter of { mutable n : int }
  | Cgauge of { mutable v : float }
  | Chist of { mutable n : int; mutable sum : float; buckets : int array }

type event = { phase : char; ename : string; ts : int; wall : int64 }

type track = {
  label : string;
  mutable clock : int;
  mutable events : event list; (* newest first *)
  mutable cells : cell option array; (* indexed by metric id *)
}

(* ---- registry -------------------------------------------------------- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let metric_count = ref 0
let registry_lock = Mutex.create ()

let register kind name help =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = { id = !metric_count; name; kind; help } in
        incr metric_count;
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock registry_lock;
  m

let counter ?(help = "") name = register Counter name help
let gauge ?(help = "") name = register Gauge name help
let histogram ?(help = "") name = register Histogram name help

(* ---- recording state ------------------------------------------------- *)

let recording_flag = ref false
let wallclock_flag = ref false
let main_label = "main"
let tracks : (string, track) Hashtbl.t = Hashtbl.create 16
let tracks_lock = Mutex.create ()
let batch_counter = ref 0

let new_track label = { label; clock = 0; events = []; cells = [||] }

let find_track label =
  Mutex.lock tracks_lock;
  let t =
    match Hashtbl.find_opt tracks label with
    | Some t -> t
    | None ->
        let t = new_track label in
        Hashtbl.add tracks label t;
        t
  in
  Mutex.unlock tracks_lock;
  t

(* The current track is domain-local.  Pool workers only record inside
   [with_task], which pins their track; any stray record outside a task
   falls back to the main track, cached so that recording on it takes no
   lock and allocates nothing.  Every domain that fills the cache finds
   the same track. *)
let current_key : track option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let main_track : track option ref = ref None

let current () =
  match Domain.DLS.get current_key with
  | Some t -> t
  | None -> (
      match !main_track with
      | Some t -> t
      | None ->
          let t = find_track main_label in
          main_track := Some t;
          t)

let recording () = !recording_flag

let reset () =
  Mutex.lock tracks_lock;
  Hashtbl.reset tracks;
  main_track := None;
  batch_counter := 0;
  Mutex.unlock tracks_lock;
  Domain.DLS.set current_key None

let start ?(wallclock = false) () =
  reset ();
  wallclock_flag := wallclock;
  recording_flag := true

let stop () = recording_flag := false

(* ---- spans ----------------------------------------------------------- *)

let wall () = if !wallclock_flag then Clock.now_ns () else 0L

let emit t phase ename =
  t.clock <- t.clock + 1;
  t.events <- { phase; ename; ts = t.clock; wall = wall () } :: t.events

let enter name = if !recording_flag then emit (current ()) 'B' name
let leave name = if !recording_flag then emit (current ()) 'E' name
let instant name = if !recording_flag then emit (current ()) 'i' name

let with_span name f =
  if not !recording_flag then f ()
  else begin
    let t = current () in
    emit t 'B' name;
    match f () with
    | v ->
        emit t 'E' name;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        emit t 'E' name;
        Printexc.raise_with_backtrace e bt
  end

(* ---- pool task tracks ------------------------------------------------ *)

let begin_batch () =
  incr batch_counter;
  !batch_counter

let task_label ~batch ~index = Printf.sprintf "pool/b%04d/t%04d" batch index

let with_task ~batch ~index f =
  if not !recording_flag then f ()
  else begin
    let t = find_track (task_label ~batch ~index) in
    let prev = Domain.DLS.get current_key in
    Domain.DLS.set current_key (Some t);
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set current_key prev)
      (fun () -> with_span "pool.task" f)
  end

(* ---- metrics --------------------------------------------------------- *)

let find_cell t (m : metric) =
  if m.id < Array.length t.cells then Array.unsafe_get t.cells m.id else None

(* A cell is allocated once, on its metric's first record in the track;
   after that a record is an array read. *)
let cell_of t (m : metric) =
  match find_cell t m with
  | Some c -> c
  | None ->
      let c =
        match m.kind with
        | Counter -> Ccounter { n = 0 }
        | Gauge -> Cgauge { v = 0. }
        | Histogram -> Chist { n = 0; sum = 0.; buckets = Array.make 64 0 }
      in
      let len = Array.length t.cells in
      if m.id >= len then begin
        let grown = Array.make (max (m.id + 1) (2 * len)) None in
        Array.blit t.cells 0 grown 0 len;
        t.cells <- grown
      end;
      t.cells.(m.id) <- Some c;
      c

let add m n =
  if !recording_flag && n <> 0 then
    match cell_of (current ()) m with
    | Ccounter c -> c.n <- c.n + n
    | Cgauge _ | Chist _ -> ()

let set m v =
  if !recording_flag then
    match cell_of (current ()) m with
    | Cgauge c -> c.v <- v
    | Ccounter _ | Chist _ -> ()

(* Histogram buckets: bucket 0 catches v <= 0 and non-finite values; bucket
   b >= 1 covers [2^(b-21), 2^(b-20)), i.e. a log2 scale with 2^-20 .. 2^43
   usable range.  [Float.frexp] gives v = m * 2^e with m in [0.5, 1). *)
let bucket_of v =
  if (not (Float.is_finite v)) || v <= 0. then 0
  else
    let _, e = Float.frexp v in
    let b = e + 20 in
    if b < 1 then 0 else if b > 63 then 63 else b

let bucket_lo b = if b <= 0 then 0. else Float.ldexp 1. (b - 21)
let bucket_hi b = if b <= 0 then 0. else Float.ldexp 1. (b - 20)

let observe m v =
  if !recording_flag then
    match cell_of (current ()) m with
    | Chist h ->
        h.n <- h.n + 1;
        h.sum <- h.sum +. v;
        let b = bucket_of v in
        h.buckets.(b) <- h.buckets.(b) + 1
    | Ccounter _ | Cgauge _ -> ()

(* ---- export ---------------------------------------------------------- *)

let track_order a b =
  match (a.label = main_label, b.label = main_label) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false -> String.compare a.label b.label

let sorted_tracks () =
  Mutex.lock tracks_lock;
  let ts =
    Hashtbl.fold (fun _ t acc -> t :: acc) tracks [] |> List.sort track_order
  in
  Mutex.unlock tracks_lock;
  ts

let sorted_metrics () =
  Mutex.lock registry_lock;
  let ms =
    Hashtbl.fold (fun _ m acc -> m :: acc) registry []
    |> List.sort (fun a b -> Int.compare a.id b.id)
  in
  Mutex.unlock registry_lock;
  ms

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let trace_string () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit_obj s =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf s
  in
  List.iteri
    (fun tid t ->
      emit_obj
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid (json_escape t.label));
      List.iter
        (fun e ->
          let base =
            Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%d"
              (json_escape e.ename) e.phase tid e.ts
          in
          let scope = if e.phase = 'i' then ",\"s\":\"t\"" else "" in
          let args =
            if e.wall <> 0L then Printf.sprintf ",\"args\":{\"wall_ns\":%Ld}" e.wall
            else ""
          in
          emit_obj (base ^ scope ^ args ^ "}"))
        (List.rev t.events))
    (sorted_tracks ());
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_string ()))

(* ---- allocation accounting ------------------------------------------ *)

(* [Gc.minor_words] is the one exact, allocation-free counter (unboxed
   external); [Gc.counters]' minor figure is sampled at slice
   boundaries in OCaml 5 and under-reports badly.  The [quick_stat]
   records for the major figure allocate on the minor heap, so they are
   read strictly outside the [minor_words] bracket — the minor delta is
   then exactly what [f] allocated. *)
let raw_measure f =
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  let m0 = Gc.minor_words () in
  let r = f () in
  let m1 = Gc.minor_words () in
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  (r, m1 -. m0, j1 -. j0)

(* Residual constant of the measurement itself, calibrated against a
   no-op thunk (0 on current runtimes, kept as a guard) so a genuinely
   allocation-free thunk measures exactly 0. *)
let measure_overhead =
  lazy
    (let (), m, j = raw_measure (fun () -> ()) in
     (m, j))

let measure_alloc ~n f =
  if n < 1 then invalid_arg "Obs.measure_alloc: n < 1";
  let om, oj = Lazy.force measure_overhead in
  let r, m, j = raw_measure f in
  let per v o = Float.max 0. ((v -. o) /. float_of_int n) in
  (r, per m om, per j oj)

type value =
  | Vcount of int
  | Vgauge of float
  | Vhist of { n : int; sum : float; buckets : (int * int) list }

let snapshot () =
  let ts = sorted_tracks () in
  List.filter_map
    (fun m ->
      let cells = List.filter_map (fun t -> find_cell t m) ts in
      match cells with
      | [] -> None
      | _ ->
          let v =
            match m.kind with
            | Counter ->
                Vcount
                  (List.fold_left
                     (fun acc c ->
                       match c with Ccounter x -> acc + x.n | _ -> acc)
                     0 cells)
            | Gauge ->
                (* last cell in deterministic track order wins *)
                Vgauge
                  (List.fold_left
                     (fun acc c -> match c with Cgauge x -> x.v | _ -> acc)
                     0. cells)
            | Histogram ->
                let n = ref 0 and sum = ref 0. in
                let buckets = Array.make 64 0 in
                List.iter
                  (function
                    | Chist h ->
                        n := !n + h.n;
                        sum := !sum +. h.sum;
                        Array.iteri
                          (fun i c -> buckets.(i) <- buckets.(i) + c)
                          h.buckets
                    | _ -> ())
                  cells;
                let nonzero =
                  Array.to_list buckets
                  |> List.mapi (fun i c -> (i, c))
                  |> List.filter (fun (_, c) -> c > 0)
                in
                Vhist { n = !n; sum = !sum; buckets = nonzero }
          in
          Some (m, v))
    (sorted_metrics ())

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

let metrics_json () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i (m, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      let key = Printf.sprintf "\"%s\": " (json_escape m.name) in
      Buffer.add_string buf key;
      match v with
      | Vcount n -> Buffer.add_string buf (string_of_int n)
      | Vgauge g -> Buffer.add_string buf (json_float g)
      | Vhist h ->
          Buffer.add_string buf
            (Printf.sprintf "{\"count\": %d, \"sum\": %s}" h.n (json_float h.sum)))
    (snapshot ());
  Buffer.add_string buf "}";
  Buffer.contents buf
