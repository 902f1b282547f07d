(* Bench-side spans for the traced run.

   A span wraps one call into a library's public entry point.  Spans nest
   (an optimizer call inside a discovery call), so each closed span
   charges its duration to its parent's child time, and a layer's self
   time is the sum over its spans of duration minus child time.  Minor
   words are attributed the same way.  Nothing is recorded unless
   [enabled] is set: the untraced run pays one branch per wrapped call. *)

module Clock = Qsens_obs.Clock

type layer = {
  mutable self_s : float;
  mutable minor_words : float;  (** self, like [self_s] *)
  mutable durations : float list;  (** whole-span seconds, newest first *)
}

type frame = { mutable child_s : float; mutable child_minor : float }

let enabled = ref false
let stack : frame list ref = ref []
let layers : (string, layer) Hashtbl.t = Hashtbl.create 16
let current_id = ref 0
let last_duration = ref 0.

(* Chrome-trace events, newest first: (phase, name, id, start seconds). *)
let events : (char * string * int * float) list ref = ref []

let reset () =
  stack := [];
  Hashtbl.reset layers;
  events := [];
  current_id := 0;
  last_duration := 0.

let set_id id = current_id := id

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { self_s = 0.; minor_words = 0.; durations = [] } in
      Hashtbl.replace layers name l;
      l

let run name f =
  if not !enabled then f ()
  else begin
    let frame = { child_s = 0.; child_minor = 0. } in
    let id = !current_id in
    let t0 = Clock.now_s () in
    let m0 = Gc.minor_words () in
    events := ('B', name, id, t0) :: !events;
    stack := frame :: !stack;
    let finish () =
      let m1 = Gc.minor_words () in
      let t1 = Clock.now_s () in
      stack := List.tl !stack;
      let dur = t1 -. t0 and minor = m1 -. m0 in
      (match !stack with
      | parent :: _ ->
          parent.child_s <- parent.child_s +. dur;
          parent.child_minor <- parent.child_minor +. minor
      | [] -> ());
      let l = layer name in
      l.self_s <- l.self_s +. dur -. frame.child_s;
      l.minor_words <- l.minor_words +. minor -. frame.child_minor;
      l.durations <- dur :: l.durations;
      events := ('E', name, id, t1) :: !events;
      last_duration := dur
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

(* Seconds of the most recently closed span. *)
let last () = !last_duration

let find name = Hashtbl.find_opt layers name
let self_s name = match find name with Some l -> l.self_s | None -> 0.

let minor_mw name =
  match find name with Some l -> l.minor_words /. 1e6 | None -> 0.

let durations name = match find name with Some l -> l.durations | None -> []

let total_self () =
  Hashtbl.fold (fun _ l acc -> l.self_s :: acc) layers []
  |> List.sort Float.compare
  |> List.fold_left ( +. ) 0.

(* Chrome-trace JSON on one track.  Timestamps are microseconds since the
   first event, bumped by one where two events fall in the same
   microsecond, so they strictly increase as the trace checker
   requires. *)
let chrome_trace () =
  let evs = List.rev !events in
  let origin = match evs with (_, _, _, t) :: _ -> t | [] -> 0. in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    "{\"traceEvents\":[\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"bench\"}}";
  let last = ref 0 in
  List.iter
    (fun (ph, name, id, t) ->
      let us = max (!last + 1) (int_of_float ((t -. origin) *. 1e6)) in
      last := us;
      Printf.bprintf b
        ",\n{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":0,\"ts\":%d,\"args\":{\"id\":%d}}"
        name ph us id)
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
