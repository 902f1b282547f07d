(* Deterministic, seeded fault injection.

   Every injection decision is a pure function of (plan seed, site name,
   per-site call counter): the injector hashes the triple with a
   SplitMix64-style mixer and derives uniforms from the hash chain.  No
   global RNG is consulted, so two runs with the same plan and the same
   per-site call sequences produce bit-identical faults and transcripts,
   regardless of how calls to *different* sites interleave (e.g. under
   the domain pool). *)

module Obs = Qsens_obs.Obs

let m_failures = Obs.counter ~help:"injected call failures" "faults.failures"
let m_timeouts = Obs.counter ~help:"injected call timeouts" "faults.timeouts"

let m_evictions =
  Obs.counter ~help:"injected cache evictions" "faults.evictions"

let m_noised = Obs.counter ~help:"observations perturbed by noise" "faults.noised"
let m_delayed = Obs.counter ~help:"calls that accrued latency" "faults.delayed"

let m_retry_backoffs =
  Obs.counter ~help:"retry backoffs taken" "retry.backoffs"

let m_retry_giveups =
  Obs.counter ~help:"retries exhausted or past deadline" "retry.giveups"

let m_breaker_trips = Obs.counter ~help:"circuit breaker trips" "breaker.trips"

(* ------------------------------------------------------------------ *)
(* Models and plans *)

type model =
  | Failure of float
  | Timeout of float
  | Cache_loss of float
  | Additive_noise of float
  | Multiplicative_noise of float
  | Latency of { mean : float; jitter : float }

type plan = { name : string; seed : int; models : model list }

let validate_model = function
  | Failure p | Timeout p | Cache_loss p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg "Fault.plan: probability must be in [0, 1]"
  | Additive_noise s | Multiplicative_noise s ->
      if not (s >= 0.) then invalid_arg "Fault.plan: sigma must be >= 0"
  | Latency { mean; jitter } ->
      if not (mean >= 0. && jitter >= 0.) then
        invalid_arg "Fault.plan: latency mean and jitter must be >= 0"

let plan ?(name = "anonymous") ?(seed = 0) models =
  List.iter validate_model models;
  { name; seed; models }

(* The canned adversarial conditions of the acceptance experiment: 5%
   probe failure and 2% multiplicative noise, seed 7. *)
let canned =
  { name = "canned"; seed = 7;
    models = [ Failure 0.05; Multiplicative_noise 0.02 ] }

let model_to_string = function
  | Failure p -> Printf.sprintf "fail=%g" p
  | Timeout p -> Printf.sprintf "timeout=%g" p
  | Cache_loss p -> Printf.sprintf "cacheloss=%g" p
  | Additive_noise s -> Printf.sprintf "add=%g" s
  | Multiplicative_noise s -> Printf.sprintf "mul=%g" s
  | Latency { mean; jitter } ->
      Printf.sprintf "latency=%g,jitter=%g" mean jitter

let plan_to_string p =
  String.concat ","
    (List.map model_to_string p.models @ [ Printf.sprintf "seed=%d" p.seed ])

let plan_of_string spec =
  let spec = String.trim spec in
  if spec = "canned" then Ok canned
  else if spec = "none" then Ok { name = "none"; seed = 0; models = [] }
  else begin
    let parts =
      List.filter (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' spec))
    in
    let parse_kv part =
      match String.index_opt part '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" part)
      | Some i ->
          Ok
            ( String.sub part 0 i,
              String.sub part (i + 1) (String.length part - i - 1) )
    in
    let float_of k v =
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s: not a number: %S" k v)
    in
    let rec go parts ~seed ~jitter acc =
      match parts with
      | [] ->
          let models =
            List.rev_map
              (function
                | Latency l -> Latency { l with jitter } | m -> m)
              acc
          in
          (match List.iter validate_model models with
          | () -> Ok { name = spec; seed; models }
          | exception Invalid_argument m -> Error m)
      | part :: rest -> (
          match parse_kv part with
          | Error e -> Error e
          | Ok (k, v) -> (
              let num f =
                match float_of k v with
                | Ok x -> go rest ~seed ~jitter (f x :: acc)
                | Error e -> Error e
              in
              match k with
              | "fail" -> num (fun p -> Failure p)
              | "timeout" -> num (fun p -> Timeout p)
              | "cacheloss" -> num (fun p -> Cache_loss p)
              | "add" -> num (fun s -> Additive_noise s)
              | "mul" -> num (fun s -> Multiplicative_noise s)
              | "latency" ->
                  num (fun mean -> Latency { mean; jitter = 0. })
              | "jitter" -> (
                  match float_of k v with
                  | Ok j -> go rest ~seed ~jitter:j acc
                  | Error e -> Error e)
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some s -> go rest ~seed:s ~jitter acc
                  | None -> Error (Printf.sprintf "seed: not an int: %S" v))
              | _ -> Error (Printf.sprintf "unknown fault key %S" k)))
    in
    go parts ~seed:0 ~jitter:0. []
  end

(* ------------------------------------------------------------------ *)
(* Typed errors *)

type error =
  | Probe_failed of { site : string; attempts : int }
  | Probe_timeout of { site : string; attempts : int }
  | Unknown_signature of string
  | Too_few_observations of { got : int; need : int }
  | Singular_system
  | Circuit_open of { site : string; failures : int }

let error_to_string = function
  | Probe_failed { site; attempts } ->
      Printf.sprintf "probe failed at %s after %d attempt(s)" site attempts
  | Probe_timeout { site; attempts } ->
      Printf.sprintf "probe deadline exceeded at %s after %d attempt(s)" site
        attempts
  | Unknown_signature s ->
      Printf.sprintf "signature %s unknown to the narrow interface" s
  | Too_few_observations { got; need } ->
      Printf.sprintf "too few observations (%d of the %d required)" got need
  | Singular_system -> "observations do not span the space (singular system)"
  | Circuit_open { site; failures } ->
      Printf.sprintf "circuit breaker open at %s after %d consecutive failure(s)"
        site failures

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* Transient errors are worth retrying; structural errors are not. *)
let transient = function
  | Probe_failed _ | Probe_timeout _ | Unknown_signature _ -> true
  | Too_few_observations _ | Singular_system | Circuit_open _ -> false

(* ------------------------------------------------------------------ *)
(* Deterministic hashing: SplitMix64 over (seed, site, counter) *)

let splitmix64 z =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* FNV-1a over the site name: stable across runs and OCaml versions,
   unlike Hashtbl.hash whose algorithm is unspecified. *)
let site_hash s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* A short deterministic stream for one injection point. *)
type stream = { mutable state : int64 }

let stream ~seed ~site ~counter =
  let z =
    Int64.logxor
      (Int64.logxor (Int64.of_int seed) (site_hash site))
      (Int64.mul (Int64.of_int counter) 0xD1342543DE82EF95L)
  in
  { state = splitmix64 z }

let next_uniform st =
  st.state <- splitmix64 st.state;
  (* 53 high bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical st.state 11) *. 0x1p-53

(* Box-Muller; consumes two uniforms. *)
let next_gaussian st =
  let u1 = Float.max 1e-300 (next_uniform st) in
  let u2 = next_uniform st in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let uniform ~seed ~site ~counter = next_uniform (stream ~seed ~site ~counter)

(* ------------------------------------------------------------------ *)
(* Injector: per-site counters + transcript *)

type effect =
  | Failed
  | Timed_out
  | Evicted
  | Noised of float  (** the delta applied to the observed value *)
  | Delayed of float  (** simulated latency, in cost-model time units *)

type event = { site : string; index : int; effect : effect }

type injector = {
  plan : plan;
  counters : (string, int ref) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable latency_total : float;
}

let injector plan =
  { plan; counters = Hashtbl.create 8; events = []; latency_total = 0. }

let tick inj site =
  match Hashtbl.find_opt inj.counters site with
  | Some r ->
      incr r;
      !r
  | None ->
      Hashtbl.add inj.counters site (ref 0);
      0

let record inj site index effect =
  (match effect with
  | Failed -> Obs.add m_failures 1
  | Timed_out -> Obs.add m_timeouts 1
  | Evicted -> Obs.add m_evictions 1
  | Noised _ -> Obs.add m_noised 1
  | Delayed _ -> Obs.add m_delayed 1);
  inj.events <- { site; index; effect } :: inj.events

let transcript inj = List.rev inj.events

let latency_total inj = inj.latency_total

let reset inj =
  Hashtbl.reset inj.counters;
  inj.events <- [];
  inj.latency_total <- 0.

(* Count events per effect kind, deterministically ordered. *)
let summary inj =
  let bump key acc =
    match List.assoc_opt key acc with
    | Some n -> (key, n + 1) :: List.remove_assoc key acc
    | None -> (key, 1) :: acc
  in
  let key = function
    | Failed -> "failures"
    | Timed_out -> "timeouts"
    | Evicted -> "cache evictions"
    | Noised _ -> "noised observations"
    | Delayed _ -> "delayed calls"
  in
  List.fold_left (fun acc e -> bump (key e.effect) acc) [] inj.events
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Applying a plan at a call site *)

(* One injection pass over an observed value.  Models apply in plan
   order; a Failure or Timeout aborts the call (the value is lost, as a
   failed RPC loses its response), noise perturbs the value, latency
   accrues simulated time.  Cache_loss is not interpreted here — it only
   makes sense for caching callers, which consult {!evicts}. *)
let apply inj ~site value =
  let index = tick inj site in
  let st = stream ~seed:inj.plan.seed ~site ~counter:index in
  let rec go value latency = function
    | [] ->
        if latency > 0. then begin
          inj.latency_total <- inj.latency_total +. latency;
          record inj site index (Delayed latency)
        end;
        Ok value
    | Failure p :: rest ->
        if next_uniform st < p then begin
          record inj site index Failed;
          Error `Failed
        end
        else go value latency rest
    | Timeout p :: rest ->
        if next_uniform st < p then begin
          record inj site index Timed_out;
          Error `Timed_out
        end
        else go value latency rest
    | Cache_loss _ :: rest ->
        (* interpreted by [evicts]; consume no randomness here so the
           draw sequence matches the model list either way *)
        go value latency rest
    | Additive_noise sigma :: rest ->
        let d = sigma *. next_gaussian st in
        if not (Float.equal d 0.) then record inj site index (Noised d);
        go (value +. d) latency rest
    | Multiplicative_noise sigma :: rest ->
        let d = value *. sigma *. next_gaussian st in
        if not (Float.equal d 0.) then record inj site index (Noised d);
        go (value +. d) latency rest
    | Latency { mean; jitter } :: rest ->
        let u = next_uniform st in
        let delay = Float.max 0. (mean *. (1. +. (jitter *. ((2. *. u) -. 1.)))) in
        go value (latency +. delay) rest
  in
  go value 0. inj.plan.models

let apply_opt inj ~site value =
  match inj with None -> Ok value | Some inj -> apply inj ~site value

(* Should this call lose its cached entry?  Consulted by caching layers
   (the narrow interface's plan cache) before the lookup. *)
let evicts inj ~site =
  let p =
    List.fold_left
      (fun acc -> function Cache_loss p -> Float.max acc p | _ -> acc)
      0. inj.plan.models
  in
  if p <= 0. then false
  else begin
    let index = tick inj (site ^ "#evict") in
    let hit = uniform ~seed:inj.plan.seed ~site:(site ^ "#evict") ~counter:index < p in
    if hit then record inj site index Evicted;
    hit
  end

let evicts_opt inj ~site =
  match inj with None -> false | Some inj -> evicts inj ~site

(* Device-flavoured interpretation: a failure or timeout on a storage
   device shows up as the driver retrying the I/O (the page still
   arrives), and the latency models as simulated service time.  Returns
   whether the I/O was retried and the latency it accrued. *)
let io_outcome inj ~site =
  let index = tick inj site in
  let st = stream ~seed:inj.plan.seed ~site ~counter:index in
  let retried = ref false and latency = ref 0. in
  List.iter
    (fun model ->
      match model with
      | Failure p | Timeout p ->
          if next_uniform st < p then begin
            retried := true;
            record inj site index
              (match model with Timeout _ -> Timed_out | _ -> Failed)
          end
      | Cache_loss _ -> ()
      | Additive_noise sigma ->
          latency := !latency +. Float.abs (sigma *. next_gaussian st)
      | Multiplicative_noise _ ->
          (* meaningless for counting devices; consume the draw so the
             stream stays aligned with [apply] *)
          ignore (next_gaussian st)
      | Latency { mean; jitter } ->
          let u = next_uniform st in
          latency :=
            !latency
            +. Float.max 0. (mean *. (1. +. (jitter *. ((2. *. u) -. 1.)))))
    inj.plan.models;
  if !latency > 0. then begin
    inj.latency_total <- inj.latency_total +. !latency;
    record inj site index (Delayed !latency)
  end;
  (!retried, !latency)

(* ------------------------------------------------------------------ *)
(* Retry with seeded exponential backoff + jitter and a deadline *)

module Retry = struct
  type policy = {
    max_attempts : int;
    base_backoff : float;
    multiplier : float;
    jitter : float;
    full_jitter : bool;
    deadline : float;
  }

  let none =
    { max_attempts = 1; base_backoff = 0.; multiplier = 2.; jitter = 0.;
      full_jitter = false; deadline = Float.infinity }

  let default =
    { max_attempts = 4; base_backoff = 1.; multiplier = 2.; jitter = 0.5;
      full_jitter = false; deadline = 1000. }

  let with_attempts attempts = function
    | Probe_failed { site; _ } -> Probe_failed { site; attempts }
    | Probe_timeout { site; _ } -> Probe_timeout { site; attempts }
    | e -> e

  (* The virtual sleep before attempt [attempt + 1].  [cap] is the
     un-jittered exponential schedule; full jitter draws uniformly from
     [0, cap] (the AWS "full jitter" scheme — decorrelates retry storms
     while never exceeding the cap), the scaled mode stretches the cap by
     a factor in [1, 1 + jitter].  Both draw from the same seeded stream,
     so a schedule is a pure function of (policy, seed, site). *)
  let backoff_for policy ~seed ~site ~attempt =
    let u = uniform ~seed ~site:(site ^ "#backoff") ~counter:attempt in
    let cap =
      policy.base_backoff *. (policy.multiplier ** Float.of_int (attempt - 1))
    in
    if policy.full_jitter then cap *. u
    else cap *. (1. +. (policy.jitter *. u))

  (* [run policy ~seed ~site f] calls [f ~attempt] (1-based) until it
     succeeds, fails fatally, exhausts [max_attempts], or blows the
     backoff deadline.  Time is virtual: the accumulated backoff is
     checked against [deadline], making timeouts deterministic. *)
  let run policy ~seed ~site f =
    if policy.max_attempts < 1 then
      invalid_arg "Fault.Retry.run: max_attempts must be >= 1";
    let rec go attempt clock =
      match f ~attempt with
      | Ok v -> Ok v
      | Error e when not (transient e) -> Error e
      | Error e ->
          if attempt >= policy.max_attempts then begin
            Obs.add m_retry_giveups 1;
            Error (with_attempts attempt e)
          end
          else begin
            Obs.add m_retry_backoffs 1;
            let backoff = backoff_for policy ~seed ~site ~attempt in
            let clock = clock +. backoff in
            if clock > policy.deadline then begin
              Obs.add m_retry_giveups 1;
              Error (Probe_timeout { site; attempts = attempt })
            end
            else go (attempt + 1) clock
          end
    in
    go 1 0.
end

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    threshold : int;
    cooldown : int;
    mutable state : state;
    mutable consecutive : int;
    mutable remaining : int;  (* rejected calls left while Open *)
    mutable trips : int;
  }

  let create ?(threshold = 5) ?(cooldown = 8) () =
    if threshold < 1 then invalid_arg "Fault.Breaker.create: threshold < 1";
    if cooldown < 1 then invalid_arg "Fault.Breaker.create: cooldown < 1";
    { threshold; cooldown; state = Closed; consecutive = 0; remaining = 0;
      trips = 0 }

  let state t = t.state
  let consecutive_failures t = t.consecutive
  let trips t = t.trips

  (* May this call proceed?  While Open, each denied call counts toward
     the cooldown; once it elapses the breaker goes Half_open and lets
     one trial call through. *)
  let acquire t =
    match t.state with
    | Closed | Half_open -> true
    | Open ->
        t.remaining <- t.remaining - 1;
        if t.remaining <= 0 then begin
          t.state <- Half_open;
          true
        end
        else false

  let trip t =
    t.state <- Open;
    t.remaining <- t.cooldown;
    t.trips <- t.trips + 1;
    Obs.add m_breaker_trips 1;
    Obs.instant "breaker.trip"

  let record_success t =
    t.consecutive <- 0;
    match t.state with Half_open -> t.state <- Closed | _ -> ()

  let record_failure t =
    t.consecutive <- t.consecutive + 1;
    match t.state with
    | Half_open -> trip t
    | Closed -> if t.consecutive >= t.threshold then trip t
    | Open -> ()
end
