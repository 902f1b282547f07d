(* Counter totals for the bit-identity properties: two engines that
   should do the same work must also report it the same way. *)

module Obs = Qsens_obs.Obs

(* [run names f] runs [f] with metrics recording on and returns its
   outcome (or the exception it raised, printed) with the totals of the
   counters [names], in order. *)
let run names f =
  Obs.start ();
  let outcome, snap =
    Fun.protect ~finally:Obs.stop (fun () ->
        let outcome =
          match f () with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        (outcome, Obs.snapshot ()))
  in
  let total name =
    List.fold_left
      (fun acc (m, v) ->
        match v with
        | Obs.Vcount n when String.equal (Obs.name m) name -> acc + n
        | _ -> acc)
      0 snap
  in
  (outcome, List.map total names)
