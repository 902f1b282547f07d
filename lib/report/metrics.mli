(** ASCII rendering of the [Qsens_obs] metrics snapshot (the [--metrics]
    flag): one row per metric that recorded data, merged across tracks in
    deterministic order. *)

val print : ?out:out_channel -> unit -> unit
