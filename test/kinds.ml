(* A metrics-only sink: exact counters, no trace retained. *)
let sink () = Repro_obs.Obs.create ~max_events:0 ()

(* Messages per kind, read from the [net.kind_msgs.<kind>] counters of the
   sink a network records into: only kinds that were sent appear, sorted
   by kind. *)
let sent obs =
  let prefix = "net.kind_msgs." in
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        Some (String.sub name (String.length prefix) (String.length name - String.length prefix), v)
      else None)
    (Repro_obs.Obs.counters obs)
