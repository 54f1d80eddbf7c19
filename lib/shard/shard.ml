open Repro_core
open Repro_workload
module Obs = Repro_obs.Obs
module Time = Repro_sim.Time
module Stats = Repro_obs.Stats

type config = {
  kind : Replica.kind;
  shards : int;
  n : int;
  profile : Population.profile;
  warmup_s : float;
  measure_s : float;
  seed : int;
  params : Params.t option;
}

let config ~kind ~shards ~n ~profile ?(warmup_s = 2.0) ?(measure_s = 8.0)
    ?(seed = 0) ?params () =
  if shards < 1 then invalid_arg "Shard.config: shards must be >= 1";
  if n < 1 then invalid_arg "Shard.config: n must be >= 1";
  { kind; shards; n; profile; warmup_s; measure_s; seed; params }

type result = {
  config : config;
  plan_total : int;
  plan_cross : int;
  per_shard : Experiment.result array;
  latency_ms : Stats.summary;
  cross_latency_ms : Stats.summary;
  throughput : float;
  events_executed : int;
}

let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))

let plan config =
  let horizon_s = config.warmup_s +. config.measure_s in
  let route ~key = Router.shard_of_key ~shards:config.shards key in
  match config.profile.Population.loop with
  | Population.Open ->
    Population.plan ~seed:config.seed config.profile ~route
      ~shards:config.shards ~horizon_s
  | Population.Closed { think_s } ->
    Population.plan_closed ~seed:config.seed config.profile ~route
      ~shards:config.shards ~think_s ~horizon_s

(* Shards are fully independent event worlds — each gets its own engine,
   network and group, seeded [seed + shard] — so they fan out across the
   domain pool exactly like repeats and study cells do. [Parmap] absorbs
   the per-shard sinks back into [obs] in shard order, which is what makes
   a sharded run's observable output byte-identical at any [jobs]. *)
let run_planned ?jobs ?(obs = Obs.noop) config plan =
  let outcomes =
    Parmap.map ?jobs ~obs
      (fun ~obs s ->
        Experiment.run_scripted ~obs ~kind:config.kind ~n:config.n
          ?params:config.params ~seed:(config.seed + s)
          ~warmup_s:config.warmup_s ~measure_s:config.measure_s
          ~arrivals:plan.Population.scripts.(s)
          ~loop:config.profile.Population.loop ())
      (List.init config.shards Fun.id)
    |> Array.of_list
  in
  (* The measurement window covers the same virtual instants in every
     shard world, so per-request filtering composes across shards. *)
  let t_start = Time.add Time.zero (span_of_s config.warmup_s) in
  let t_end = Time.add t_start (span_of_s config.measure_s) in
  let window_s = config.measure_s in
  let in_window at = Time.(at >= t_start) && Time.(at <= t_end) in
  let singles = ref [] and cross_lats = ref [] in
  let completed = ref 0 in
  (match config.profile.Population.loop with
  | Population.Closed _ ->
    (* In-world re-offers never appear in the plan, so the plan join would
       only ever see the initial seeded offers. Score the raw in-window
       samples each shard world measured instead (cross-shard traffic is
       unsupported closed-loop, so there is nothing to join). *)
    Array.iter
      (fun (_, lats, _) ->
        List.iter
          (fun l ->
            singles := l :: !singles;
            incr completed)
          lats)
      outcomes
  | Population.Open ->
    (* Cross-shard join: the first leg encountered parks in the table; the
       second completes the request. A cross request counts once, with
       latency max(first_delivery) - min(abcast_at) over its legs — the
       client's view: issued at one instant, done when the slower shard
       delivered. Iteration is shard-ascending then arrival-ascending, so
       the emission order (and hence every float sum downstream) is a pure
       function of the plan, independent of [jobs]. *)
    let pending_cross = Hashtbl.create 256 in
    Array.iteri
      (fun s (resolved, _, _) ->
        Array.iteri
          (fun i outcome ->
            let a = plan.Population.scripts.(s).(i) in
            match outcome with
            | None -> ()
            | Some (ab, del) ->
              if a.Population.remote < 0 then begin
                if in_window ab then begin
                  singles :=
                    Time.span_to_ms_float (Time.diff del ab) :: !singles;
                  incr completed
                end
              end
              else begin
                match Hashtbl.find_opt pending_cross a.Population.req with
                | None -> Hashtbl.add pending_cross a.Population.req (ab, del)
                | Some (ab0, del0) ->
                  Hashtbl.remove pending_cross a.Population.req;
                  let ab = if Time.(ab0 <= ab) then ab0 else ab in
                  let del = if Time.(del0 >= del) then del0 else del in
                  if in_window ab then begin
                    cross_lats :=
                      Time.span_to_ms_float (Time.diff del ab) :: !cross_lats;
                    incr completed
                  end
              end)
          resolved)
      outcomes);
  let per_shard = Array.map (fun (_, _, r) -> r) outcomes in
  {
    config;
    plan_total = plan.Population.total;
    plan_cross = plan.Population.cross;
    per_shard;
    latency_ms = Stats.summarize (List.rev !singles);
    cross_latency_ms = Stats.summarize (List.rev !cross_lats);
    throughput = float_of_int !completed /. window_s;
    events_executed =
      Array.fold_left
        (fun acc (r : Experiment.result) -> acc + r.Experiment.events_executed)
        0 per_shard;
  }

let run ?jobs ?obs config = run_planned ?jobs ?obs config (plan config)

let pp_result ppf r =
  Fmt.pf ppf
    "%-10s shards=%-3d n=%d clients=%-8d | lat %7.3f ±%5.3f ms | cross %7.3f ms \
     (%d reqs) | tput %8.1f/s | events %d"
    (Experiment.kind_name r.config.kind)
    r.config.shards r.config.n r.config.profile.Population.clients
    r.latency_ms.Stats.mean r.latency_ms.Stats.ci95
    r.cross_latency_ms.Stats.mean r.plan_cross r.throughput r.events_executed
