(* The workloads. Each one drives the simulator only through public entry
   points (Experiment.stage, Shard.plan/run_planned, Campaign.stage and
   run_one, Replay.record_nemesis/load/verify) and times or counts each
   layer at the calls it makes into it.

   An op is one sealed simulation of one stack. The workload seed fixes
   the list of cells (the distinct ops); a round runs every cell once, and
   rounds repeat back to back until the run's time is up. Every repeat of
   a cell must reproduce the simulated summary of its first execution. An
   untimed correctness pass over the same cells runs after the timed
   rounds, so that its memory and time stay out of the measurements. *)

open Repro_sim
open Repro_net
open Repro_core
open Repro_workload
module Obs = Repro_obs.Obs
module Jsonl = Repro_obs.Jsonl
module Campaign = Repro_fault.Campaign
module Monitor = Repro_fault.Monitor
module Schedule = Repro_fault.Schedule
module Shard = Repro_shard.Shard
module Replay = Repro_replay.Replay
module Critical_path = Repro_analysis.Critical_path

let stacks = [ Replica.Modular; Replica.Indirect; Replica.Monolithic ]
let stack_name = Experiment.kind_name
let now = Unix.gettimeofday
let span_of_s s = Time.span_ns (int_of_float (s *. 1e9))

type op = {
  cell : int;  (** Index of the distinct op in the workload's cell list. *)
  stack : Replica.kind;
  traced : bool;  (** Timed with spans recorded. *)
  wall_s : float;
  setup_s : float;  (** Op start to its first simulated event. *)
  loop_s : float;  (** Inside the engine loop (or Shard.run_planned). *)
  events : int;
  words : float;  (** Minor words allocated by the op. *)
  summary : string;  (** Simulated outputs; repeats must match exactly. *)
  failure : string option;
  sim_latency_ms : float;
  sim_throughput : float;
  layer : (string * float) list;  (** Per-op per-layer values. *)
}

type outcome = {
  ops : op list;  (** Every timed op, oldest first. *)
  reproducible : bool;  (** Every repeat and check reproduced its cell. *)
  peak_heap_words : int;  (** Major heap peak when the timed rounds ended. *)
  extra : (string * float) list;  (** Per-layer values from probes. *)
}

(* ---- Timing an op ---- *)

type clock = { t0 : float; w0 : float }

let start () =
  let w0 = Gc.minor_words () in
  { t0 = now (); w0 }

let timed f =
  let t = now () in
  let v = f () in
  (v, now () -. t)

(* Run staged milestones back to back, as Experiment.run_raw and
   Campaign.run_one do, timing each engine stretch. *)
let run_milestones tr ~layer engine milestones =
  List.fold_left
    (fun loop (at, act) ->
      let (), dt =
        timed (fun () ->
            Tracer.span tr ~layer:"sim" "engine.run_until" (fun () -> Engine.run_until engine at))
      in
      Tracer.span tr ~layer "milestone" act;
      loop +. dt)
    0.0 milestones

let finish clock ~stack ~setup_end ~loop_s ~events ~summary ~failure ~sim_latency_ms
    ~sim_throughput ~layer =
  let t1 = now () in
  let w1 = Gc.minor_words () in
  {
    cell = -1;
    stack;
    traced = false;
    wall_s = t1 -. clock.t0;
    setup_s = setup_end -. clock.t0;
    loop_s;
    events;
    words = w1 -. clock.w0;
    summary;
    failure;
    sim_latency_ms;
    sim_throughput;
    layer;
  }

(* ---- Rounds ---- *)

let next_op = ref 0

(* Rounds of [cells] until the run is as close to [seconds] as whole
   rounds allow, at least one. Before each op: the calibration reference
   when it is due, and a full major collection, so every op starts from
   the same collected heap and pays for its own garbage only. In a traced
   run, tracing alternates from op to op and from round to round, so that
   each stack's ops are timed with and without spans even in one round. *)
let rounds tr ~seconds cells =
  let cells = Array.of_list cells in
  let reference = Array.make (Array.length cells) None in
  let t0 = now () in
  let all = ref [] and reproducible = ref true in
  let round = ref 0 and round_s = ref 0.0 in
  Calibration.measure ();
  while !round = 0 || now () -. t0 +. (!round_s /. 2.0) < seconds do
    let r0 = now () in
    Array.iteri
      (fun cell f ->
        let traced = Tracer.enabled tr && (!round + cell) mod 2 = 0 in
        Tracer.set_active tr traced;
        Calibration.tick ();
        Gc.full_major ();
        incr next_op;
        let o =
          Tracer.in_op tr !next_op (fun () -> Tracer.span tr ~layer:"bench" "op" f)
        in
        let o = { o with cell; traced } in
        let o =
          match reference.(cell) with
          | None ->
            reference.(cell) <- Some o.summary;
            o
          | Some s when String.equal s o.summary -> o
          | Some s ->
            reproducible := false;
            {
              o with
              failure = Some (Printf.sprintf "summary %S differs from the first run's %S" o.summary s);
            }
        in
        all := o :: !all)
      cells;
    round_s := now () -. r0;
    incr round
  done;
  Tracer.set_active tr (Tracer.enabled tr);
  (List.rev !all, !reproducible, (Gc.quick_stat ()).Gc.top_heap_words)

(* Fail every timed op on which [check] reports a failure. *)
let fail_ops ops check =
  List.map
    (fun o -> match o.failure with Some _ -> o | None -> { o with failure = check o })
    ops

(* ---- Per-layer values ---- *)

(* Counters read back from a sink's exported metric lines. *)
let counters_of_lines lines =
  List.filter_map
    (fun line ->
      match Jsonl.parse line with
      | Ok j when Jsonl.to_string_opt (Jsonl.member "type" j) = Some "counter" -> (
        match
          (Jsonl.to_string_opt (Jsonl.member "name" j), Jsonl.to_int_opt (Jsonl.member "value" j))
        with
        | Some name, Some v -> Some (name, float_of_int v)
        | _ -> None)
      | _ -> None)
    lines

let counter counters name = Option.value ~default:0.0 (List.assoc_opt name counters)

let prefixed prefix counters =
  List.fold_left
    (fun acc (name, v) -> if String.starts_with ~prefix name then acc +. v else acc)
    0.0 counters

(* Per-op layer values from one sink's counters. [n] is the group size:
   every process counts its own decisions. *)
let counter_layer ~n counters =
  let msgs = prefixed "net.msgs." counters in
  let retrans = counter counters "rchannel.retransmissions" in
  let dropped = counter counters "net.dropped_msgs" in
  let instances = counter counters "consensus.decisions" /. float_of_int n in
  [
    ("net.msgs_per_op", msgs);
    ("rchannel.retransmissions", retrans);
    ("rchannel.duplicates", counter counters "rchannel.duplicates");
    ("net.dropped_msgs", dropped);
    ("net.useful_send_ratio", if msgs > 0.0 then (msgs -. retrans -. dropped) /. msgs else 1.0);
    ( "fd.estimates_per_instance",
      if instances > 0.0 then counter counters "consensus.estimates" /. instances else 0.0 );
    ("core.decisions_per_op", counter counters "consensus.decisions");
    ("core.relays_per_op", counter counters "rbcast.relays");
    ("core.adelivers_per_op", counter counters "abcast.adelivers");
  ]

(* Export a sink's metric lines (timed) and read its counters back. *)
let export tr ~n obs =
  let lines, export_s =
    timed (fun () ->
        Tracer.span tr ~layer:"obs" "jsonl.metric_lines" (fun () -> Jsonl.metric_lines obs))
  in
  (("obs.export_s", export_s) :: counter_layer ~n (counters_of_lines lines), lines)

(* The median of every per-layer value over a list of ops' values. *)
let medians layers =
  let names = List.sort_uniq compare (List.concat_map (List.map fst) layers) in
  List.map
    (fun name -> (name, Sample.median (List.filter_map (List.assoc_opt name) layers)))
    names

let layer_medians ops = medians (List.map (fun o -> o.layer) ops)

let of_stack kind f ops = List.filter_map (fun o -> if o.stack = kind then Some (f o) else None) ops
let words_per_event o = o.words /. float_of_int (max 1 o.events)

(* A sink's cost: sink-on ÷ sink-off host time, and extra minor words
   per event, each pairing an op of one kind with the median of the same
   stack's ops of the other. *)
let sink_overhead ~with_sink ~without =
  let pair f = List.map (fun p -> f p (of_stack p.stack Fun.id without)) with_sink in
  let ratios = pair (fun p base -> p.wall_s /. Sample.median (List.map (fun o -> o.wall_s) base)) in
  let words =
    pair (fun p base -> words_per_event p -. Sample.median (List.map words_per_event base))
  in
  [ ("obs.metrics_overhead", Sample.median ratios); ("obs.metrics_words_per_event", Sample.median words) ]

(* ---- Correctness ---- *)

(* After a monitored good run: let every message in flight drain, then
   check agreement and liveness on top of the online safety checks.
   Returns the first violation. *)
let final_check tr group mon ~n =
  let quiescent =
    Tracer.span tr ~layer:"core" "group.run_until_quiescent" (fun () ->
        Group.run_until_quiescent group ~limit:(Time.span_s 60) ())
  in
  if quiescent then Monitor.check_final mon ~correct:(Pid.all ~n) ();
  match (quiescent, Monitor.violations mon) with
  | _, v :: _ -> Some (Fmt.str "%a" Monitor.pp_violation v)
  | false, [] -> Some "still busy 60 virtual seconds after the load stopped"
  | true, [] -> None

(* ---- paper-n7 ---- *)

module Paper_n7 = struct
  let n = 7

  let config kind seed =
    Experiment.config ~kind ~n ~offered_load:2000.0 ~size:1024 ~warmup_s:1.0 ~measure_s:9.0 ~seed
      ~arrival:Generator.Poisson ()

  let summary (r : Experiment.result) =
    Printf.sprintf "events=%d lat=%h tput=%h msgs/inst=%h bytes/inst=%h" r.Experiment.events_executed
      r.Experiment.early_latency_ms.Repro_obs.Stats.mean r.Experiment.throughput
      r.Experiment.msgs_per_instance r.Experiment.bytes_per_instance

  let op tr ?(obs = Obs.noop) kind seed () =
    let clock = start () in
    let st, stage_s =
      timed (fun () ->
          Tracer.span tr ~layer:"workload" "experiment.stage" (fun () ->
              Experiment.stage ~obs (config kind seed)))
    in
    let setup_end = now () in
    let engine = Group.engine st.Experiment.st_group in
    let loop_s = run_milestones tr ~layer:"workload" engine st.Experiment.st_milestones in
    let (_, r), summarize_s =
      timed (fun () ->
          Tracer.span tr ~layer:"workload" "experiment.summarize" st.Experiment.st_result)
    in
    finish clock ~stack:kind ~setup_end ~loop_s ~events:r.Experiment.events_executed
      ~summary:(summary r) ~failure:None
      ~sim_latency_ms:r.Experiment.early_latency_ms.Repro_obs.Stats.mean
      ~sim_throughput:r.Experiment.throughput
      ~layer:
        [
          ("workload.stage_s", stage_s);
          ("workload.summarize_s", summarize_s);
          ("sim.cpu_utilization", r.Experiment.cpu_utilization);
          ("net.msgs_per_instance", r.Experiment.msgs_per_instance);
          ("net.bytes_per_instance", r.Experiment.bytes_per_instance);
          ("framework.crossings_per_msg", r.Experiment.boundary_crossings_per_msg);
          ("core.mean_batch", r.Experiment.mean_batch);
        ]

  (* Untimed: the same simulation with the invariant monitor attached,
     then run to quiescence so agreement and liveness can be checked.
     Attaching the monitor must not change the simulated summary. *)
  let monitored tr kind seed =
    Tracer.span tr ~layer:"fault" "monitored_run" (fun () ->
        let mon = Monitor.create ~seed ~n () in
        let group = ref None in
        let _, r =
          Experiment.run_raw
            ~on_group:(fun g ->
              group := Some g;
              Monitor.attach mon g)
            (config kind seed)
        in
        (summary r, final_check tr (Option.get !group) mon ~n))

  let run tr ~seed ~seconds =
    let ops, reproducible, peak = rounds tr ~seconds (List.map (fun kind -> op tr kind seed) stacks) in
    let checked = Array.of_list (List.map (fun kind -> monitored tr kind seed) stacks) in
    let differs o = not (String.equal (fst checked.(o.cell)) o.summary) in
    let ops =
      fail_ops ops (fun o ->
          if differs o then
            Some (Printf.sprintf "summary %S differs from the monitored run's %S" o.summary
                    (fst checked.(o.cell)))
          else snd checked.(o.cell))
    in
    let extra =
      if not (Tracer.enabled tr) then []
      else begin
        (* One metrics-only-sink op per stack: counters, the sink's cost
           and its export. *)
        let probes =
          List.map
            (fun kind ->
              let obs = Obs.create ~max_events:0 () in
              let o = op tr ~obs kind seed () in
              { o with layer = fst (export tr ~n obs) })
            stacks
        in
        (* One op (modular) with a tracing sink: the sink's tracing cost,
           and the critical-path analysis of the spans it kept. *)
        let obs = Obs.create ~max_events:50_000 () in
        let traced_sink = op tr ~obs Replica.Modular seed () in
        let _, cp_s =
          timed (fun () ->
              Tracer.span tr ~layer:"analysis" "critical_path.of_spans" (fun () ->
                  Critical_path.of_spans ~pid:0 (Obs.spans obs)))
        in
        [
          ( "obs.trace_overhead",
            traced_sink.wall_s
            /. Sample.median (of_stack Replica.Modular (fun o -> o.wall_s) ops) );
          ("analysis.critical_path_s", cp_s);
        ]
        @ layer_medians probes
        @ sink_overhead ~with_sink:probes ~without:ops
      end
    in
    { ops; reproducible = reproducible && not (List.exists differs ops); peak_heap_words = peak; extra }
end

(* ---- sharded-hot ---- *)

module Sharded_hot = struct
  let shards = 64
  let clients = 1_000_000
  let per_shard_load = 3000.0
  let n = 3
  let warmup_s = 0.25
  let measure_s = 1.0

  (* The hot cell's population: Zipf tail, diurnal swing, one mid-window
     flash crowd and 5 % cross-shard requests. *)
  let profile =
    let horizon_s = warmup_s +. measure_s in
    Population.profile ~clients
      ~rate_per_client:(per_shard_load *. float_of_int shards /. float_of_int clients)
      ~tail_alpha:1.1 ~diurnal_amp:0.25 ~diurnal_period_s:horizon_s
      ~flashes:
        [
          {
            Population.flash_at_s = warmup_s +. (measure_s /. 2.0);
            flash_dur_s = measure_s /. 5.0;
            flash_mult = 1.5;
          };
        ]
      ~cross_fraction:0.05 ()

  let config kind seed = Shard.config ~kind ~shards ~n ~profile ~warmup_s ~measure_s ~seed ()

  let op tr ?(sink = true) kind seed () =
    let clock = start () in
    let cfg = config kind seed in
    let w_plan = Gc.minor_words () in
    let plan, plan_s =
      timed (fun () -> Tracer.span tr ~layer:"workload" "shard.plan" (fun () -> Shard.plan cfg))
    in
    let plan_words = Gc.minor_words () -. w_plan in
    let obs = if sink then Obs.create ~max_events:0 () else Obs.noop in
    let setup_end = now () in
    let r, run_s =
      timed (fun () ->
          Tracer.span tr ~layer:"shard" "shard.run_planned" (fun () ->
              Shard.run_planned ~jobs:1 ~obs cfg plan))
    in
    let exported, lines = export tr ~n obs in
    let events = r.Shard.events_executed in
    let per_shard f =
      Sample.sum (Array.to_list (Array.map f r.Shard.per_shard))
      /. float_of_int (Array.length r.Shard.per_shard)
    in
    let msgs_per_instance = per_shard (fun e -> e.Experiment.msgs_per_instance) in
    let summary =
      Printf.sprintf "events=%d total=%d cross=%d lat=%h cross_lat=%h tput=%h msgs/inst=%h metrics=%s"
        events r.Shard.plan_total r.Shard.plan_cross r.Shard.latency_ms.Repro_obs.Stats.mean
        r.Shard.cross_latency_ms.Repro_obs.Stats.mean r.Shard.throughput msgs_per_instance
        (Digest.to_hex (Digest.string (String.concat "\n" lines)))
    in
    finish clock ~stack:kind ~setup_end ~loop_s:run_s ~events ~summary ~failure:None
      ~sim_latency_ms:r.Shard.latency_ms.Repro_obs.Stats.mean ~sim_throughput:r.Shard.throughput
      ~layer:
        ([
           ("workload.plan_s", plan_s);
           ("workload.plan_words", plan_words);
           ("shard.run_s", run_s);
           ("shard.ns_per_event", run_s *. 1e9 /. float_of_int (max 1 events));
           ("shard.cross_requests", float_of_int r.Shard.plan_cross);
           ("sim.cpu_utilization", per_shard (fun e -> e.Experiment.cpu_utilization));
           ("net.msgs_per_instance", msgs_per_instance);
           ("net.bytes_per_instance", per_shard (fun e -> e.Experiment.bytes_per_instance));
           ("framework.crossings_per_msg", per_shard (fun e -> e.Experiment.boundary_crossings_per_msg));
           ("core.mean_batch", per_shard (fun e -> e.Experiment.mean_batch));
         ]
        @ if sink then exported else [])

  (* Untimed: every shard world rebuilt from the same plan through the
     group and script entry points, with a monitor attached, then run to
     quiescence. Returns the summed events at the horizon, which the timed
     ops must reproduce, and the first violation. *)
  let monitored tr kind seed =
    Tracer.span tr ~layer:"fault" "monitored_run" (fun () ->
        let plan = Shard.plan (config kind seed) in
        let horizon = Time.add Time.zero (span_of_s (warmup_s +. measure_s)) in
        let events = ref 0 and failure = ref None in
        for s = 0 to shards - 1 do
          let params = { (Params.default ~n) with Params.seed = seed + s } in
          let group =
            Tracer.span tr ~layer:"core" "group.create" (fun () ->
                Group.create ~kind ~params ~fd_mode:`Good_run ~record_deliveries:false ())
          in
          let mon = Monitor.create ~seed:(seed + s) ~n () in
          Monitor.attach mon group;
          let script =
            Script.attach group ~arrivals:plan.Population.scripts.(s) ~loop:Population.Open
          in
          Engine.run_until (Group.engine group) horizon;
          Script.stop script;
          events := !events + Engine.events_executed (Group.engine group);
          match (!failure, final_check tr group mon ~n) with
          | None, Some f -> failure := Some (Printf.sprintf "shard %d: %s" s f)
          | _ -> ()
        done;
        (!events, !failure))

  let run tr ~seed ~seconds =
    let ops, reproducible, peak = rounds tr ~seconds (List.map (fun kind -> op tr kind seed) stacks) in
    let checked = Array.of_list (List.map (fun kind -> monitored tr kind seed) stacks) in
    let differs o = fst checked.(o.cell) <> o.events in
    let ops =
      fail_ops ops (fun o ->
          if differs o then
            Some
              (Printf.sprintf "%d events, the monitored worlds executed %d" o.events
                 (fst checked.(o.cell)))
          else snd checked.(o.cell))
    in
    let extra =
      if not (Tracer.enabled tr) then []
      else
        (* The timed ops carry a sink; the same ops without one give the
           sink's cost. *)
        let without = List.map (fun kind -> op tr ~sink:false kind seed ()) stacks in
        sink_overhead ~with_sink:ops ~without
    in
    { ops; reproducible = reproducible && not (List.exists differs ops); peak_heap_words = peak; extra }
end

(* ---- faults-n5 ---- *)

module Faults_n5 = struct
  let n = 5
  let offered_load = 600.0
  let horizon = Time.span_ms 2000
  let settle_s = 5.0
  let trials = 240
  let every_ns = 500_000_000

  let schedule tr seed =
    Tracer.span tr ~layer:"fault" "campaign.random_schedule" (fun () ->
        Campaign.random_schedule ~adversary:true (Rng.create ~seed) ~n ~horizon)

  (* Deliveries at the first correct process per virtual second of
     offered load. *)
  let throughput schedule (v : Campaign.verdict) =
    let load = Time.span_add (Schedule.duration schedule) (Time.span_ms 200) in
    float_of_int v.Campaign.delivered /. (Time.span_to_ms_float load /. 1e3)

  (* One campaign trial: the schedule draw and staging are its set-up. *)
  let op tr ?(obs = Obs.noop) kind seed () =
    let clock = start () in
    let schedule, schedule_s = timed (fun () -> schedule tr seed) in
    let st, stage_s =
      timed (fun () ->
          Tracer.span tr ~layer:"fault" "campaign.stage" (fun () ->
              Campaign.stage ~kind ~n ~seed ~schedule ~offered_load ~settle_s ~obs ()))
    in
    let setup_end = now () in
    let engine = Group.engine st.Campaign.ca_group in
    let loop_s = run_milestones tr ~layer:"fault" engine st.Campaign.ca_milestones in
    let v = Tracer.span tr ~layer:"fault" "campaign.result" st.Campaign.ca_result in
    let degradation =
      Tracer.span tr ~layer:"fault" "monitor.classify" (fun () ->
          Monitor.classify st.Campaign.ca_monitor)
    in
    let events = Engine.events_executed engine in
    let failure =
      match v.Campaign.outcome with
      | Campaign.Pass -> None
      | Campaign.Fail viol ->
        Some (Fmt.str "%s seed %d: %a" (stack_name kind) seed Monitor.pp_violation viol)
    in
    finish clock ~stack:kind ~setup_end ~loop_s ~events
      ~summary:(Printf.sprintf "events=%d %s" events (Campaign.verdict_line v))
      ~failure ~sim_latency_ms:v.Campaign.mean_latency_ms ~sim_throughput:(throughput schedule v)
      ~layer:
        [
          ("fault.schedule_s", schedule_s);
          ("fault.stage_s", stage_s);
          ("fault.violations", float_of_int (List.length (Monitor.violations st.Campaign.ca_monitor)));
          ("fault.safe_stalls", if degradation = Monitor.Safe_stall then 1.0 else 0.0);
        ]

  (* Untimed: one trial recorded into a frame log at a fixed virtual
     cadence, loaded back and verified from every frame. A divergence, or
     a recorded verdict that differs from Campaign.run_one's on the same
     trial, is a failure. Also returns the replay layer's values. *)
  let replayed tr ~dir kind seed =
    let schedule = schedule tr seed in
    let plain, plain_s =
      timed (fun () ->
          Tracer.span tr ~layer:"fault" "campaign.run_one" (fun () ->
              Campaign.run_one ~kind ~n ~seed ~schedule ~offered_load ~settle_s ()))
    in
    let path = Filename.concat dir (Printf.sprintf "replay-%s-%d.rlog" (stack_name kind) seed) in
    let replay name f = timed (fun () -> Tracer.span tr ~layer:"replay" name f) in
    let recorded, record_s =
      replay "replay.record_nemesis" (fun () ->
          Replay.record_nemesis ~kind ~n ~seed ~schedule ~offered_load ~settle_s ~every_ns ~path ())
    in
    let bytes = (Unix.stat path).Unix.st_size in
    let log, load_s = replay "replay.load" (fun () -> Replay.load path) in
    let divergences, verify_s = replay "replay.verify" (fun () -> Replay.verify log) in
    Sys.remove path;
    let frames = float_of_int (max 1 (Replay.frame_count log)) in
    let failure =
      match divergences with
      | d :: _ ->
        Some
          (Printf.sprintf "%s seed %d: replay diverged at frame %d in %s: %s" (stack_name kind)
             seed d.Replay.d_frame d.Replay.d_stream d.Replay.d_detail)
      | [] ->
        let a = Campaign.verdict_line plain and b = Campaign.verdict_line recorded in
        if String.equal a b then None
        else
          Some
            (Printf.sprintf "%s seed %d: recorded verdict %s differs from plain %s"
               (stack_name kind) seed b a)
    in
    ( failure,
      [
        ("replay.record_s", record_s);
        ("replay.frames", frames);
        ("replay.bytes_per_frame", float_of_int bytes /. frames);
        ("replay.record_s_per_frame", (record_s -. plain_s) /. frames);
        ("replay.load_s", load_s);
        ("replay.verify_s_per_frame", verify_s /. frames);
        ("replay.divergences", float_of_int (List.length divergences));
      ] )

  let run tr ~dir ~seed ~seconds =
    let seeds = List.init trials (fun i -> 1 + (seed * trials) + i) in
    let cells = List.concat_map (fun s -> List.map (fun kind -> (kind, s)) stacks) seeds in
    let ops, reproducible, peak =
      rounds tr ~seconds (List.map (fun (kind, s) -> op tr kind s) cells)
    in
    (* The first trial seed's cells, one per stack, are the first cells. *)
    let replays = Array.of_list (List.map (fun kind -> replayed tr ~dir kind (List.hd seeds)) stacks) in
    let ops =
      fail_ops ops (fun o -> if o.cell < Array.length replays then fst replays.(o.cell) else None)
    in
    let replays_ok = Array.for_all (fun (failure, _) -> failure = None) replays in
    let extra =
      if not (Tracer.enabled tr) then []
      else begin
        (* Every cell once more with a metrics-only sink: the transport,
           detector and protocol counters, and the sink's cost. *)
        let probes =
          List.map
            (fun (kind, s) ->
              let obs = Obs.create ~max_events:0 () in
              let o = op tr ~obs kind s () in
              { o with layer = fst (export tr ~n obs) })
            cells
        in
        layer_medians probes
        @ medians (Array.to_list (Array.map snd replays))
        @ sink_overhead ~with_sink:probes ~without:ops
      end
    in
    { ops; reproducible = reproducible && replays_ok; peak_heap_words = peak; extra }
end
