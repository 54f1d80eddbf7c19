(* Host-cost benchmark of the three atomic-broadcast stacks.

     hostbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--out-dir DIR]

   Runs workload W's ops back to back for S seconds and prints, as the
   last line of standard output, one JSON object:
     {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, from a separate run that also writes its spans to
   DIR/spans-W-N.jsonl. Earlier lines describe the tail sample and, one
   per distinct failure, the failed ops ("failed: …"). *)

open Workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("op_s.modular", "s");
    ("op_s.indirect", "s");
    ("op_s.monolithic", "s");
    ("op_s_tail", "s");
    ("events_per_s", "events/s");
    ("alloc_words_per_event", "words");
    ("peak_heap_mb", "MB");
    ("pass_share", "ratio");
    ("sim_latency_ms.modular", "virtual_ms");
    ("sim_latency_ms.indirect", "virtual_ms");
    ("sim_latency_ms.monolithic", "virtual_ms");
    ("sim_throughput.modular", "msgs/virtual_s");
    ("sim_throughput.indirect", "msgs/virtual_s");
    ("sim_throughput.monolithic", "msgs/virtual_s");
  ]

(* Layers whose self time the op spans measure. *)
let span_layers = [ "bench"; "sim"; "workload"; "shard"; "obs"; "fault" ]

let per_layer =
  [
    ("failed_share", "ratio");
    ("sim.events", "count");
    ("sim.loop_s", "s");
    ("sim.ns_per_event", "ns");
    ("sim.queue_ns_per_op", "ns");
    ("sim.cpu_utilization", "ratio");
    ("net.msgs_per_instance", "msgs");
    ("net.bytes_per_instance", "bytes");
    ("net.msgs_per_op", "msgs");
    ("net.ns_per_copy", "ns");
    ("rchannel.retransmissions", "count");
    ("rchannel.duplicates", "count");
    ("net.dropped_msgs", "count");
    ("net.useful_send_ratio", "ratio");
    ("fd.estimates_per_instance", "count");
    ("framework.crossings_per_msg", "count");
    ("framework.emit_ns", "ns");
    ("core.ns_per_event.modular", "ns");
    ("core.ns_per_event.indirect", "ns");
    ("core.ns_per_event.monolithic", "ns");
    ("core.mean_batch", "msgs");
    ("core.decisions_per_op", "count");
    ("core.relays_per_op", "count");
    ("core.adelivers_per_op", "count");
    ("obs.metrics_overhead", "ratio");
    ("obs.metrics_words_per_event", "words");
    ("obs.export_s", "s");
    ("obs.trace_overhead", "ratio");
    ("workload.stage_s", "s");
    ("workload.summarize_s", "s");
    ("workload.plan_s", "s");
    ("workload.plan_words", "words");
    ("shard.run_s", "s");
    ("shard.ns_per_event", "ns");
    ("shard.cross_requests", "count");
    ("fault.schedule_s", "s");
    ("fault.stage_s", "s");
    ("fault.monitor_observe_ns", "ns");
    ("fault.violations", "count");
    ("fault.safe_stalls", "count");
    ("replay.record_s", "s");
    ("replay.frames", "count");
    ("replay.bytes_per_frame", "bytes");
    ("replay.record_s_per_frame", "s");
    ("replay.load_s", "s");
    ("replay.verify_s_per_frame", "s");
    ("replay.divergences", "count");
    ("analysis.critical_path_s", "s");
    ("trace.overhead", "ratio");
    ("trace.spans", "count");
    ("bench.reference_s", "s");
    ("bench.raw_op_s.modular", "s");
    ("bench.raw_op_s.indirect", "s");
    ("bench.raw_op_s.monolithic", "s");
  ]
  @ List.map (fun l -> ("self_s." ^ l, "s")) span_layers

let workloads = [ "paper-n7"; "sharded-hot"; "faults-n5" ]

let per_stack ops f = List.map (fun kind -> (kind, f (of_stack kind Fun.id ops))) stacks

(* The timed ops of each distinct op (cell), in cell order. *)
let by_cell ops =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (o : op) ->
      Hashtbl.replace cells o.cell (o :: Option.value ~default:[] (Hashtbl.find_opt cells o.cell)))
    ops;
  Hashtbl.fold (fun cell os acc -> (cell, List.rev os) :: acc) cells [] |> List.sort compare
  |> List.map snd

let finite xs = List.filter Float.is_finite xs

(* A simulated metric of a stack: the median over its distinct ops (the
   repeats of a cell are identical). *)
let simulated ops f =
  Sample.median (finite (List.map (fun os -> f (List.hd os)) (by_cell ops)))

(* Host timings are scaled to the nominal machine speed (Calibration). *)
let end_to_end_metrics (out : outcome) ~failed =
  let ops = out.ops in
  let k = Calibration.factor () in
  let attempted = List.length ops in
  let tail, pct = Sample.tail (List.map (fun (o : op) -> o.wall_s) ops) in
  Printf.printf "op_s_tail: p%.1f of %d timed ops\n" pct attempted;
  let named prefix f =
    per_stack ops f |> List.map (fun (kind, v) -> (prefix ^ "." ^ stack_name kind, v))
  in
  [
    ("setup_s", k *. Sample.median (List.map (fun (o : op) -> o.setup_s) ops));
    ("op_s_tail", k *. tail);
    ( "events_per_s",
      float_of_int (List.fold_left (fun a (o : op) -> a + o.events) 0 ops)
      /. (k *. Sample.sum (List.map (fun (o : op) -> o.loop_s) ops)) );
    ( "alloc_words_per_event",
      Sample.sum (List.map (fun (o : op) -> o.words) ops)
      /. float_of_int (List.fold_left (fun a (o : op) -> a + o.events) 0 ops) );
    ( "peak_heap_mb",
      float_of_int (out.peak_heap_words * (Sys.word_size / 8)) /. 1e6 );
    ("pass_share", float_of_int (attempted - failed) /. float_of_int attempted);
  ]
  @ named "op_s" (fun os -> k *. Sample.median (List.map (fun (o : op) -> o.wall_s) os))
  @ named "sim_latency_ms" (fun os -> simulated os (fun o -> o.sim_latency_ms))
  @ named "sim_throughput" (fun os -> simulated os (fun o -> o.sim_throughput))

(* The benchmark's own tracing cost: traced ÷ untraced rounds, per stack,
   averaged. *)
let span_overhead ops =
  let median_wall kind traced =
    Sample.median
      (List.filter_map
         (fun (o : op) -> if o.stack = kind && o.traced = traced then Some o.wall_s else None)
         ops)
  in
  match
    List.filter Float.is_finite
      (List.map (fun kind -> median_wall kind true /. median_wall kind false) stacks)
  with
  | [] -> []
  | l -> [ ("trace.overhead", Sample.sum l /. float_of_int (List.length l)) ]

let per_layer_metrics tr (out : outcome) ~failed ~kernels =
  let ops = out.ops in
  let events os = float_of_int (List.fold_left (fun a (o : op) -> a + o.events) 0 os) in
  let loop os = Sample.sum (List.map (fun (o : op) -> o.loop_s) os) in
  let self = Tracer.self_time_by_layer tr in
  let traced = float_of_int (max 1 (List.length (List.filter (fun (o : op) -> o.traced) ops))) in
  [
    ("failed_share", float_of_int failed /. float_of_int (List.length ops));
    ("sim.events", Sample.median (List.map (fun (o : op) -> float_of_int o.events) ops));
    ("sim.loop_s", Sample.median (List.map (fun (o : op) -> o.loop_s) ops));
    ("sim.ns_per_event", loop ops *. 1e9 /. events ops);
    ("trace.spans", float_of_int (Tracer.count tr));
    ("bench.reference_s", Calibration.reference_s ());
  ]
  @ List.concat_map
      (fun (kind, os) ->
        [
          ("bench.raw_op_s." ^ stack_name kind, Sample.median (List.map (fun (o : op) -> o.wall_s) os));
          ("core.ns_per_event." ^ stack_name kind, loop os *. 1e9 /. events os);
        ])
      (per_stack ops Fun.id)
  @ List.map (fun l -> ("self_s." ^ l, self l /. traced)) span_layers
  @ layer_medians ops @ out.extra @ kernels @ span_overhead ops

let kernels tr ~seed =
  let k layer name metric f =
    (metric, Tracer.span tr ~layer name f)
  in
  [
    k "sim" "kernel.event_queue" "sim.queue_ns_per_op" (fun () ->
        Kernels.queue ~seed ~steps:400_000);
    k "net" "kernel.network" "net.ns_per_copy" (fun () ->
        Kernels.net_copy ~seed ~multicasts:20_000);
    k "framework" "kernel.event_bus" "framework.emit_ns" (fun () ->
        Kernels.emit ~seed ~emits:2_000_000);
    k "fault" "kernel.monitor" "fault.monitor_observe_ns" (fun () ->
        Kernels.monitor_observe ~seed ~msgs:40_000);
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics catalog =
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name metrics) in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v) unit)
      catalog
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed (String.concat "," fields)

let usage () =
  prerr_endline
    "usage: hostbench.exe --workload paper-n7|sharded-hot|faults-n5 --seed N \
     --seconds S --trace 0|1 [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let out_dir = ref ".bench_out" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--out-dir" :: d :: rest -> out_dir := d; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.0
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let tr = Tracer.create ~enabled:(!trace = 1) in
  let seed = !seed and seconds = !seconds in
  let out =
    match !workload with
    | "paper-n7" -> Paper_n7.run tr ~seed ~seconds
    | "sharded-hot" -> Sharded_hot.run tr ~seed ~seconds
    | _ -> Faults_n5.run tr ~dir:!out_dir ~seed ~seconds
  in
  let failures = List.filter_map (fun (o : op) -> o.failure) out.ops in
  List.iter (fun f -> print_endline ("failed: " ^ f)) (List.sort_uniq compare failures);
  let failed = List.length failures and attempted = List.length out.ops in
  let metrics, catalog =
    if !trace = 0 then (end_to_end_metrics out ~failed, end_to_end)
    else begin
      let kernels = kernels tr ~seed in
      let metrics = per_layer_metrics tr out ~failed ~kernels in
      let path = Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload seed) in
      Tracer.write tr path;
      Printf.printf "spans: %s\n" path;
      (metrics, per_layer)
    end
  in
  print_result ~correct:out.reproducible ~attempted ~failed metrics catalog
