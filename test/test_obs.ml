(* Tests for the observability layer (lib/obs): histogram bucketing,
   percentile summaries, JSONL round-trips, and — the property everything
   else depends on — that observing a run changes nothing about it. *)

open Repro_sim
open Repro_core
module Obs = Repro_obs.Obs
module Histogram = Repro_obs.Histogram
module Jsonl = Repro_obs.Jsonl
module Stats = Repro_obs.Stats

(* ---- Histogram ---- *)

let test_histogram_buckets () =
  let h = Histogram.create ~edges:[| 1.0; 2.0; 5.0 |] () in
  List.iter (Histogram.observe h) [ 0.5; 1.0; 1.5; 3.0; 7.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  (* A value lands in the first bucket with v <= edge; beyond the last
     edge is the overflow bucket. 1.0 is on the edge: first bucket. *)
  let expected = [ (Some 1.0, 2); (Some 2.0, 1); (Some 5.0, 1); (None, 1) ] in
  Alcotest.(check (list (pair (option (float 1e-9)) int)))
    "per-bucket counts" expected (Histogram.buckets h)

let test_histogram_bad_edges () =
  Alcotest.check_raises "non-increasing edges rejected"
    (Invalid_argument "Histogram.create: edges must be strictly increasing")
    (fun () -> ignore (Histogram.create ~edges:[| 1.0; 1.0 |] ()))

let test_default_edges_ascending () =
  let e = Histogram.default_edges in
  Alcotest.(check bool) "at least a few buckets" true (Array.length e > 4);
  for i = 1 to Array.length e - 1 do
    Alcotest.(check bool) "strictly increasing" true (e.(i) > e.(i - 1))
  done

let test_histogram_summary () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summary h in
  Alcotest.(check int) "count" 100 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Stats.mean;
  (* Exact percentiles over the retained samples, not bucket edges. *)
  Alcotest.(check (float 1e-9)) "p50" 50.5 s.Stats.p50;
  Alcotest.(check (float 1e-6)) "p95" 95.05 s.Stats.p95;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Stats.max

(* ---- Histogram: bit-exact summary and bulk absorb ---- *)

(* Sample values: small integers (many ties), virtual durations of the
   form the sinks record ([ns / 1e6] milliseconds), arbitrary floats, and
   the values [compare] orders specially (0.0 vs -0.0, NaN). *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [
        (4, map float_of_int (int_range 0 5));
        (4, map (fun ns -> float_of_int ns /. 1e6) (int_range 0 50_000_000));
        (2, float);
        (1, oneofl [ 0.0; -0.0; nan ]);
      ])

let gen_samples =
  QCheck.Gen.(
    frequency
      [
        (2, list_size (int_range 0 2) gen_sample);
        (2, list_size (int_range 3 64) gen_sample);
        (1, list_size (int_range 500 3000) gen_sample);
        (* Dense ties between the specially ordered values. *)
        (1, list_size (int_range 3 64) (oneofl [ 0.0; -0.0; nan; 1.0; -1.0 ]));
      ])

let arb_samples =
  QCheck.make gen_samples ~print:(fun l -> Printf.sprintf "%d samples" (List.length l))

let histogram_of samples =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) samples;
  h

let bits_equal (a : Stats.summary) (b : Stats.summary) =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Stats.count = b.Stats.count && same a.Stats.mean b.Stats.mean
  && same a.Stats.stddev b.Stats.stddev && same a.Stats.ci95 b.Stats.ci95
  && same a.Stats.min b.Stats.min && same a.Stats.max b.Stats.max
  && same a.Stats.p50 b.Stats.p50 && same a.Stats.p95 b.Stats.p95
  && same a.Stats.p99 b.Stats.p99

(* The reference: [Stats.summarize] as it was before the radix sort and
   the array loops moved into it, sorting by polymorphic [compare] and
   folding over the array. *)
let reference_summarize samples =
  match samples with
  | [] -> Stats.summarize []
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let fn = float_of_int n in
    let mean = Array.fold_left ( +. ) 0.0 a /. fn in
    let var =
      if n < 2 then 0.0
      else Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a /. (fn -. 1.0)
    in
    let stddev = sqrt var in
    {
      Stats.count = n;
      mean;
      stddev;
      ci95 = 1.96 *. stddev /. sqrt fn;
      min = a.(0);
      max = a.(n - 1);
      p50 = Stats.percentile a 0.5;
      p95 = Stats.percentile a 0.95;
      p99 = Stats.percentile a 0.99;
    }

let prop_summary_bit_exact =
  QCheck.Test.make ~name:"summary is bit-identical to Stats.summarize" ~count:300 arb_samples
    (fun samples ->
      let h = histogram_of samples in
      let expected = reference_summarize samples in
      bits_equal (Histogram.summary h) expected && bits_equal (Stats.summarize samples) expected)

(* Absorbing [b] into a histogram holding [a] is observing [a @ b]: same
   buckets, samples and summary, and the same marshalled value (the
   snapshot codec marshals histograms whole). *)
let prop_absorb_sequential =
  QCheck.Test.make ~name:"absorb equals sequential observation" ~count:200
    (QCheck.pair arb_samples arb_samples) (fun (a, b) ->
      let merged = histogram_of a in
      Histogram.absorb ~into:merged (histogram_of b);
      let sequential = histogram_of (a @ b) in
      Histogram.buckets merged = Histogram.buckets sequential
      && Histogram.count merged = Histogram.count sequential
      && List.equal
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           (Histogram.samples merged) (Histogram.samples sequential)
      && bits_equal (Histogram.summary merged) (Histogram.summary sequential)
      && String.equal (Marshal.to_string merged []) (Marshal.to_string sequential []))

(* ---- Sink basics ---- *)

let test_counters_and_gauges () =
  let obs = Obs.create () in
  let ax = Obs.resolve_counter obs "a.x" in
  Obs.incr obs ax;
  Obs.add obs (Obs.resolve_counter obs "a.x") 41;
  Obs.incr obs (Obs.resolve_counter obs "b.y");
  let g = Obs.resolve_gauge obs "g" in
  Obs.set_gauge obs g 1.5;
  Obs.set_gauge obs g 2.5;
  Alcotest.(check int) "counter accumulates" 42 (Obs.counter_value obs "a.x");
  Alcotest.(check int) "unknown counter is 0" 0 (Obs.counter_value obs "nope");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.x", 42); ("b.y", 1) ]
    (Obs.counters obs);
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.5)
    (Obs.gauge_value obs "g")

let test_noop_records_nothing () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Obs.incr Obs.noop (Obs.resolve_counter Obs.noop "a");
  Obs.set_gauge Obs.noop (Obs.resolve_gauge Obs.noop "g") 1.0;
  Obs.observe Obs.noop (Obs.resolve_histogram Obs.noop "h") 1.0;
  Obs.event Obs.noop ~pid:0 ~layer:`Net ~phase:"tx" ();
  Alcotest.(check int) "no counter" 0 (Obs.counter_value Obs.noop "a");
  Alcotest.(check (option (float 0.))) "no gauge" None (Obs.gauge_value Obs.noop "g");
  Alcotest.(check int) "no events" 0 (Obs.event_count Obs.noop)

(* ---- Declarations ---- *)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_conflicting_declarations () =
  let obs = Obs.create () in
  let h = Obs.resolve_histogram obs "x.lat" in
  Alcotest.(check bool) "same declaration, same handle" true
    (Obs.resolve_histogram obs "x.lat" = h);
  raises_invalid "ad hoc histogram redeclared as a counter" (fun () ->
      Obs.resolve_counter obs "x.lat");
  raises_invalid "schema counter as a gauge" (fun () ->
      Obs.resolve_gauge obs "consensus.decisions");
  raises_invalid "schema family as a histogram" (fun () ->
      Obs.resolve_histogram obs "net.msgs.consensus");
  raises_invalid "undeclared static handle" (fun () -> Obs.Metric.counter "no.such.metric");
  raises_invalid "family name as a static handle" (fun () ->
      Obs.Metric.counter "net.msgs.<layer>");
  (* The first declaration survives the rejected ones. *)
  Obs.observe obs h 1.5;
  Alcotest.(check (list string)) "still a histogram" [ "x.lat" ]
    (List.map fst (Obs.histograms obs));
  Alcotest.(check (list (pair string int))) "no counter declared" [] (Obs.counters obs)

(* Declarations themselves: a name occurs once in a schema, whatever its
   attributes, and a use must agree with its declaration's kind and
   edges. *)
let test_schema_declarations () =
  let module M = Obs.Metric in
  let lat =
    { M.name = "x.lat"; kind = M.Histogram; unit = "ms"; layer = `Run; det = M.Deterministic;
      edges = [| 1.0; 2.0 |] }
  in
  M.check M.schema;
  M.check [| lat; { lat with M.name = "x.other" } |];
  raises_invalid "same name, other edges" (fun () ->
      M.check [| lat; { lat with M.edges = [| 1.0; 3.0 |] } |]);
  raises_invalid "same name, other kind" (fun () ->
      M.check [| lat; { lat with M.kind = M.Counter; edges = [||] } |]);
  raises_invalid "same name, other unit" (fun () -> M.check [| lat; { lat with M.unit = "s" } |]);
  raises_invalid "same name, same attributes" (fun () -> M.check [| lat; lat |]);
  Alcotest.(check (option string)) "agreeing use" None (M.conflict lat lat);
  Alcotest.(check bool) "other edges conflict" true
    (M.conflict lat { lat with M.edges = [| 1.0 |] } <> None);
  Alcotest.(check bool) "other kind conflicts" true
    (M.conflict lat { lat with M.kind = M.Gauge } <> None)

let test_schema_families () =
  let module M = Obs.Metric in
  let declared_by family name = M.find name = M.find family && M.find name <> None in
  Alcotest.(check bool) "layer instance" true (declared_by "net.msgs.<layer>" "net.msgs.abcast");
  Alcotest.(check bool) "prefixed placeholder" true
    (declared_by "scale.<stack>.s<shards>.c<clients>.latency_ms"
       "scale.modular.s4.c10000.latency_ms");
  Alcotest.(check (option int)) "prefix alone is not an instance" None
    (M.find "scale.modular.s.c1.latency_ms");
  Alcotest.(check (option int)) "segment count must agree" None (M.find "net.msgs.a.b");
  let obs = Obs.create () in
  let a = Obs.resolve_counter obs "net.kind_msgs.propose" in
  Alcotest.(check bool) "family instance resolves once" true
    (Obs.resolve_counter obs "net.kind_msgs.propose" = a);
  Obs.incr obs a;
  Alcotest.(check (list (pair string int))) "exported under the instance name"
    [ ("net.kind_msgs.propose", 1) ]
    (Obs.counters obs)

(* ---- JSONL round-trip ---- *)

let str_field name j = Jsonl.(to_string_opt (member name j))
let int_field name j = Jsonl.(to_int_opt (member name j))

let make_populated_obs () =
  let engine = Engine.create () in
  let obs = Obs.of_engine engine in
  Obs.add obs (Obs.resolve_counter obs "net.msgs.consensus") 7;
  Obs.set_gauge obs (Obs.Metric.gauge "run.throughput") 123.5;
  Obs.observe obs (Obs.Metric.histogram "abcast.e2e_ms") 1.25;
  Obs.observe obs (Obs.Metric.histogram "abcast.e2e_ms") 9999.0;
  ignore
    (Engine.schedule_after engine (Time.span_us 3) (fun () ->
         Obs.event obs ~pid:2 ~layer:`Consensus ~phase:"propose" ~detail:"i0 r1" ()));
  Engine.run engine;
  obs

let test_jsonl_metrics_roundtrip () =
  let obs = make_populated_obs () in
  let lines = Jsonl.metric_lines ~tags:[ ("stack", "modular") ] obs in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  let parsed =
    match Jsonl.parse_lines (String.concat "\n" lines) with
    | Ok l -> l
    | Error e -> Alcotest.failf "unparsable metrics JSONL: %s" e
  in
  let find ty name =
    match
      List.find_opt
        (fun j -> str_field "type" j = Some ty && str_field "name" j = Some name)
        parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no %s line for %s" ty name
  in
  let c = find "counter" "net.msgs.consensus" in
  Alcotest.(check (option int)) "counter value" (Some 7) (int_field "value" c);
  Alcotest.(check (option string)) "tag on every line" (Some "modular")
    (str_field "stack" c);
  let h = find "histogram" "abcast.e2e_ms" in
  Alcotest.(check (option int)) "histogram count" (Some 2) (int_field "count" h);
  (match Jsonl.member "buckets" h with
  | Some (Jsonl.List buckets) ->
    (* Per-bucket [edge, count] pairs; the overflow bucket has a null edge
       and holds the out-of-range sample. *)
    (match List.rev buckets with
    | Jsonl.List [ Jsonl.Null; Jsonl.Int overflow ] :: _ ->
      Alcotest.(check int) "overflow bucket count" 1 overflow
    | _ -> Alcotest.fail "last bucket is not [null, count]")
  | _ -> Alcotest.fail "histogram line has no buckets array");
  match find "gauge" "run.throughput" with
  | g ->
    Alcotest.(check (option (float 1e-9))) "gauge value" (Some 123.5)
      Jsonl.(to_float_opt (member "value" g))

let test_jsonl_trace_roundtrip () =
  let obs = make_populated_obs () in
  let lines = Jsonl.trace_lines obs in
  Alcotest.(check int) "one line per event" 1 (List.length lines);
  let j =
    match Jsonl.parse (List.hd lines) with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparsable trace line: %s" e
  in
  Alcotest.(check (option string)) "type" (Some "trace") (str_field "type" j);
  Alcotest.(check (option int)) "virtual-clock stamp" (Some 3000)
    (int_field "at_ns" j);
  Alcotest.(check (option int)) "pid" (Some 2) (int_field "pid" j);
  Alcotest.(check (option string)) "layer" (Some "consensus") (str_field "layer" j);
  Alcotest.(check (option string)) "phase" (Some "propose") (str_field "phase" j);
  Alcotest.(check (option string)) "detail" (Some "i0 r1") (str_field "detail" j)

let test_jsonl_parse_errors () =
  (match Jsonl.parse "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  match Jsonl.parse_lines "{\"a\":1}\nnot json\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad line accepted"

(* ---- Observation does not perturb the run ---- *)

(* The whole design contract (DESIGN.md §7): an instrumented run must have
   the identical virtual-time history to an uninstrumented one. Run the
   same modular group twice, once observed, and compare everything the
   simulation exposes. *)
let run_modular ~obs =
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  for i = 0 to 9 do
    Group.abcast group (i mod 3) ~size:(256 * (i + 1))
  done;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  group

let test_noop_sink_changes_nothing () =
  let plain = run_modular ~obs:Obs.noop in
  let obs = Obs.create () in
  let observed = run_modular ~obs in
  let ids g =
    List.concat_map
      (fun p ->
        List.map
          (fun (id : App_msg.id) -> (id.App_msg.origin, id.App_msg.seq))
          (Group.deliveries g p))
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (pair int int)))
    "same delivery order at every process" (ids plain) (ids observed);
  let final g = Time.to_ns (Engine.now (Group.engine g)) in
  Alcotest.(check int) "same final virtual time" (final plain) (final observed);
  let wire g = (Repro_net.Net_stats.snapshot (Group.stats g)).Repro_net.Net_stats.messages in
  Alcotest.(check int) "same wire traffic" (wire plain) (wire observed);
  let lat g =
    List.map
      (fun (r : Group.latency_record) ->
        ((r.Group.id.App_msg.origin, r.Group.id.App_msg.seq),
         Time.to_ns r.Group.first_delivery))
      (Group.latencies g)
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "same latency records" (lat plain) (lat observed);
  (* And the observation itself saw the run: per-layer traffic matches the
     Net_stats total, and decisions were recorded for every instance. *)
  let by_layer =
    List.fold_left
      (fun acc l -> acc + Obs.counter_value obs ("net.msgs." ^ Obs.layer_name l))
      0 Obs.all_layers
  in
  Alcotest.(check int) "layer counters partition the wire total" (wire observed)
    by_layer;
  Alcotest.(check bool) "decisions recorded" true
    (Obs.counter_value obs "consensus.decisions" > 0);
  Alcotest.(check bool) "trace non-empty" true (Obs.event_count obs > 0)

(* The analytical cross-check of the ISSUE: per-layer counts of a
   deterministic n=3 modular run against Analysis.Model, layer by layer. *)
let test_layer_counts_match_model () =
  let obs = Obs.create () in
  let params = Params.default ~n:3 in
  let group = Group.create ~kind:Replica.Modular ~params ~obs () in
  Group.abcast group 0 ~size:1024;
  ignore (Group.run_until_quiescent group ~limit:(Time.span_s 2) ());
  (* One instance, M = 1: every process decided it exactly once. *)
  Alcotest.(check int) "3 decisions = 1 instance" 3
    (Obs.counter_value obs "consensus.decisions");
  List.iter
    (fun (layer, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "net.msgs.%s" layer)
        expected
        (Obs.counter_value obs ("net.msgs." ^ layer)))
    (Repro_analysis.Model.modular_layer_messages ~n:3 ~m:1);
  let total =
    List.fold_left
      (fun acc (l, _) -> acc + Obs.counter_value obs ("net.msgs." ^ l))
      0
      (Repro_analysis.Model.modular_layer_messages ~n:3 ~m:1)
  in
  Alcotest.(check int) "sum = modular_messages"
    (Repro_analysis.Model.modular_messages ~n:3 ~m:1)
    total

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_buckets;
          Alcotest.test_case "bad edges rejected" `Quick test_histogram_bad_edges;
          Alcotest.test_case "default edges ascending" `Quick
            test_default_edges_ascending;
          Alcotest.test_case "percentile summary" `Quick test_histogram_summary;
          QCheck_alcotest.to_alcotest prop_summary_bit_exact;
          QCheck_alcotest.to_alcotest prop_absorb_sequential;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
          Alcotest.test_case "noop records nothing" `Quick test_noop_records_nothing;
          Alcotest.test_case "conflicting declarations rejected" `Quick
            test_conflicting_declarations;
          Alcotest.test_case "schema declarations" `Quick test_schema_declarations;
          Alcotest.test_case "schema families" `Quick test_schema_families;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "metrics round-trip" `Quick test_jsonl_metrics_roundtrip;
          Alcotest.test_case "trace round-trip" `Quick test_jsonl_trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_jsonl_parse_errors;
        ] );
      ( "non-perturbation",
        [
          Alcotest.test_case "noop sink changes nothing" `Quick
            test_noop_sink_changes_nothing;
          Alcotest.test_case "layer counts match Model" `Quick
            test_layer_counts_match_model;
        ] );
    ]
