(* Tests for the modular atomic broadcast stack (§3): the four abcast
   properties (validity, uniform agreement, uniform integrity, total
   order) in good runs, plus the analytical message pattern of §5.2.1. *)

open Repro_sim
open Repro_net
open Repro_core

let make ?(n = 3) ?(window = 2) () =
  let params = { (Params.default ~n) with Params.window } in
  Group.create ~kind:Replica.Modular ~params ()

let run_quiet g = ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ())

let check_total_order g =
  let n = (Group.params g).Params.n in
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  match logs with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i log ->
        Alcotest.(check int)
          (Printf.sprintf "p%d delivered the same count" (i + 2))
          (List.length first) (List.length log);
        Alcotest.(check bool)
          (Printf.sprintf "p%d delivered the same sequence" (i + 2))
          true (log = first))
      rest

let test_single_message () =
  let g = make () in
  Group.abcast g 0 ~size:512;
  run_quiet g;
  check_total_order g;
  Alcotest.(check (list int)) "every process delivered one" [ 1; 1; 1 ]
    (Array.to_list (Group.delivered_counts g))

let test_all_processes_broadcast () =
  let g = make () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:256
  done;
  run_quiet g;
  check_total_order g;
  Alcotest.(check int) "all 30 delivered" 30 (Replica.delivered_count (Group.replica g 0))

let test_integrity_no_duplicates () =
  let g = make () in
  for i = 0 to 49 do
    Group.abcast g (i mod 3) ~size:64
  done;
  run_quiet g;
  let log = Group.deliveries g 0 in
  let dedup = List.sort_uniq compare log in
  Alcotest.(check int) "no duplicate deliveries" (List.length log) (List.length dedup)

let test_validity_all_admitted_delivered () =
  let g = make () in
  for _ = 1 to 10 do
    Group.abcast g 1 ~size:2048
  done;
  run_quiet g;
  Alcotest.(check int) "every admitted message delivered"
    (Replica.admitted (Group.replica g 1))
    (Replica.delivered_count (Group.replica g 1))

let test_flow_control_window () =
  let g = make ~window:2 () in
  (* Offer far more than the window; offers must queue, not be lost. *)
  for _ = 1 to 20 do
    Group.abcast g 0 ~size:128
  done;
  let r = Group.replica g 0 in
  Alcotest.(check int) "only the window admitted synchronously" 2 (Replica.admitted r);
  Alcotest.(check int) "rest queued" 18 (Replica.queued_offers r);
  run_quiet g;
  Alcotest.(check int) "all admitted eventually" 20 (Replica.admitted r);
  Alcotest.(check int) "all delivered eventually" 20 (Replica.delivered_count r);
  check_total_order g

let test_early_latency_records () =
  let g = make () in
  Group.abcast g 0 ~size:1024;
  Group.abcast g 2 ~size:1024;
  run_quiet g;
  let lats = Group.latencies g in
  Alcotest.(check int) "one record per message" 2 (List.length lats);
  List.iter
    (fun (r : Group.latency_record) ->
      Alcotest.(check bool) "positive latency" true
        Time.(r.first_delivery > r.abcast_at))
    lats

let test_deterministic_batch_order () =
  (* Within a batch, delivery follows (origin, seq) order; across batches,
     instance order. Abcast everything before running so one instance
     orders several messages. *)
  let g = make () in
  Group.abcast g 2 ~size:64;
  Group.abcast g 1 ~size:64;
  Group.abcast g 0 ~size:64;
  run_quiet g;
  check_total_order g;
  let log = Group.deliveries g 0 in
  Alcotest.(check int) "three delivered" 3 (List.length log);
  (* All three diffuse before any consensus decides (same virtual time), so
     p1's first proposal contains its own message; the others follow in a
     later batch but in identity order within each batch. *)
  let sorted_within_batches = log = List.sort App_msg.compare_id log in
  Alcotest.(check bool) "identity-sorted (single or sorted batches)" true
    (sorted_within_batches || List.length (List.sort_uniq compare log) = 3)

let test_messages_per_instance_formula () =
  (* Steady-state message complexity (§5.2.1): feed a sustained load and
     compare wire messages per instance with (n-1)(M + 2 + floor((n+1)/2))
     where M is the measured mean batch size. *)
  List.iter
    (fun n ->
      let params = Params.default ~n in
      let g = Group.create ~kind:Replica.Modular ~params ~record_deliveries:false () in
      let engine = Group.engine g in
      let rec pump i =
        if i < 8000 then begin
          List.iter (fun p -> Group.abcast g p ~size:1024) (Pid.all ~n);
          ignore (Engine.schedule_after engine (Time.span_us 500) (fun () -> pump (i + 1)))
        end
      in
      pump 0;
      Group.run_for g (Time.span_s 1);
      let s0 = Net_stats.snapshot (Group.stats g) in
      let inst0 = Replica.instances_decided (Group.replica g 0) in
      let del0 = Replica.delivered_count (Group.replica g 0) in
      Group.run_for g (Time.span_s 2);
      let s1 = Net_stats.snapshot (Group.stats g) in
      let inst1 = Replica.instances_decided (Group.replica g 0) in
      let del1 = Replica.delivered_count (Group.replica g 0) in
      let instances = inst1 - inst0 in
      Alcotest.(check bool) "made progress" true (instances > 50);
      let m = float_of_int (del1 - del0) /. float_of_int instances in
      let measured =
        float_of_int (Net_stats.diff s1 s0).Net_stats.messages /. float_of_int instances
      in
      let predicted =
        float_of_int (n - 1) *. (m +. 2.0 +. float_of_int ((n + 1) / 2))
      in
      let err = abs_float (measured -. predicted) /. predicted in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: measured %.2f within 2%% of predicted %.2f" n measured
           predicted)
        true (err < 0.02))
    [ 3; 5; 7 ]

let test_bytes_per_instance_formula () =
  (* §5.2.2: Data_mod = 2(n-1)Ml, up to protocol headers. *)
  let n = 3 and l = 8192 in
  let params = Params.default ~n in
  let g = Group.create ~kind:Replica.Modular ~params ~record_deliveries:false () in
  let engine = Group.engine g in
  let rec pump i =
    if i < 8000 then begin
      List.iter (fun p -> Group.abcast g p ~size:l) (Pid.all ~n);
      ignore (Engine.schedule_after engine (Time.span_us 500) (fun () -> pump (i + 1)))
    end
  in
  pump 0;
  Group.run_for g (Time.span_s 1);
  let s0 = Net_stats.snapshot (Group.stats g) in
  let inst0 = Replica.instances_decided (Group.replica g 0) in
  let del0 = Replica.delivered_count (Group.replica g 0) in
  Group.run_for g (Time.span_s 2);
  let s1 = Net_stats.snapshot (Group.stats g) in
  let inst1 = Replica.instances_decided (Group.replica g 0) in
  let del1 = Replica.delivered_count (Group.replica g 0) in
  let instances = inst1 - inst0 in
  let m = float_of_int (del1 - del0) /. float_of_int instances in
  let measured =
    float_of_int (Net_stats.diff s1 s0).Net_stats.payload_bytes /. float_of_int instances
  in
  let predicted = 2.0 *. float_of_int (n - 1) *. m *. float_of_int l in
  let err = abs_float (measured -. predicted) /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "bytes/instance %.0f within 3%% of 2(n-1)Ml = %.0f" measured predicted)
    true (err < 0.03)

(* ---- Modular-stack ablations ---- *)

let test_full_value_decisions () =
  (* decision_tag_only = false: decisions carry the decided batch, so
     decision-tag traffic is payload-heavy but correctness is identical. *)
  let base = Params.default ~n:3 in
  let params =
    { base with Params.modular = { base.Params.modular with Params.decision_tag_only = false } }
  in
  let g = Group.create ~kind:Replica.Modular ~params () in
  for i = 0 to 19 do
    Group.abcast g (i mod 3) ~size:2048
  done;
  run_quiet g;
  check_total_order g;
  Alcotest.(check int) "all delivered" 20 (Replica.delivered_count (Group.replica g 0));
  (* Compare decision-tag bytes against the tag-only run: full-value
     dissemination must cost strictly more wire bytes overall. *)
  let tagged = Group.create ~kind:Replica.Modular ~params:base () in
  for i = 0 to 19 do
    Group.abcast tagged (i mod 3) ~size:2048
  done;
  ignore (Group.run_until_quiescent tagged ~limit:(Time.span_s 60) ());
  let bytes grp = (Net_stats.snapshot (Group.stats grp)).Net_stats.payload_bytes in
  Alcotest.(check bool) "full-value decisions cost more bytes" true
    (bytes g > bytes tagged)

let test_classic_rbcast_variant () =
  (* rbcast_variant = Classic: every receiver relays decision tags, n(n-1)
     messages per broadcast instead of (n-1)*floor((n+1)/2). *)
  let base = Params.default ~n:5 in
  let params =
    { base with Params.modular = { base.Params.modular with Params.rbcast_variant = Params.Classic } }
  in
  let obs = Kinds.sink () in
  let g = Group.create ~kind:Replica.Modular ~params ~obs () in
  Group.abcast g 0 ~size:128;
  run_quiet g;
  check_total_order g;
  Alcotest.(check (option int)) "classic relay count"
    (Some (Repro_analysis.Model.rbcast_classic_messages ~n:5))
    (List.assoc_opt "decision-tag" (Kinds.sent obs))

let test_large_group_smoke () =
  (* Well beyond the paper's n=7: n=13 (f=6) still orders correctly. *)
  let n = 13 in
  let g = Group.create ~kind:Replica.Modular ~params:(Params.default ~n) () in
  for i = 0 to (2 * n) - 1 do
    Group.abcast g (i mod n) ~size:256
  done;
  run_quiet g;
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  let first = List.hd logs in
  Alcotest.(check int) "all delivered" (2 * n) (List.length first);
  List.iter
    (fun log -> Alcotest.(check bool) "identical everywhere" true (log = first))
    (List.tl logs)

(* Property: random multi-process workloads always yield identical delivery
   prefixes at all replicas (total order) with no duplicates. *)
let prop_total_order =
  QCheck.Test.make ~name:"total order for random workloads" ~count:40
    QCheck.(triple (int_range 1 60) (oneofl [ 3; 5 ]) (int_bound 999))
    (fun (msgs, n, seed) ->
      let params = { (Params.default ~n) with Params.seed } in
      let g = Group.create ~kind:Replica.Modular ~params () in
      let rng = Rng.create ~seed in
      for _ = 1 to msgs do
        Group.abcast g (Rng.int rng n) ~size:(1 + Rng.int rng 4096)
      done;
      ignore (Group.run_until_quiescent g ~limit:(Time.span_s 120) ());
      let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
      let first = List.hd logs in
      List.length first = msgs
      && List.for_all (fun log -> log = first) logs
      && List.length (List.sort_uniq compare first) = msgs)

let () =
  Alcotest.run "abcast-modular"
    [
      ( "properties-good-runs",
        [
          Alcotest.test_case "single message" `Quick test_single_message;
          Alcotest.test_case "symmetric broadcast" `Quick test_all_processes_broadcast;
          Alcotest.test_case "integrity (no duplicates)" `Quick test_integrity_no_duplicates;
          Alcotest.test_case "validity" `Quick test_validity_all_admitted_delivered;
          Alcotest.test_case "flow control window" `Quick test_flow_control_window;
          Alcotest.test_case "early latency records" `Quick test_early_latency_records;
          Alcotest.test_case "deterministic batch order" `Quick
            test_deterministic_batch_order;
          QCheck_alcotest.to_alcotest prop_total_order;
        ] );
      ( "analytical-match",
        [
          Alcotest.test_case "messages per instance (§5.2.1)" `Slow
            test_messages_per_instance_formula;
          Alcotest.test_case "bytes per instance (§5.2.2)" `Slow
            test_bytes_per_instance_formula;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "full-value decisions" `Quick test_full_value_decisions;
          Alcotest.test_case "classic rbcast variant" `Quick test_classic_rbcast_variant;
          Alcotest.test_case "n=13 smoke" `Quick test_large_group_smoke;
        ] );
    ]
