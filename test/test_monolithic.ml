(* Tests for the monolithic atomic broadcast stack (§4): same abcast
   properties as the modular stack, the 2(n-1) steady-state message
   pattern, the byte formula of §5.2.2, cross-stack order equivalence, and
   the per-optimization ablations. *)

open Repro_sim
open Repro_net
open Repro_core

let make ?(n = 3) ?params ?obs () =
  let params = match params with Some p -> p | None -> Params.default ~n in
  Group.create ~kind:Replica.Monolithic ~params ?obs ()

let run_quiet g = ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ())

let check_total_order g =
  let n = (Group.params g).Params.n in
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  match logs with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i log ->
        Alcotest.(check bool)
          (Printf.sprintf "p%d delivered the same sequence" (i + 2))
          true (log = first))
      rest

let test_single_message_coordinator () =
  let g = make () in
  Group.abcast g 0 ~size:512;
  run_quiet g;
  check_total_order g;
  Alcotest.(check (list int)) "delivered everywhere" [ 1; 1; 1 ]
    (Array.to_list (Group.delivered_counts g))

let test_single_message_non_coordinator () =
  let obs = Kinds.sink () in
  let g = make ~obs () in
  Group.abcast g 2 ~size:512;
  run_quiet g;
  check_total_order g;
  Alcotest.(check (list int)) "delivered everywhere" [ 1; 1; 1 ]
    (Array.to_list (Group.delivered_counts g));
  (* The §4.2 idle path: the message travels only to the coordinator. *)
  let kinds = Kinds.sent obs in
  Alcotest.(check (option int)) "one to-coord send" (Some 1)
    (List.assoc_opt "to-coord" kinds);
  Alcotest.(check (option int)) "never diffused to everyone" None
    (List.assoc_opt "diffuse" kinds)

let test_symmetric_workload () =
  let g = make ~n:7 () in
  for i = 0 to 69 do
    Group.abcast g (i mod 7) ~size:256
  done;
  run_quiet g;
  check_total_order g;
  Alcotest.(check int) "all 70 delivered" 70 (Replica.delivered_count (Group.replica g 0))

let test_no_duplicates () =
  let g = make () in
  for i = 0 to 49 do
    Group.abcast g (i mod 3) ~size:64
  done;
  run_quiet g;
  let log = Group.deliveries g 0 in
  Alcotest.(check int) "no duplicate deliveries" (List.length log)
    (List.length (List.sort_uniq compare log))

let pump g ~n ~size ~rounds =
  let engine = Group.engine g in
  let rec loop i =
    if i < rounds then begin
      List.iter (fun p -> Group.abcast g p ~size) (Pid.all ~n);
      ignore (Engine.schedule_after engine (Time.span_us 500) (fun () -> loop (i + 1)))
    end
  in
  loop 0

let measure_per_instance g ~warm ~window =
  Group.run_for g warm;
  let s0 = Net_stats.snapshot (Group.stats g) in
  let inst0 = Replica.instances_decided (Group.replica g 0) in
  let del0 = Replica.delivered_count (Group.replica g 0) in
  Group.run_for g window;
  let s1 = Net_stats.snapshot (Group.stats g) in
  let inst1 = Replica.instances_decided (Group.replica g 0) in
  let del1 = Replica.delivered_count (Group.replica g 0) in
  let instances = inst1 - inst0 in
  let d = Net_stats.diff s1 s0 in
  ( instances,
    float_of_int (del1 - del0) /. float_of_int instances,
    float_of_int d.Net_stats.messages /. float_of_int instances,
    float_of_int d.Net_stats.payload_bytes /. float_of_int instances )

let test_steady_state_two_n_minus_one () =
  (* §5.2.1: under sustained load, exactly 2(n-1) messages per instance. *)
  List.iter
    (fun n ->
      let g =
        Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n)
          ~record_deliveries:false ()
      in
      pump g ~n ~size:1024 ~rounds:8000;
      let instances, _, msgs, _ =
        measure_per_instance g ~warm:(Time.span_s 1) ~window:(Time.span_s 1)
      in
      Alcotest.(check bool) "made progress" true (instances > 50);
      let predicted = float_of_int (Repro_analysis.Model.monolithic_messages ~n) in
      let err = abs_float (msgs -. predicted) /. predicted in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %.2f msgs/instance within 2%% of %.0f" n msgs predicted)
        true (err < 0.02))
    [ 3; 5; 7 ]

let test_steady_state_bytes () =
  (* §5.2.2: the proposal carries all M messages to n-1 processes, and the
     non-coordinator-origin messages additionally travel once on acks. The
     paper's closed form assumes a perfectly symmetric origin mix (M/n per
     process); the measured mix slightly over-represents the coordinator
     (its flow-control window recycles one ride-the-ack delay faster), so
     we predict from the measured mix and check the idealized formula as an
     upper bound. *)
  let n = 3 and l = 8192 in
  let g =
    Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n)
      ~record_deliveries:true ()
  in
  pump g ~n ~size:l ~rounds:8000;
  Group.run_for g (Time.span_s 3);
  let r = Group.replica g 0 in
  let instances = Replica.instances_decided r in
  let deliveries = Replica.deliveries r in
  let from_non_coord =
    List.length (List.filter (fun id -> id.App_msg.origin <> 0) deliveries)
  in
  let m = float_of_int (List.length deliveries) /. float_of_int instances in
  let m_nc = float_of_int from_non_coord /. float_of_int instances in
  let bytes =
    float_of_int (Net_stats.snapshot (Group.stats g)).Net_stats.payload_bytes
    /. float_of_int instances
  in
  let fl = float_of_int l and fn = float_of_int (n - 1) in
  (* proposal to n-1 receivers + one ack ride per non-coordinator message *)
  let predicted_mix = (fn *. m *. fl) +. (m_nc *. fl) in
  let idealized = Repro_analysis.Model.monolithic_bytes ~n ~m:1 ~l *. m in
  let err = abs_float (bytes -. predicted_mix) /. predicted_mix in
  Alcotest.(check bool)
    (Printf.sprintf "bytes/instance %.0f within 5%% of mix-adjusted %.0f" bytes
       predicted_mix)
    true (err < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "idealized formula %.0f is an upper bound for %.0f" idealized bytes)
    true
    (bytes < idealized *. 1.05)

let test_matches_modular_order_semantics () =
  (* Both stacks must deliver the same SET in a total order (the orders
     may differ between stacks; each stack is internally consistent). *)
  let run kind =
    let params = Params.default ~n:3 in
    let g = Group.create ~kind ~params () in
    for i = 0 to 19 do
      Group.abcast g (i mod 3) ~size:128
    done;
    ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
    List.map (fun p -> Group.deliveries g p) (Pid.all ~n:3)
  in
  let mod_logs = run Replica.Modular and mono_logs = run Replica.Monolithic in
  let same_within logs =
    match logs with first :: rest -> List.for_all (( = ) first) rest | [] -> true
  in
  Alcotest.(check bool) "modular totally ordered" true (same_within mod_logs);
  Alcotest.(check bool) "monolithic totally ordered" true (same_within mono_logs);
  Alcotest.(check (list (pair int int))) "same delivered set"
    (List.sort compare
       (List.map (fun id -> (id.App_msg.origin, id.App_msg.seq)) (List.hd mod_logs)))
    (List.sort compare
       (List.map (fun id -> (id.App_msg.origin, id.App_msg.seq)) (List.hd mono_logs)))

(* ---- Ablations (A1): disabling each §4 optimization ---- *)

let ablated mono_opts n = { (Params.default ~n) with Params.mono = mono_opts }

let test_ablation_no_combine () =
  (* §4.1 off: decisions never ride proposals; standalone tags appear for
     every instance, and correctness is preserved. *)
  let params =
    ablated
      {
        Params.combine_proposal_decision = false;
        piggyback_on_ack = true;
        cheap_decision = true;
      }
      3
  in
  let obs = Kinds.sink () in
  let g = make ~params ~obs () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:128
  done;
  run_quiet g;
  check_total_order g;
  Alcotest.(check int) "all delivered" 30 (Replica.delivered_count (Group.replica g 0));
  let tags = List.assoc_opt "mono-decision-tag" (Kinds.sent obs) in
  let instances = Replica.instances_decided (Group.replica g 0) in
  Alcotest.(check (option int)) "a standalone tag burst per instance"
    (Some (instances * 2))
    tags

let test_ablation_no_piggyback () =
  (* §4.2 off: abcast messages are diffused to everyone again. *)
  let params =
    ablated
      {
        Params.combine_proposal_decision = true;
        piggyback_on_ack = false;
        cheap_decision = true;
      }
      3
  in
  let obs = Kinds.sink () in
  let g = make ~params ~obs () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:128
  done;
  run_quiet g;
  check_total_order g;
  Alcotest.(check int) "all delivered" 30 (Replica.delivered_count (Group.replica g 0));
  (* Non-coordinator messages (2/3 of them) go out as to-coord broadcasts
     to everyone: 2 copies each. *)
  match List.assoc_opt "to-coord" (Kinds.sent obs) with
  | Some c -> Alcotest.(check bool) "diffusion traffic present" true (c >= 20)
  | None -> Alcotest.fail "expected diffusion traffic"

let test_ablation_rb_decision () =
  (* §4.3 off: standalone decisions use reliable broadcast (relayed tags). *)
  let params =
    ablated
      {
        Params.combine_proposal_decision = true;
        piggyback_on_ack = true;
        cheap_decision = false;
      }
      5
  in
  let obs = Kinds.sink () in
  let g = make ~params ~obs () in
  Group.abcast g 0 ~size:128;
  run_quiet g;
  check_total_order g;
  Alcotest.(check (list int)) "delivered everywhere" [ 1; 1; 1; 1; 1 ]
    (Array.to_list (Group.delivered_counts g));
  (* The single decision goes out as a relayed Decision_tag rbcast:
     (n-1) * floor((n+1)/2) copies. *)
  Alcotest.(check (option int)) "rbcast decision complexity"
    (Some (Repro_analysis.Model.rbcast_messages ~n:5))
    (List.assoc_opt "decision-tag" (Kinds.sent obs))

(* Property: total order for random workloads (monolithic). *)
(* ---- Recovery ---- *)

let test_two_coordinator_crashes () =
  (* p1 (the steward, proposing every instance in round 1) and p2 (round 2's
     coordinator) crash together while instances are in flight. Those
     instances are finished by recovery rounds that p3 coordinates with a
     majority of 4 of the 5 survivors, and p3 takes over as steward. *)
  let obs = Kinds.sink () in
  let g =
    Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n:7)
      ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config) ~obs ()
  in
  for i = 0 to 20 do
    Group.abcast g (i mod 7) ~size:256
  done;
  Group.run_for g (Time.span_us 600);
  Group.crash g 0;
  Group.crash g 1;
  for p = 2 to 6 do
    Group.abcast g p ~size:256
  done;
  Group.run_for g (Time.span_s 5);
  let survivors = [ 2; 3; 4; 5; 6 ] in
  let log = Group.deliveries g 2 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d delivered the same sequence" (p + 1))
        true
        (Group.deliveries g p = log);
      for seq = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "p%d#%d delivered" (p + 1) seq)
          true
          (List.mem { App_msg.origin = p; seq } log)
      done)
    survivors;
  Alcotest.(check int) "no duplicates" (List.length log)
    (List.length (List.sort_uniq compare log));
  let estimates = Option.value ~default:0 (List.assoc_opt "mono-estimate" (Kinds.sent obs)) in
  Alcotest.(check bool) "recovery rounds ran" true (estimates > 0)

let prop_total_order_mono =
  QCheck.Test.make ~name:"monolithic total order for random workloads" ~count:40
    QCheck.(triple (int_range 1 60) (oneofl [ 3; 5 ]) (int_bound 999))
    (fun (msgs, n, seed) ->
      let params = { (Params.default ~n) with Params.seed } in
      let g = Group.create ~kind:Replica.Monolithic ~params () in
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
  Alcotest.run "abcast-monolithic"
    [
      ( "properties-good-runs",
        [
          Alcotest.test_case "coordinator abcast" `Quick test_single_message_coordinator;
          Alcotest.test_case "non-coordinator abcast (§4.2 idle path)" `Quick
            test_single_message_non_coordinator;
          Alcotest.test_case "symmetric workload n=7" `Quick test_symmetric_workload;
          Alcotest.test_case "integrity" `Quick test_no_duplicates;
          Alcotest.test_case "same semantics as modular" `Quick
            test_matches_modular_order_semantics;
          QCheck_alcotest.to_alcotest prop_total_order_mono;
        ] );
      ( "crashes",
        [ Alcotest.test_case "two coordinator crashes (n=7)" `Quick test_two_coordinator_crashes ]
      );
      ( "analytical-match",
        [
          Alcotest.test_case "2(n-1) messages per instance (§5.2.1)" `Slow
            test_steady_state_two_n_minus_one;
          Alcotest.test_case "bytes per instance (§5.2.2)" `Slow test_steady_state_bytes;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "§4.1 off: no combined decision" `Quick test_ablation_no_combine;
          Alcotest.test_case "§4.2 off: diffusion restored" `Quick test_ablation_no_piggyback;
          Alcotest.test_case "§4.3 off: rbcast decisions" `Quick test_ablation_rb_decision;
        ] );
    ]
