(* Tests for atomic broadcast by indirect consensus (related work [12]):
   the abcast properties, the byte saving it exists for, and the
   payload-recovery path. *)

open Repro_sim
open Repro_net
open Repro_fd
open Repro_core

let make ?(n = 3) ?params ?fd_mode ?obs () =
  let params = match params with Some p -> p | None -> Params.default ~n in
  Group.create ~kind:Replica.Indirect ~params ?fd_mode ?obs ()

let run_quiet g = ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ())

let check_total_order g ~n =
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  let first = List.hd logs in
  List.iter
    (fun log -> Alcotest.(check bool) "same sequence everywhere" true (log = first))
    (List.tl logs);
  Alcotest.(check int) "no duplicates" (List.length first)
    (List.length (List.sort_uniq compare first))

let test_basic_total_order () =
  let g = make () in
  for i = 0 to 29 do
    Group.abcast g (i mod 3) ~size:512
  done;
  run_quiet g;
  check_total_order g ~n:3;
  Alcotest.(check int) "all delivered" 30 (Replica.delivered_count (Group.replica g 0))

let test_symmetric_n7 () =
  let g = make ~n:7 () in
  for i = 0 to 69 do
    Group.abcast g (i mod 7) ~size:1024
  done;
  run_quiet g;
  check_total_order g ~n:7;
  Alcotest.(check int) "all delivered" 70 (Replica.delivered_count (Group.replica g 0))

let test_payloads_travel_once () =
  (* The point of [12]: proposals carry identifiers, so total bytes fall
     well below the modular stack's double payload transfer — close to
     (n-1)*M*l, even below the monolithic stack's (n-1)(1+1/n)Ml. *)
  let measure kind =
    let g = Group.create ~kind ~params:(Params.default ~n:3) ~record_deliveries:false () in
    for i = 0 to 59 do
      Group.abcast g (i mod 3) ~size:4096
    done;
    ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
    Alcotest.(check int) "all delivered" 60 (Replica.delivered_count (Group.replica g 0));
    (Net_stats.snapshot (Group.stats g)).Net_stats.payload_bytes
  in
  let indirect = measure Replica.Indirect in
  let modular = measure Replica.Modular in
  let mono = measure Replica.Monolithic in
  Alcotest.(check bool)
    (Printf.sprintf "indirect (%d) well below modular (%d)" indirect modular)
    true
    (float_of_int indirect < 0.7 *. float_of_int modular);
  Alcotest.(check bool)
    (Printf.sprintf "indirect (%d) at or below monolithic (%d)" indirect mono)
    true
    (indirect < mono + (mono / 10))

let test_message_count_stays_modular () =
  (* Indirect consensus keeps the modular message pattern — it saves
     bytes, not messages (diffusion + proposal + acks + decision rbcast). *)
  let g = Group.create ~kind:Replica.Indirect ~params:(Params.default ~n:3) () in
  Group.abcast g 0 ~size:1024;
  run_quiet g;
  let msgs = (Net_stats.snapshot (Group.stats g)).Net_stats.messages in
  (* M=1: diffusion 2 + proposal 2 + acks 2 + decision rbcast 4 = 10. *)
  Alcotest.(check int) "modular-shaped message count" 10 msgs

let test_payload_recovery_after_diffuser_crash () =
  (* p1 (coordinator) abcasts m but its diffusion reaches nobody: cut both
     outgoing links for the diffusion, then heal. p1 still proposes m's id
     (it holds the payload), the decision tag reaches p2/p3, which now hold
     an ordered identifier with no payload — the Payload_request path must
     fetch it from p1. *)
  let obs = Kinds.sink () in
  let g = make ~fd_mode:(`Heartbeat Heartbeat_fd.default_config) ~obs () in
  let net = Group.network g in
  Network.cut net ~src:0 ~dst:1;
  Network.cut net ~src:0 ~dst:2;
  Group.abcast g 0 ~size:512;
  (* Let the diffusion be lost, then heal so consensus can run. *)
  Group.run_for g (Time.span_ms 2);
  Network.heal net ~src:0 ~dst:1;
  Network.heal net ~src:0 ~dst:2;
  Group.run_for g (Time.span_s 2);
  let expect = { App_msg.origin = 0; seq = 0 } in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d delivered after payload fetch" (p + 1))
        true
        (List.mem expect (Group.deliveries g p)))
    [ 0; 1; 2 ];
  (* The recovery must actually have used the request path. *)
  match List.assoc_opt "payload-push" (Kinds.sent obs) with
  | Some c -> Alcotest.(check bool) "payloads were pushed" true (c >= 2)
  | None -> Alcotest.fail "expected payload-push traffic"

let test_coordinator_crash () =
  let g = make ~fd_mode:(`Heartbeat Heartbeat_fd.default_config) () in
  Group.abcast g 1 ~size:256;
  Group.run_for g (Time.span_ms 50);
  Group.crash g 0;
  Group.abcast g 1 ~size:256;
  Group.abcast g 2 ~size:256;
  Group.run_for g (Time.span_s 5);
  let l1 = Group.deliveries g 1 and l2 = Group.deliveries g 2 in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check bool) "progress after crash" true (List.length l1 >= 3)

let test_composition_view () =
  let g = make () in
  Alcotest.(check (list string)) "three modules, indirect abcast"
    [ "ABcast-I"; "Consensus"; "RBcast" ]
    (List.map
       (fun m -> m.Repro_framework.Stack.name)
       (Repro_framework.Stack.modules (Replica.stack (Group.replica g 0))))

let prop_total_order =
  QCheck.Test.make ~name:"indirect total order for random workloads" ~count:40
    QCheck.(triple (int_range 1 60) (oneofl [ 3; 5 ]) (int_bound 999))
    (fun (msgs, n, seed) ->
      let params = { (Params.default ~n) with Params.seed } in
      let g = Group.create ~kind:Replica.Indirect ~params () in
      let rng = Rng.create ~seed in
      for _ = 1 to msgs do
        Group.abcast g (Rng.int rng n) ~size:(1 + Rng.int rng 4096)
      done;
      ignore (Group.run_until_quiescent g ~limit:(Time.span_s 120) ());
      let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
      let first = List.hd logs in
      List.length first = msgs
      && List.for_all (( = ) first) logs
      && List.length (List.sort_uniq compare first) = msgs)

let () =
  Alcotest.run "abcast-indirect"
    [
      ( "good-runs",
        [
          Alcotest.test_case "total order" `Quick test_basic_total_order;
          Alcotest.test_case "symmetric n=7" `Quick test_symmetric_n7;
          Alcotest.test_case "payloads travel once (vs modular)" `Quick
            test_payloads_travel_once;
          Alcotest.test_case "message count stays modular" `Quick
            test_message_count_stays_modular;
          Alcotest.test_case "composition view" `Quick test_composition_view;
          QCheck_alcotest.to_alcotest prop_total_order;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "payload fetch after lost diffusion" `Quick
            test_payload_recovery_after_diffuser_crash;
          Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash;
        ] );
    ]
