(* End-to-end runs of both full stacks over fair-lossy links, with the
   reliable-channel transport rebuilding the §2.1 quasi-reliable FIFO
   channels underneath. Total order, integrity and liveness must be
   untouched by the loss; the only visible effect is retransmission
   traffic and latency. *)

open Repro_sim
open Repro_net
open Repro_core

let lossy_params ?(n = 3) ?(seed = 0) loss =
  { (Params.default ~n) with Params.transport = Params.Lossy loss; seed }

let check_total_order g ~n ~expect =
  let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
  let first = List.hd logs in
  Alcotest.(check int) "all delivered" expect (List.length first);
  List.iteri
    (fun i log ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d same sequence" (i + 1))
        true (log = first))
    (List.tl logs);
  Alcotest.(check int) "no duplicates" (List.length first)
    (List.length (List.sort_uniq compare first))

let run_lossy kind ~loss ~msgs () =
  let n = 3 in
  let obs = Kinds.sink () in
  let g = Group.create ~kind ~params:(lossy_params ~n loss) ~obs () in
  for i = 0 to msgs - 1 do
    Group.abcast g (i mod n) ~size:512
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 300) ());
  check_total_order g ~n ~expect:msgs;
  (* The loss must actually have caused work: channel acks on the wire. *)
  let kinds = Kinds.sent obs in
  match List.assoc_opt "channel-ack" kinds with
  | Some c -> Alcotest.(check bool) "channel acks flowed" true (c > 0)
  | None -> Alcotest.fail "expected reliable-channel traffic"

let test_modular_low_loss () = run_lossy Replica.Modular ~loss:0.05 ~msgs:30 ()
let test_modular_heavy_loss () = run_lossy Replica.Modular ~loss:0.25 ~msgs:30 ()
let test_mono_low_loss () = run_lossy Replica.Monolithic ~loss:0.05 ~msgs:30 ()
let test_mono_heavy_loss () = run_lossy Replica.Monolithic ~loss:0.25 ~msgs:30 ()

let test_zero_loss_has_no_frames () =
  (* Tcp_like transport must not pay any channel overhead. *)
  let obs = Kinds.sink () in
  let g = Group.create ~kind:Replica.Monolithic ~params:(Params.default ~n:3) ~obs () in
  Group.abcast g 0 ~size:512;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 10) ());
  Alcotest.(check (option int)) "no channel acks" None
    (List.assoc_opt "channel-ack" (Kinds.sent obs))

let test_lossy_with_crash () =
  (* Loss + coordinator crash + heartbeat detection, all at once. *)
  let n = 3 in
  let params = lossy_params ~n 0.10 in
  let g =
    Group.create ~kind:Replica.Monolithic ~params
      ~fd_mode:(`Heartbeat Repro_fd.Heartbeat_fd.default_config) ()
  in
  Group.abcast g 1 ~size:256;
  Group.run_for g (Time.span_ms 100);
  Group.crash g 0;
  Group.abcast g 1 ~size:256;
  Group.abcast g 2 ~size:256;
  Group.run_for g (Time.span_s 10);
  let l1 = Group.deliveries g 1 and l2 = Group.deliveries g 2 in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check bool) "all survivor messages ordered" true (List.length l1 >= 3)

(* Property: any loss rate up to 30%, any seed — total order holds. *)
let prop_lossy_total_order =
  QCheck.Test.make ~name:"total order under random loss rates" ~count:25
    QCheck.(triple (int_range 1 30) (int_bound 300) (int_bound 9999))
    (fun (msgs, loss_millis, seed) ->
      let loss = float_of_int loss_millis /. 1000.0 in
      let n = 3 in
      let g =
        Group.create ~kind:Replica.Modular ~params:(lossy_params ~n ~seed loss) ()
      in
      let rng = Rng.create ~seed in
      for _ = 1 to msgs do
        Group.abcast g (Rng.int rng n) ~size:(1 + Rng.int rng 1024)
      done;
      ignore (Group.run_until_quiescent g ~limit:(Time.span_s 600) ());
      let logs = List.map (fun p -> Group.deliveries g p) (Pid.all ~n) in
      let first = List.hd logs in
      List.length first = msgs
      && List.for_all (( = ) first) logs
      && List.length (List.sort_uniq compare first) = msgs)

let () =
  Alcotest.run "lossy-transport"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "modular, 5% loss" `Quick test_modular_low_loss;
          Alcotest.test_case "modular, 25% loss" `Quick test_modular_heavy_loss;
          Alcotest.test_case "monolithic, 5% loss" `Quick test_mono_low_loss;
          Alcotest.test_case "monolithic, 25% loss" `Quick test_mono_heavy_loss;
          Alcotest.test_case "tcp-like pays no channel overhead" `Quick
            test_zero_loss_has_no_frames;
          Alcotest.test_case "loss + crash + heartbeat FD" `Quick test_lossy_with_crash;
          QCheck_alcotest.to_alcotest prop_lossy_total_order;
        ] );
    ]
