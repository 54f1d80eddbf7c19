(* Tests for the reliable-channel layer: exactly-once FIFO delivery over
   lossy links — the construction that justifies the paper's §2.1
   quasi-reliable channel assumption. *)

open Repro_sim
open Repro_net

type world = {
  engine : Engine.t;
  net : string Rchannel.wire Network.t;
  channels : string Rchannel.t array;
  received : (Pid.t * string) list ref array;
}

let frame_bytes = function
  | Rchannel.Data { payload; _ } -> 16 + String.length payload
  | Rchannel.Ack _ -> 16

let make ?(n = 3) ?(loss = 0.0) ?(seed = 0) ?rto () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine ~n ~payload_bytes:frame_bytes () in
  Network.set_loss_rate net loss;
  let received = Array.init n (fun _ -> ref []) in
  let channels =
    Array.init n (fun me ->
        Rchannel.create engine ~me ~n
          ~send_raw:(fun ~dst frame -> Network.send net ~src:me ~dst frame)
          ~deliver:(fun ~src payload ->
            received.(me) := (src, payload) :: !(received.(me)))
          ?rto ())
  in
  Array.iteri
    (fun me ch ->
      Network.register net me (fun ~src frame -> Rchannel.receive_raw ch ~src frame))
    channels;
  { engine; net; channels; received }

let got w p = List.rev !(w.received.(p))

let test_lossless_passthrough () =
  let w = make () in
  Rchannel.send w.channels.(0) ~dst:1 "a";
  Rchannel.send w.channels.(0) ~dst:1 "b";
  Engine.run w.engine;
  Alcotest.(check (list (pair int string))) "in order" [ (0, "a"); (0, "b") ] (got w 1);
  Alcotest.(check int) "no retransmissions without loss" 0
    (Rchannel.retransmissions w.channels.(0))

let test_self_send () =
  let w = make () in
  Rchannel.send w.channels.(2) ~dst:2 "me";
  Alcotest.(check (list (pair int string))) "local" [ (2, "me") ] (got w 2)

let test_delivery_under_heavy_loss () =
  let w = make ~loss:0.4 ~seed:11 ~rto:(Time.span_ms 5) () in
  let count = 200 in
  for i = 1 to count do
    Rchannel.send w.channels.(0) ~dst:1 (string_of_int i)
  done;
  (* Run long enough for retransmissions to push everything through. *)
  Engine.run_until w.engine (Time.of_ns 60_000_000_000);
  let received = got w 1 in
  Alcotest.(check int) "all delivered despite 40% loss" count (List.length received);
  Alcotest.(check (list string)) "exactly once, FIFO"
    (List.init count (fun i -> string_of_int (i + 1)))
    (List.map snd received);
  Alcotest.(check bool) "losses actually happened (retransmissions > 0)" true
    (Rchannel.retransmissions w.channels.(0) > 0);
  Alcotest.(check int) "everything acknowledged in the end" 0
    (Rchannel.unacked w.channels.(0) ~dst:1)

let test_bidirectional_and_crossing () =
  let w = make ~loss:0.3 ~seed:3 ~rto:(Time.span_ms 5) () in
  for i = 1 to 50 do
    Rchannel.send w.channels.(0) ~dst:1 (Printf.sprintf "a%d" i);
    Rchannel.send w.channels.(1) ~dst:0 (Printf.sprintf "b%d" i);
    Rchannel.send w.channels.(2) ~dst:0 (Printf.sprintf "c%d" i)
  done;
  Engine.run_until w.engine (Time.of_ns 60_000_000_000);
  let from src p = List.filter_map (fun (s, x) -> if s = src then Some x else None) (got w p) in
  Alcotest.(check (list string)) "p1->p2 FIFO"
    (List.init 50 (fun i -> Printf.sprintf "a%d" (i + 1)))
    (from 0 1);
  Alcotest.(check (list string)) "p2->p1 FIFO"
    (List.init 50 (fun i -> Printf.sprintf "b%d" (i + 1)))
    (from 1 0);
  Alcotest.(check (list string)) "p3->p1 FIFO"
    (List.init 50 (fun i -> Printf.sprintf "c%d" (i + 1)))
    (from 2 0)

let test_halt_stops_retransmission () =
  let w = make ~loss:0.99999 () in
  (* Loss rate ~1: nothing gets through; halting must silence the timers. *)
  Network.set_loss_rate w.net 0.0;
  Network.cut w.net ~src:0 ~dst:1;
  Rchannel.send w.channels.(0) ~dst:1 "stuck";
  Engine.run_until w.engine (Time.of_ns 100_000_000);
  Alcotest.(check bool) "retransmitting while cut" true
    (Rchannel.retransmissions w.channels.(0) > 0);
  Rchannel.halt w.channels.(0);
  let before = Rchannel.retransmissions w.channels.(0) in
  Engine.run_until w.engine (Time.of_ns 300_000_000);
  Alcotest.(check int) "no retransmissions after halt" before
    (Rchannel.retransmissions w.channels.(0));
  Alcotest.(check int) "engine quiesces" 0 (Engine.pending w.engine)

(* [msgs] sends p1 -> p3 at loss rate [loss_millis]/1000: are they all
   delivered exactly once, in order, within 120 virtual seconds? *)
let reliable_fifo (msgs, loss_millis, seed) =
  let loss = float_of_int loss_millis /. 1000.0 in
  let w = make ~loss ~seed ~rto:(Time.span_ms 4) () in
  for i = 1 to msgs do
    Rchannel.send w.channels.(0) ~dst:2 (string_of_int i)
  done;
  Engine.run_until w.engine (Time.of_ns 120_000_000_000);
  List.map snd (got w 2) = List.init msgs (fun i -> string_of_int (i + 1))

(* Karn's rule covers the whole cumulative ack. Here frames the receiver
   held back behind a lost, retransmitted predecessor used to feed the RTT
   estimate with the stall's length; the timeout grew to seconds and only
   51 of the 54 messages arrived in time. *)
let test_karn_cumulative_ack () =
  Alcotest.(check bool) "54 messages at loss 0.689, seed 5191" true
    (reliable_fifo (54, 689, 5191))

(* Property: for any loss rate and workload, delivery is exactly-once FIFO. *)
let prop_reliable_fifo =
  QCheck.Test.make ~name:"exactly-once FIFO for any loss rate" ~count:60
    QCheck.(triple (int_range 1 80) (int_bound 700) (int_bound 9999))
    reliable_fifo

let () =
  Alcotest.run "rchannel"
    [
      ( "reliable-channels",
        [
          Alcotest.test_case "lossless passthrough" `Quick test_lossless_passthrough;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "heavy loss" `Quick test_delivery_under_heavy_loss;
          Alcotest.test_case "bidirectional crossing traffic" `Quick
            test_bidirectional_and_crossing;
          Alcotest.test_case "halt stops retransmission" `Quick
            test_halt_stops_retransmission;
          Alcotest.test_case "karn over cumulative acks" `Quick test_karn_cumulative_ack;
          QCheck_alcotest.to_alcotest prop_reliable_fifo;
        ] );
    ]
