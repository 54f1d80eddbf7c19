(* Tests for the simulated network: delivery, timing, FIFO channels, crash
   and partition injection, traffic statistics. *)

open Repro_sim
open Repro_net

type msg = { label : string; bytes : int }

let make_net ?(n = 3) ?(wire = Wire.default) () =
  let engine = Engine.create () in
  let net =
    Network.create engine ~wire ~n
      ~payload_bytes:(fun m -> m.bytes)
      ()
  in
  (engine, net)

let collect net pid log =
  Network.register net pid (fun ~src m ->
      log := (src, m.label, Time.to_ns (Engine.now (Network.engine net))) :: !log)

(* ---- Wire model ---- *)

let test_wire_model () =
  let w = Wire.default in
  Alcotest.(check int) "on-wire bytes add headers" (1000 + w.Wire.header_bytes)
    (Wire.on_wire_bytes w ~payload_bytes:1000);
  (* Gigabit: 125 bytes per microsecond. *)
  let tx = Wire.tx_time w ~payload_bytes:(125_000 - w.Wire.header_bytes) in
  Alcotest.(check int) "tx time at bandwidth" 1_000_000 (Time.span_to_ns tx);
  let c0 = Wire.send_cpu_cost w ~payload_bytes:0 in
  let c1 = Wire.send_cpu_cost w ~payload_bytes:1024 in
  Alcotest.(check bool) "send cost grows with size" true
    (Time.span_to_ns c1 > Time.span_to_ns c0);
  Alcotest.(check int) "fixed part" (Time.span_to_ns w.Wire.send_cpu_fixed)
    (Time.span_to_ns c0)

(* ---- Basic delivery ---- *)

let test_delivery () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 1 log;
  Network.send net ~src:0 ~dst:1 { label = "hello"; bytes = 100 };
  Engine.run engine;
  match !log with
  | [ (src, label, at) ] ->
    Alcotest.(check int) "from p1" 0 src;
    Alcotest.(check string) "payload" "hello" label;
    (* send cpu + tx + propagation + recv cpu, all > 0 *)
    Alcotest.(check bool) "took positive time" true (at > 0)
  | other -> Alcotest.failf "expected one delivery, got %d" (List.length other)

let test_delivery_timing () =
  let engine, net = make_net () in
  let w = Network.wire net in
  let log = ref [] in
  collect net 1 log;
  Network.send net ~src:0 ~dst:1 { label = "m"; bytes = 1000 };
  Engine.run engine;
  let expected =
    Time.span_to_ns (Wire.send_cpu_cost w ~payload_bytes:1000)
    + Time.span_to_ns (Wire.tx_time w ~payload_bytes:1000)
    + Time.span_to_ns w.Wire.propagation
    + Time.span_to_ns (Wire.recv_cpu_cost w ~payload_bytes:1000)
  in
  match !log with
  | [ (_, _, at) ] -> Alcotest.(check int) "end-to-end latency decomposition" expected at
  | _ -> Alcotest.fail "expected one delivery"

let test_fifo_per_link () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 1 log;
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:1 { label = string_of_int i; bytes = 100 * i }
  done;
  Engine.run engine;
  let labels = List.rev_map (fun (_, l, _) -> l) !log in
  Alcotest.(check (list string)) "FIFO order" (List.init 20 (fun i -> string_of_int (i + 1)))
    labels

let test_self_send_local () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 0 log;
  Network.send net ~src:0 ~dst:0 { label = "self"; bytes = 50 };
  Engine.run engine;
  Alcotest.(check int) "delivered locally" 1 (List.length !log);
  Alcotest.(check int) "not counted in stats" 0
    (Net_stats.snapshot (Network.stats net)).Net_stats.messages

let test_send_to_others () =
  let engine, net = make_net ~n:4 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  List.iter (fun p -> collect net p logs.(p)) (Pid.all ~n:4);
  Network.send_to_others net ~src:2 { label = "b"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check (list int)) "everyone but sender got one" [ 1; 1; 0; 1 ]
    (List.map (fun p -> List.length !(logs.(p))) (Pid.all ~n:4))

let test_multicast_marshal_once () =
  (* Two destinations must cost one per-byte charge at the sender: the
     second copy leaves earlier than two independent sends would allow. *)
  let engine, net = make_net ~n:3 () in
  let w = Network.wire net in
  let log = ref [] in
  collect net 2 log;
  Network.multicast net ~src:0 ~dsts:[ 1; 2 ] { label = "mc"; bytes = 100_000 };
  Engine.run engine;
  let per_byte_once =
    (2 * Time.span_to_ns w.Wire.send_cpu_fixed)
    + (100_000 * w.Wire.send_cpu_per_byte_ns)
    + (2 * Time.span_to_ns (Wire.tx_time w ~payload_bytes:100_000))
    + Time.span_to_ns w.Wire.propagation
    + Time.span_to_ns (Wire.recv_cpu_cost w ~payload_bytes:100_000)
  in
  match !log with
  | [ (_, _, at) ] -> Alcotest.(check int) "marshal charged once" per_byte_once at
  | _ -> Alcotest.fail "expected one delivery at p3"

(* ---- Crashes ---- *)

let test_crash_stops_send_and_receive () =
  let engine, net = make_net () in
  let log1 = ref [] and log2 = ref [] in
  collect net 1 log1;
  collect net 2 log2;
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 { label = "x"; bytes = 10 };
  Network.send net ~src:1 ~dst:0 { label = "y"; bytes = 10 };
  Network.send net ~src:1 ~dst:2 { label = "z"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check bool) "crashed cannot send" true (!log1 = []);
  Alcotest.(check int) "others unaffected" 1 (List.length !log2);
  Alcotest.(check bool) "crashed flag" true (Network.is_crashed net 0)

let test_crash_after_sends_partial_broadcast () =
  let engine, net = make_net ~n:5 () in
  let logs = Array.init 5 (fun _ -> ref []) in
  List.iter (fun p -> collect net p logs.(p)) (Pid.all ~n:5);
  Network.crash_after_sends net 0 2;
  Network.send_to_others net ~src:0 { label = "partial"; bytes = 10 };
  Engine.run engine;
  let received = List.map (fun p -> List.length !(logs.(p))) (Pid.all ~n:5) in
  Alcotest.(check (list int)) "only first two destinations reached" [ 0; 1; 1; 0; 0 ]
    received;
  Alcotest.(check bool) "sender now crashed" true (Network.is_crashed net 0)

let test_in_flight_message_to_crashed_dropped () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 1 log;
  Network.send net ~src:0 ~dst:1 { label = "late"; bytes = 10 };
  (* Crash the receiver before the message can arrive. *)
  Network.crash net 1;
  Engine.run engine;
  Alcotest.(check bool) "dropped at crashed receiver" true (!log = [])

(* ---- Partitions ---- *)

let test_cut_and_heal () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 1 log;
  Network.cut net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 { label = "lost"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check bool) "cut link drops" true (!log = []);
  Network.heal net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 { label = "after"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check int) "healed link delivers" 1 (List.length !log)

let test_cut_is_directional () =
  let engine, net = make_net () in
  let log0 = ref [] and log1 = ref [] in
  collect net 0 log0;
  collect net 1 log1;
  Network.cut net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 { label = "x"; bytes = 10 };
  Network.send net ~src:1 ~dst:0 { label = "y"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check bool) "forward cut" true (!log1 = []);
  Alcotest.(check int) "reverse open" 1 (List.length !log0)

let test_partition_and_heal_all () =
  let engine, net = make_net () in
  let logs = Array.init 3 (fun _ -> ref []) in
  List.iter (fun p -> collect net p logs.(p)) (Pid.all ~n:3);
  Network.partition net [ [ 0 ]; [ 1; 2 ] ];
  Network.send net ~src:0 ~dst:1 { label = "cross-fwd"; bytes = 10 };
  Network.send net ~src:2 ~dst:0 { label = "cross-rev"; bytes = 10 };
  Network.send net ~src:1 ~dst:2 { label = "intra"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check bool) "cross-block 0->1 dropped" true (!(logs.(1)) = []);
  Alcotest.(check bool) "cross-block 2->0 dropped" true (!(logs.(0)) = []);
  Alcotest.(check int) "intra-block 1->2 delivered" 1 (List.length !(logs.(2)));
  Network.heal_all net;
  Network.send net ~src:0 ~dst:1 { label = "after-fwd"; bytes = 10 };
  Network.send net ~src:2 ~dst:0 { label = "after-rev"; bytes = 10 };
  Engine.run engine;
  Alcotest.(check int) "healed 0->1 delivers" 1 (List.length !(logs.(1)));
  Alcotest.(check int) "healed 2->0 delivers" 1 (List.length !(logs.(0)))

let test_extra_delay () =
  let engine, net = make_net () in
  let log = ref [] in
  collect net 1 log;
  Network.send net ~src:0 ~dst:1 { label = "base"; bytes = 100 };
  Engine.run engine;
  let base_latency =
    match !log with [ (_, _, at) ] -> at | _ -> Alcotest.fail "expected one delivery"
  in
  (* Same message, same (idle) CPUs, plus a 5 ms spike: arrival must shift by
     exactly the configured extra delay. *)
  let sent_at = Time.to_ns (Engine.now engine) in
  Network.set_extra_delay net (Time.span_ms 5);
  log := [];
  Network.send net ~src:0 ~dst:1 { label = "slow"; bytes = 100 };
  Engine.run engine;
  let slow_latency =
    match !log with [ (_, _, at) ] -> at - sent_at | _ -> Alcotest.fail "expected one delivery"
  in
  Alcotest.(check int) "delay spike shifts arrival by exactly 5 ms"
    (base_latency + Time.span_to_ns (Time.span_ms 5))
    slow_latency;
  (* Resetting to zero restores the baseline. *)
  let sent_at = Time.to_ns (Engine.now engine) in
  Network.set_extra_delay net Time.span_zero;
  log := [];
  Network.send net ~src:0 ~dst:1 { label = "back"; bytes = 100 };
  Engine.run engine;
  let back_latency =
    match !log with [ (_, _, at) ] -> at - sent_at | _ -> Alcotest.fail "expected one delivery"
  in
  Alcotest.(check int) "clearing the spike restores baseline latency" base_latency back_latency

(* ---- Topology ---- *)

let test_topology_uniform () =
  let t = Topology.uniform (Time.span_us 50) in
  Alcotest.(check int) "same everywhere" 50_000
    (Time.span_to_ns (Topology.latency t ~src:0 ~dst:5))

let test_topology_racks () =
  let t = Topology.racks ~rack_size:2 ~intra:(Time.span_us 10) ~inter:(Time.span_us 500) in
  Alcotest.(check int) "same rack" 10_000 (Time.span_to_ns (Topology.latency t ~src:0 ~dst:1));
  Alcotest.(check int) "cross rack" 500_000
    (Time.span_to_ns (Topology.latency t ~src:1 ~dst:2));
  Alcotest.check_raises "rack_size >= 1"
    (Invalid_argument "Topology.racks: rack_size must be >= 1") (fun () ->
      ignore (Topology.racks ~rack_size:0 ~intra:Time.span_zero ~inter:Time.span_zero))

let test_topology_star () =
  let t = Topology.star ~center:0 ~near:(Time.span_us 10) ~far:(Time.span_us 200) in
  Alcotest.(check int) "to center" 10_000 (Time.span_to_ns (Topology.latency t ~src:2 ~dst:0));
  Alcotest.(check int) "from center" 10_000
    (Time.span_to_ns (Topology.latency t ~src:0 ~dst:2));
  Alcotest.(check int) "spoke to spoke" 200_000
    (Time.span_to_ns (Topology.latency t ~src:1 ~dst:2))

let test_topology_matrix () =
  let m =
    [|
      [| Time.span_zero; Time.span_us 1 |];
      [| Time.span_us 7; Time.span_zero |];
    |]
  in
  let t = Topology.of_matrix m in
  Alcotest.(check int) "asymmetric" 7_000 (Time.span_to_ns (Topology.latency t ~src:1 ~dst:0));
  Alcotest.check_raises "square required"
    (Invalid_argument "Topology.of_matrix: matrix not square") (fun () ->
      ignore (Topology.of_matrix [| [| Time.span_zero |]; [||] |]))

let test_network_uses_topology () =
  (* Two receivers at very different distances: the far one's delivery must
     arrive exactly (far - near) later. *)
  let engine = Engine.create () in
  let topology = Topology.star ~center:0 ~near:(Time.span_us 10) ~far:(Time.span_us 10) in
  ignore topology;
  let t =
    Topology.of_matrix
      [|
        [| Time.span_zero; Time.span_us 10; Time.span_ms 5 |];
        [| Time.span_us 10; Time.span_zero; Time.span_us 10 |];
        [| Time.span_ms 5; Time.span_us 10; Time.span_zero |];
      |]
  in
  let net =
    Network.create engine ~topology:t ~n:3 ~payload_bytes:(fun (_ : msg) -> 100) ()
  in
  let at = Array.make 3 0 in
  List.iter
    (fun p ->
      Network.register net p (fun ~src:_ _ -> at.(p) <- Time.to_ns (Engine.now engine)))
    [ 1; 2 ];
  Network.send_to_others net ~src:0 { label = "m"; bytes = 100 };
  Engine.run engine;
  (* Identical costs except propagation (and p3's copy serializes after
     p2's on the NIC). *)
  let tx = Time.span_to_ns (Wire.tx_time (Network.wire net) ~payload_bytes:100) in
  Alcotest.(check int) "far link slower by latency difference - nic gap"
    (Time.span_to_ns (Time.span_ms 5) - Time.span_to_ns (Time.span_us 10) + tx)
    (at.(2) - at.(1))

let test_jitter_preserves_fifo () =
  let engine = Engine.create ~seed:42 () in
  let wire = { Wire.default with Wire.propagation_jitter = Time.span_ms 2 } in
  let net = Network.create engine ~wire ~n:2 ~payload_bytes:(fun (_ : msg) -> 10) () in
  let received = ref [] in
  Network.register net 1 (fun ~src:_ m -> received := m.label :: !received);
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 { label = string_of_int i; bytes = 10 }
  done;
  Engine.run engine;
  Alcotest.(check (list string)) "FIFO despite jitter"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !received)

let test_nic_busy_accounting () =
  let engine, net = make_net () in
  Network.register net 1 (fun ~src:_ _ -> ());
  Network.register net 2 (fun ~src:_ _ -> ());
  Network.send_to_others net ~src:0 { label = "x"; bytes = 125_000 - 78 };
  Engine.run engine;
  (* Two copies of 125000 wire bytes at 125 MB/s = 2 ms NIC busy. *)
  Alcotest.(check int) "sender NIC busy time" 2_000_000
    (Time.span_to_ns (Network.nic_busy_time net 0));
  Alcotest.(check int) "receiver NIC idle" 0 (Time.span_to_ns (Network.nic_busy_time net 1))

(* ---- Statistics ---- *)

let test_stats_counting () =
  let engine = Engine.create () in
  let obs = Kinds.sink () in
  let net =
    Network.create engine ~obs ~n:3
      ~kinds:{ Network.names = [| "a"; "b" |]; index = (fun m -> if m.label = "a" then 0 else 1) }
      ~payload_bytes:(fun m -> m.bytes)
      ()
  in
  let w = Network.wire net in
  Network.register net 1 (fun ~src:_ _ -> ());
  Network.register net 2 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 { label = "a"; bytes = 100 };
  Network.send net ~src:0 ~dst:2 { label = "a"; bytes = 100 };
  Network.send net ~src:1 ~dst:2 { label = "b"; bytes = 50 };
  Engine.run engine;
  let s = Net_stats.snapshot (Network.stats net) in
  Alcotest.(check int) "messages" 3 s.Net_stats.messages;
  Alcotest.(check int) "payload bytes" 250 s.Net_stats.payload_bytes;
  Alcotest.(check int) "wire bytes" (250 + (3 * w.Wire.header_bytes)) s.Net_stats.wire_bytes;
  Alcotest.(check (list (pair string int))) "by kind" [ ("a", 2); ("b", 1) ] (Kinds.sent obs)

let test_stats_diff () =
  let a = { Net_stats.messages = 10; payload_bytes = 100; wire_bytes = 200 } in
  let b = { Net_stats.messages = 4; payload_bytes = 30; wire_bytes = 80 } in
  let d = Net_stats.diff a b in
  Alcotest.(check int) "messages" 6 d.Net_stats.messages;
  Alcotest.(check int) "payload" 70 d.Net_stats.payload_bytes;
  Alcotest.(check int) "wire" 120 d.Net_stats.wire_bytes

(* Property: per-link FIFO holds for arbitrary interleaved sends from two
   sources. *)
let prop_fifo =
  QCheck.Test.make ~name:"per-link FIFO under interleaving" ~count:100
    QCheck.(list (pair bool (int_range 1 2000)))
    (fun sends ->
      let engine, net = make_net () in
      let received = ref [] in
      Network.register net 2 (fun ~src m -> received := (src, m.label) :: !received);
      List.iteri
        (fun i (from_p1, bytes) ->
          let src = if from_p1 then 0 else 1 in
          Network.send net ~src ~dst:2 { label = string_of_int i; bytes })
        sends;
      Engine.run engine;
      let received = List.rev !received in
      let per_src src =
        List.filter_map (fun (s, l) -> if s = src then Some (int_of_string l) else None)
          received
      in
      let increasing l = List.sort compare l = l in
      increasing (per_src 0) && increasing (per_src 1)
      && List.length received = List.length sends)

let () =
  Alcotest.run "net"
    [
      ("wire", [ Alcotest.test_case "cost model" `Quick test_wire_model ]);
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_delivery;
          Alcotest.test_case "timing decomposition" `Quick test_delivery_timing;
          Alcotest.test_case "FIFO per link" `Quick test_fifo_per_link;
          Alcotest.test_case "self send is local" `Quick test_self_send_local;
          Alcotest.test_case "send_to_others" `Quick test_send_to_others;
          Alcotest.test_case "multicast marshals once" `Quick test_multicast_marshal_once;
          QCheck_alcotest.to_alcotest prop_fifo;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash stops I/O" `Quick test_crash_stops_send_and_receive;
          Alcotest.test_case "crash mid-broadcast" `Quick
            test_crash_after_sends_partial_broadcast;
          Alcotest.test_case "in-flight to crashed dropped" `Quick
            test_in_flight_message_to_crashed_dropped;
        ] );
      ( "partition",
        [
          Alcotest.test_case "cut and heal" `Quick test_cut_and_heal;
          Alcotest.test_case "cut is directional" `Quick test_cut_is_directional;
          Alcotest.test_case "partition and heal_all" `Quick test_partition_and_heal_all;
          Alcotest.test_case "extra delay spike" `Quick test_extra_delay;
        ] );
      ( "topology",
        [
          Alcotest.test_case "uniform" `Quick test_topology_uniform;
          Alcotest.test_case "racks" `Quick test_topology_racks;
          Alcotest.test_case "star" `Quick test_topology_star;
          Alcotest.test_case "matrix" `Quick test_topology_matrix;
          Alcotest.test_case "network uses per-link latency" `Quick
            test_network_uses_topology;
          Alcotest.test_case "jitter preserves FIFO" `Quick test_jitter_preserves_fifo;
          Alcotest.test_case "NIC busy accounting" `Quick test_nic_busy_accounting;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counting" `Quick test_stats_counting;
          Alcotest.test_case "diff" `Quick test_stats_diff;
        ] );
    ]
