(* Tests for reliable broadcast (§3.1): delivery guarantees, duplicate
   suppression, message complexity of both variants, and behaviour when the
   broadcaster crashes mid-send. *)

open Repro_sim
open Repro_net
open Repro_core

type world = {
  engine : Engine.t;
  net : (Msg.rb_meta * string) Network.t;
  rbs : string Rbcast.t array;
  delivered : string list ref array;
}

let make ?(n = 5) ?(variant = Params.Majority) () =
  let engine = Engine.create () in
  let net =
    Network.create engine ~n
      ~payload_bytes:(fun (_, s) -> 20 + String.length s)
      ()
  in
  let delivered = Array.init n (fun _ -> ref []) in
  let rbs =
    Array.init n (fun me ->
        Rbcast.create ~me ~n ~variant
          ~broadcast:(fun ~meta payload ->
            Network.send_to_others net ~src:me (meta, payload))
          ~deliver:(fun ~meta:_ payload ->
            delivered.(me) := payload :: !(delivered.(me)))
          ())
  in
  Array.iteri
    (fun me rb ->
      Network.register net me (fun ~src (meta, payload) ->
          Rbcast.receive rb ~src ~meta payload))
    rbs;
  { engine; net; rbs; delivered }

let deliveries w p = List.rev !(w.delivered.(p))

(* ---- Relayer designation ---- *)

let test_relayers () =
  Alcotest.(check (list int)) "n=5 origin p1" [ 1; 2 ] (Rbcast.relayers ~n:5 ~origin:0);
  Alcotest.(check (list int)) "n=5 origin p2" [ 0; 2 ] (Rbcast.relayers ~n:5 ~origin:1);
  Alcotest.(check (list int)) "n=3 origin p3" [ 0 ] (Rbcast.relayers ~n:3 ~origin:2);
  Alcotest.(check (list int)) "n=7" [ 1; 2; 3 ] (Rbcast.relayers ~n:7 ~origin:0);
  Alcotest.(check int) "relayer count is floor((n-1)/2)" 3
    (List.length (Rbcast.relayers ~n:7 ~origin:6))

(* ---- Good runs ---- *)

let test_all_deliver_once () =
  let w = make () in
  Rbcast.rbcast w.rbs.(0) "m1";
  Rbcast.rbcast w.rbs.(0) "m2";
  Engine.run w.engine;
  for p = 0 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "p%d delivers both exactly once" (p + 1))
      [ "m1"; "m2" ] (deliveries w p)
  done

let test_message_complexity_majority () =
  let w = make ~n:5 ~variant:Params.Majority () in
  Rbcast.rbcast w.rbs.(0) "m";
  Engine.run w.engine;
  let sent = (Net_stats.snapshot (Network.stats w.net)).Net_stats.messages in
  Alcotest.(check int) "(n-1) * floor((n+1)/2) messages"
    (Repro_analysis.Model.rbcast_messages ~n:5)
    sent

let test_message_complexity_classic () =
  let w = make ~n:5 ~variant:Params.Classic () in
  Rbcast.rbcast w.rbs.(0) "m";
  Engine.run w.engine;
  let sent = (Net_stats.snapshot (Network.stats w.net)).Net_stats.messages in
  Alcotest.(check int) "n * (n-1) messages"
    (Repro_analysis.Model.rbcast_classic_messages ~n:5)
    sent

let test_concurrent_broadcasts () =
  let w = make () in
  Rbcast.rbcast w.rbs.(1) "from-p2";
  Rbcast.rbcast w.rbs.(3) "from-p4";
  Rbcast.rbcast w.rbs.(1) "from-p2-again";
  Engine.run w.engine;
  for p = 0 to 4 do
    let got = List.sort compare (deliveries w p) in
    Alcotest.(check (list string))
      (Printf.sprintf "p%d delivers all three" (p + 1))
      [ "from-p2"; "from-p2-again"; "from-p4" ]
      got
  done

(* ---- Crash scenarios ---- *)

let test_origin_crash_after_reaching_relayer () =
  (* Origin p1 crashes after sending to p2 only. p2 is a designated relayer
     for origin 0 at n=5 ([1; 2]), so the payload must still reach every
     correct process. *)
  let w = make () in
  Network.crash_after_sends w.net 0 1;
  Rbcast.rbcast w.rbs.(0) "survivor";
  Engine.run w.engine;
  for p = 1 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "p%d delivers despite origin crash" (p + 1))
      [ "survivor" ] (deliveries w p)
  done

let test_origin_crash_before_any_send () =
  let w = make () in
  Network.crash_after_sends w.net 0 0;
  Rbcast.rbcast w.rbs.(0) "ghost";
  Engine.run w.engine;
  (* Nobody (except the dead origin, locally) delivers: all-or-nothing is
     preserved vacuously. *)
  for p = 1 to 4 do
    Alcotest.(check (list string)) (Printf.sprintf "p%d delivers nothing" (p + 1)) []
      (deliveries w p)
  done

let test_classic_survives_non_relayer_receipt () =
  (* Under the classic variant every receiver relays, so reaching any single
     correct process suffices — even one that the majority variant would not
     designate as a relayer. Origin p1's copies go to p2 and p3 here; with
     classic relaying p4 and p5 must still deliver. *)
  let w = make ~n:5 ~variant:Params.Classic () in
  Network.crash_after_sends w.net 0 2;
  Rbcast.rbcast w.rbs.(0) "m";
  Engine.run w.engine;
  for p = 1 to 4 do
    Alcotest.(check (list string))
      (Printf.sprintf "p%d delivers" (p + 1))
      [ "m" ] (deliveries w p)
  done

(* Property: agreement among correct processes for random crash budgets —
   under the majority variant, whenever any correct non-origin process
   delivers, every correct process delivers. *)
let prop_agreement_under_origin_crash =
  QCheck.Test.make ~name:"rbcast agreement under random origin crash" ~count:100
    QCheck.(pair (int_range 0 6) (int_range 0 1))
    (fun (budget, variant_idx) ->
      let variant = if variant_idx = 0 then Params.Majority else Params.Classic in
      let w = make ~n:7 ~variant () in
      Network.crash_after_sends w.net 0 budget;
      Rbcast.rbcast w.rbs.(0) "m";
      Engine.run w.engine;
      let correct = [ 1; 2; 3; 4; 5; 6 ] in
      let got = List.map (fun p -> deliveries w p <> []) correct in
      match variant with
      | Params.Classic ->
        (* any receipt propagates to all *)
        List.for_all Fun.id got || List.for_all not got
      | Params.Majority ->
        (* if a relayer received it, everyone has it; non-relayer-only
           receipt may strand the payload (masked by consensus rounds in the
           enclosing stack) — but delivery must never be partial among those
           that DID receive relays. *)
        let relayers = Rbcast.relayers ~n:7 ~origin:0 in
        let relayer_got = List.exists (fun p -> deliveries w p <> []) relayers in
        (not relayer_got) || List.for_all Fun.id got)

let () =
  Alcotest.run "rbcast"
    [
      ("relayers", [ Alcotest.test_case "designation" `Quick test_relayers ]);
      ( "good-runs",
        [
          Alcotest.test_case "all deliver once" `Quick test_all_deliver_once;
          Alcotest.test_case "majority message count" `Quick test_message_complexity_majority;
          Alcotest.test_case "classic message count" `Quick test_message_complexity_classic;
          Alcotest.test_case "concurrent broadcasts" `Quick test_concurrent_broadcasts;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "origin crash after relayer receipt" `Quick
            test_origin_crash_after_reaching_relayer;
          Alcotest.test_case "origin crash before any send" `Quick
            test_origin_crash_before_any_send;
          Alcotest.test_case "classic relays from any receiver" `Quick
            test_classic_survives_non_relayer_receipt;
          QCheck_alcotest.to_alcotest prop_agreement_under_origin_crash;
        ] );
    ]
