(* Cross-library integration tests: state-machine replication over both
   stacks, determinism of whole simulations, framework accounting in situ,
   and the headline modular-vs-monolithic comparison at the group level. *)

open Repro_sim
open Repro_net
open Repro_core
module Stats = Repro_obs.Stats

(* A tiny replicated key-value store: applies delivered messages as writes.
   Replicas are consistent iff they apply the same write sequence. *)
module Kv = struct
  type t = { mutable store : (int * int) list; mutable applied : int }

  let create () = { store = []; applied = 0 }

  let apply t (m : App_msg.t) =
    (* Derive a deterministic write from the message identity. *)
    let key = (m.id.App_msg.origin * 7919) + m.id.App_msg.seq mod 17 in
    let value = m.App_msg.size in
    t.store <- (key, value) :: List.remove_assoc key t.store;
    t.applied <- t.applied + 1

  let fingerprint t = Hashtbl.hash (List.sort compare t.store, t.applied)
end

let smr_converges kind () =
  let n = 3 in
  let params = Params.default ~n in
  let g = Group.create ~kind ~params () in
  let stores = Array.init n (fun _ -> Kv.create ()) in
  Group.on_delivery g (fun pid m -> Kv.apply stores.(pid) m);
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Group.abcast g (Rng.int rng n) ~size:(1 + Rng.int rng 2048)
  done;
  ignore (Group.run_until_quiescent g ~limit:(Time.span_s 60) ());
  let f0 = Kv.fingerprint stores.(0) in
  Alcotest.(check int) "all writes applied" 100 stores.(0).Kv.applied;
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "replica %d consistent" (i + 1)) f0
        (Kv.fingerprint s))
    stores

let test_whole_run_determinism () =
  (* Two simulations with identical parameters produce byte-identical
     histories: same deliveries, same traffic, same virtual timestamps. *)
  let run () =
    let params = { (Params.default ~n:3) with Params.seed = 7 } in
    let g = Group.create ~kind:Replica.Modular ~params () in
    let gen = Repro_workload.Generator.start g ~offered_load:1500.0 ~size:2048 () in
    Group.run_for g (Time.span_s 1);
    Repro_workload.Generator.stop gen;
    let s = Net_stats.snapshot (Group.stats g) in
    ( Group.deliveries g 0,
      s.Net_stats.messages,
      s.Net_stats.payload_bytes,
      List.map
        (fun (r : Group.latency_record) -> (r.id, Time.to_ns r.first_delivery))
        (Group.latencies g) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical histories" true (a = b)

let test_seed_changes_history () =
  let run seed =
    let params = { (Params.default ~n:3) with Params.seed } in
    let g = Group.create ~kind:Replica.Modular ~params ~record_deliveries:false () in
    let gen =
      Repro_workload.Generator.start g ~offered_load:1500.0 ~size:2048
        ~arrival:Repro_workload.Generator.Poisson ()
    in
    Group.run_for g (Time.span_s 1);
    Repro_workload.Generator.stop gen;
    (Net_stats.snapshot (Group.stats g)).Net_stats.messages
  in
  Alcotest.(check bool) "different seeds, different histories" true (run 1 <> run 2)

let test_boundary_crossings_modular_vs_mono () =
  (* The framework diagnostic: the modular composition crosses module
     boundaries several times per message; the monolithic one pays only the
     network hand-over. *)
  let crossings kind =
    let params = Params.default ~n:3 in
    let g = Group.create ~kind ~params ~record_deliveries:false () in
    for i = 0 to 29 do
      Group.abcast g (i mod 3) ~size:128
    done;
    ignore (Group.run_until_quiescent g ~limit:(Time.span_s 30) ());
    let total =
      List.fold_left
        (fun acc p ->
          acc + Repro_framework.Stack.boundary_crossings (Replica.stack (Group.replica g p)))
        0 (Pid.all ~n:3)
    in
    (total, Replica.delivered_count (Group.replica g 0))
  in
  let mod_crossings, d1 = crossings Replica.Modular in
  let mono_crossings, d2 = crossings Replica.Monolithic in
  Alcotest.(check int) "same deliveries" d1 d2;
  Alcotest.(check bool)
    (Printf.sprintf "modular crosses boundaries more (%d vs %d)" mod_crossings
       mono_crossings)
    true
    (mod_crossings > 2 * mono_crossings)

let test_stack_composition_reported () =
  let params = Params.default ~n:3 in
  let g_mod = Group.create ~kind:Replica.Modular ~params () in
  let names g =
    List.map
      (fun m -> m.Repro_framework.Stack.name)
      (Repro_framework.Stack.modules (Replica.stack (Group.replica g 0)))
  in
  Alcotest.(check (list string)) "modular composition" [ "ABcast"; "Consensus"; "RBcast" ]
    (names g_mod);
  let g_mono = Group.create ~kind:Replica.Monolithic ~params () in
  Alcotest.(check (list string)) "monolithic composition" [ "ABcast+" ] (names g_mono)

let test_headline_comparison () =
  (* End-to-end sanity of the paper's headline on a short run: at a
     saturating load, the monolithic stack sends fewer messages and fewer
     bytes, and delivers with lower early latency. *)
  let measure kind =
    let params = Params.default ~n:3 in
    let g = Group.create ~kind ~params ~record_deliveries:false () in
    let gen = Repro_workload.Generator.start g ~offered_load:3000.0 ~size:8192 () in
    Group.run_for g (Time.span_s 2);
    Repro_workload.Generator.stop gen;
    let s = Net_stats.snapshot (Group.stats g) in
    let lats =
      Group.latencies g
      |> List.map (fun (r : Group.latency_record) ->
             Time.span_to_ms_float (Time.diff r.first_delivery r.abcast_at))
    in
    let delivered = Replica.delivered_count (Group.replica g 0) in
    ( float_of_int s.Net_stats.messages /. float_of_int delivered,
      float_of_int s.Net_stats.payload_bytes /. float_of_int delivered,
      Stats.mean lats )
  in
  let mod_msgs, mod_bytes, mod_lat = measure Replica.Modular in
  let mono_msgs, mono_bytes, mono_lat = measure Replica.Monolithic in
  Alcotest.(check bool) "fewer messages per delivery" true (mono_msgs < mod_msgs);
  Alcotest.(check bool) "fewer bytes per delivery" true (mono_bytes < mod_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "lower latency (%.2f vs %.2f ms)" mono_lat mod_lat)
    true (mono_lat < mod_lat);
  (* §5.2.2 predicts a byte overhead of (n-1)/(n+1) = 50% at n=3 under a
     perfectly symmetric origin mix; the measured mix over-represents the
     coordinator's free (zero-diffusion-byte) messages, pushing the
     measured overhead somewhat above the closed form. *)
  let overhead = (mod_bytes -. mono_bytes) /. mono_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "byte overhead in the 50%% regime (got %.0f%%)" (100.0 *. overhead))
    true
    (overhead > 0.35 && overhead < 0.80)

let () =
  Alcotest.run "integration"
    [
      ( "state-machine-replication",
        [
          Alcotest.test_case "KV replicas converge (modular)" `Quick
            (smr_converges Replica.Modular);
          Alcotest.test_case "KV replicas converge (monolithic)" `Quick
            (smr_converges Replica.Monolithic);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical seeds, identical histories" `Quick
            test_whole_run_determinism;
          Alcotest.test_case "different seeds differ" `Quick test_seed_changes_history;
        ] );
      ( "framework",
        [
          Alcotest.test_case "boundary crossings" `Quick
            test_boundary_crossings_modular_vs_mono;
          Alcotest.test_case "stack composition" `Quick test_stack_composition_reported;
        ] );
      ( "headline",
        [ Alcotest.test_case "monolithic wins at saturation" `Slow test_headline_comparison ]
      );
    ]
