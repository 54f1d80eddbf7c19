(* Layer kernels: each one times calls into a single layer's public
   functions on seeded synthetic inputs, checks the layer's output, and
   returns host nanoseconds per call. They isolate a layer's own cost from
   the engine loop that hides it in a whole simulation. *)

open Repro_sim
open Repro_net
module Event_bus = Repro_framework.Event_bus
module Monitor = Repro_fault.Monitor

let ns_per ~calls seconds = seconds *. 1e9 /. float_of_int calls

(* sim: a near-monotone timer mix, as the protocol layers produce it. The
   clock only moves forward through pops; pushes land a short way ahead on
   a 1 µs grid, so equal-time ties are common; every fourth push is a
   timeout that is cancelled half the time. *)
let queue ~seed ~steps =
  let rng = Rng.create ~seed in
  let q : int Event_queue.t = Event_queue.create () in
  let timeouts = Array.make 64 None in
  let clock = ref 0 and calls = ref 0 in
  let push ahead_us =
    incr calls;
    Event_queue.push q ~time:(Time.of_ns (!clock + (ahead_us * 1000))) 0
  in
  for _ = 1 to 1024 do
    ignore (push (Rng.int rng 64))
  done;
  let run () =
    for i = 1 to steps do
      ignore (push (Rng.int rng 64));
      if i land 3 = 0 then begin
        let slot = Rng.int rng (Array.length timeouts) in
        (match timeouts.(slot) with
        | Some h when Rng.bool rng ->
          incr calls;
          Event_queue.cancel q h
        | _ -> ());
        timeouts.(slot) <- Some (push (1000 + Rng.int rng 1000))
      end;
      incr calls;
      match Event_queue.pop q with
      | Some (at, _) ->
        let at = Time.to_ns at in
        if at < !clock then failwith "queue kernel: pop went back in time";
        clock := at
      | None -> failwith "queue kernel: queue ran dry"
    done
  in
  let (), s = Workloads.timed run in
  ns_per ~calls:!calls s

(* net: one copy is one message delivered to one destination through the
   bare network (CPU and NIC costs, propagation, handler dispatch). *)
let net_copy ~seed ~multicasts =
  let n = 7 in
  let engine = Engine.create ~seed () in
  let net = Network.create engine ~n ~payload_bytes:(fun (_ : int) -> 1024) () in
  let received = ref 0 in
  List.iter
    (fun p -> Network.register net p (fun ~src:_ _ -> incr received))
    (Pid.all ~n);
  let rng = Rng.create ~seed in
  let run () =
    for i = 0 to multicasts - 1 do
      let src = Rng.int rng n in
      Engine.post_at engine (Time.of_ns (i * 1_000_000)) (fun () ->
          Network.multicast net ~src ~dsts:(Pid.others ~n src) i)
    done;
    Engine.run engine
  in
  let (), s = Workloads.timed run in
  let copies = multicasts * (n - 1) in
  if !received <> copies then
    failwith (Printf.sprintf "net kernel: %d of %d copies delivered" !received copies);
  ns_per ~calls:copies s

(* framework: one emit dispatched to three subscribers. *)
let emit ~seed ~emits =
  let engine = Engine.create ~seed () in
  let bus = Event_bus.create ~cpu:(Cpu.create engine) ~dispatch_cost:(Time.span_ns 100) in
  let port : int Event_bus.port = Event_bus.port bus "perfbench" in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Event_bus.subscribe port (fun v -> sum := !sum + v)
  done;
  let rng = Rng.create ~seed in
  let values = Array.init 1024 (fun _ -> Rng.int rng 1000) in
  let run () =
    for i = 0 to emits - 1 do
      Event_bus.emit port values.(i land 1023)
    done
  in
  let (), s = Workloads.timed run in
  let expected = ref 0 in
  for i = 0 to emits - 1 do
    expected := !expected + (3 * values.(i land 1023))
  done;
  if !sum <> !expected || Event_bus.emissions bus <> emits then
    failwith "framework kernel: wrong dispatch";
  ns_per ~calls:emits s

(* fault: the invariant monitor observing a correct run — five processes
   adelivering one seeded total order of identities, interleaved. *)
let monitor_observe ~seed ~msgs =
  let n = 5 in
  let mon = Monitor.create ~seed ~n () in
  let rng = Rng.create ~seed in
  let next_seq = Array.make n 0 in
  let order =
    Array.init msgs (fun _ ->
        let origin = Rng.int rng n in
        let seq = next_seq.(origin) in
        next_seq.(origin) <- seq + 1;
        { Repro_core.App_msg.origin; seq })
  in
  let run () =
    Array.iter
      (fun id ->
        for p = 0 to n - 1 do
          Monitor.observe mon ~fingerprint:1024 p id
        done)
      order
  in
  let (), s = Workloads.timed run in
  if Monitor.violations mon <> [] then failwith "fault kernel: violation on a correct run";
  ns_per ~calls:(msgs * n) s
