(* Machine-speed calibration for host timings.

   On a shared host the speed of the CPU and memory this process gets
   drifts by tens of percent over seconds to minutes, so two runs of the
   same ops can differ more than any change worth measuring. The run
   therefore times a fixed reference computation every [period_s]
   seconds, between ops, and scales its timings by [nominal_s /. median
   reference time]: a timing then reads as if the machine had run the
   reference in [nominal_s]. The reference uses no code of the program,
   and a full major collection before it keeps the program's garbage out
   of its time.

   The reference has the simulator's memory profile: short-lived
   allocation, hashing into a table of a few megabytes and a sort. *)

let nominal_s = 0.07
let period_s = 0.5

let reference () =
  let table = Hashtbl.create 1024 in
  let x = ref 12345 in
  for i = 0 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace table (!x land 0x3ffff) (i, !x)
  done;
  let l = Hashtbl.fold (fun k (a, b) acc -> (k + a + b) :: acc) table [] in
  List.length (List.sort compare l)

let samples = ref []
let last = ref neg_infinity

let measure () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (reference ()));
  let t1 = Unix.gettimeofday () in
  samples := (t1 -. t0) :: !samples;
  last := t1

(* Called between ops: measures when [period_s] has passed. *)
let tick () = if Unix.gettimeofday () -. !last >= period_s then measure ()

let reference_s () =
  if !samples = [] then measure ();
  Sample.median !samples

(* Multiply a host time by this to express it at the nominal speed. *)
let factor () = nominal_s /. reference_s ()
