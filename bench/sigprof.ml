(* SIGPROF sampling profile of one stack on the paper-n7 cell (n = 7,
   2000 msgs/s Poisson, 1 KiB, 1 s warm-up + 9 s measured, seed 0; -n
   changes the group size only). Every millisecond of process CPU time a
   handler reads the call stack and charges the sample to one source line:

     --by line  the innermost frame with a location (stdlib included);
     --by lib   the innermost frame in a lib/ source file, so time in the
                stdlib's Hashtbl, Set or Map is charged to the lib/ line
                that called it.

   Prints the 30 lines with most samples, then (--by lib) the same samples
   summed per file. Run it from a build with debug info (dune's dev and
   release profiles both have it):

     sigprof.exe --stack indirect -n 7 --reps 8 --by lib

   OCaml runs a signal handler at the next poll point, and allocation is
   one, so a sample taken during a collection lands on the line whose
   allocation triggered it: GC time is charged to allocating lines. Inline
   frames are attributed to their caller. Treat shares as directional. *)

open Repro_core
open Repro_workload

let usage () =
  prerr_endline
    "usage: sigprof [--stack modular|indirect|monolithic] [-n N] [--reps R] [--by line|lib]";
  exit 2

let () =
  let stack = ref Replica.Indirect and n = ref 7 and reps = ref 1 and by_lib = ref true in
  let positive v = match int_of_string_opt v with Some i when i > 0 -> i | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--stack" :: v :: rest ->
      (stack :=
         match v with
         | "modular" -> Replica.Modular
         | "indirect" -> Replica.Indirect
         | "monolithic" -> Replica.Monolithic
         | _ -> usage ());
      parse rest
    | ("-n" | "--group-size") :: v :: rest ->
      n := positive v;
      parse rest
    | "--reps" :: v :: rest ->
      reps := positive v;
      parse rest
    | "--by" :: v :: rest ->
      (by_lib := match v with "lib" -> true | "line" -> false | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let counts : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let total = ref 0 in
  let charge key = Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)) in
  let keep (l : Printexc.location) =
    let f = l.Printexc.filename in
    (not (String.ends_with ~suffix:"sigprof.ml" f))
    && ((not !by_lib) || String.starts_with ~prefix:"lib/" f)
  in
  let record () =
    let cs = Printexc.get_callstack (if !by_lib then 64 else 8) in
    let rec pick i =
      if i >= Printexc.raw_backtrace_length cs then "?"
      else
        match
          Printexc.Slot.location
            (Printexc.convert_raw_backtrace_slot (Printexc.get_raw_backtrace_slot cs i))
        with
        | Some l when keep l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
        | Some _ | None -> pick (i + 1)
    in
    incr total;
    charge (pick 0)
  in
  let config =
    Experiment.config ~kind:!stack ~n:!n ~offered_load:2000.0 ~size:1024 ~warmup_s:1.0
      ~measure_s:9.0 ~seed:0 ~arrival:Generator.Poisson ()
  in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> record ()));
  let tick = { Unix.it_value = 0.001; it_interval = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let events = ref 0 in
  let cpu0 = Sys.time () in
  for _ = 1 to !reps do
    let r = Experiment.run config in
    events := !events + r.Experiment.events_executed
  done;
  let cpu_ms = (Sys.time () -. cpu0) *. 1000.0 in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_value = 0.0; it_interval = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  (* A tick that arrives while one is pending is lost, so the samples
     can fall well short of the CPU milliseconds; print both. *)
  Printf.printf "sigprof: %s n=%d reps=%d by=%s: %d samples, %.0f ms CPU, %d events\n"
    (Experiment.kind_name !stack) !n !reps
    (if !by_lib then "lib" else "line")
    !total cpu_ms !events;
  let top = 30 in
  let share c = 100.0 *. float_of_int c /. float_of_int (max 1 !total) in
  let print_sorted tbl =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
    |> List.sort (fun (k1, c1) (k2, c2) -> if c1 <> c2 then Int.compare c2 c1 else String.compare k1 k2)
    |> List.iteri (fun i (k, c) -> if i < top then Printf.printf "%6d %5.1f%%  %s\n" c (share c) k)
  in
  print_sorted counts;
  if !by_lib then begin
    let files : (string, int) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun k c ->
        let f = match String.rindex_opt k ':' with Some i -> String.sub k 0 i | None -> k in
        Hashtbl.replace files f (c + Option.value ~default:0 (Hashtbl.find_opt files f)))
      counts;
    print_endline "per file:";
    print_sorted files
  end
