(* The @bench-smoke alias: end-to-end check of the benchmark regression
   pipeline through the public executables. Runs the tiny seeded benchmark
   (bench --smoke --json-out), validates the report, then drives
   `repro compare` against the identical report (must exit 0), a
   synthetically regressed copy (must exit nonzero), a copy whose
   events_executed differs (must exit nonzero) and a copy that differs in
   events_executed and mode (informational only: must exit 0). Then runs
   the SIGPROF profiler once at n = 3 and checks that it took samples and
   charged them to lib/ files. Wired into `dune runtest`. *)

module Br = Repro_analysis.Bench_report

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let command bin args =
  let cmd = String.concat " " (List.map Filename.quote (bin :: args)) in
  Sys.command (cmd ^ " > /dev/null")

let run_cli bin args =
  let code = command bin args in
  if code <> 0 then fail "%s %s exited with %d" bin (String.concat " " args) code

let () =
  let bench_exe, repro_bin, sigprof_exe =
    match Sys.argv with
    | [| _; bench; repro; sigprof |] -> (bench, repro, sigprof)
    | _ -> fail "usage: bench_smoke BENCH_EXE REPRO_BIN SIGPROF_EXE"
  in
  let report_path = "bench_smoke.json" in
  run_cli bench_exe [ "--smoke"; "--json-out"; report_path ];
  let report =
    match Br.read_file report_path with
    | Ok r -> r
    | Error e -> fail "report unreadable: %s" e
  in
  if report.Br.entries = [] then fail "report has no bench_entry lines";
  if report.Br.breakdown = [] then fail "report has no critical-path breakdown";
  List.iter
    (fun (e : Br.entry) ->
      if Float.is_nan e.Br.median || e.Br.median <= 0.0 then
        fail "entry %s has a degenerate median %g" e.Br.name e.Br.median)
    report.Br.entries;
  (* Identical inputs: the gate must pass. *)
  run_cli repro_bin [ "compare"; report_path; report_path ];
  (* Inject a synthetic regression — worse in each metric's own bad
     direction, far beyond IQR and the 3% threshold — and require the gate
     to fail. *)
  let regressed_path = "bench_smoke_regressed.json" in
  let regressed =
    {
      report with
      Br.entries =
        List.map
          (fun (e : Br.entry) ->
            {
              e with
              Br.median =
                (if e.Br.higher_is_better then e.Br.median *. 0.5
                 else e.Br.median *. 1.5);
            })
          report.Br.entries;
    }
  in
  Br.write_file regressed_path regressed;
  (match command repro_bin [ "compare"; report_path; regressed_path ] with
  | 0 -> fail "compare accepted a 50%% synthetic regression"
  | _ -> ());
  (* events_executed is deterministic: a report of the same mode with
     other counts must fail the gate even with identical entries. *)
  let with_meta path changes =
    let meta =
      List.map
        (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k changes)))
        report.Br.meta
    in
    if not (List.mem_assoc "events_executed" report.Br.meta) then
      fail "report has no events_executed";
    Br.write_file path { report with Br.meta };
    path
  in
  let events = [ ("events_executed", "1") ] in
  (match command repro_bin [ "compare"; report_path; with_meta "bench_smoke_events.json" events ] with
  | 0 -> fail "compare accepted a changed events_executed"
  | _ -> ());
  run_cli repro_bin
    [
      "compare";
      report_path;
      with_meta "bench_smoke_mode.json" (("mode", "other") :: events);
    ];
  let profile_path = "bench_smoke_sigprof.txt" in
  let args = [ "--stack"; "modular"; "-n"; "3"; "--reps"; "1"; "--by"; "lib" ] in
  let cmd = String.concat " " (List.map Filename.quote (sigprof_exe :: args)) in
  (match Sys.command (cmd ^ " > " ^ Filename.quote profile_path) with
  | 0 -> ()
  | code -> fail "sigprof exited with %d" code);
  let lines = In_channel.with_open_text profile_path In_channel.input_all |> String.split_on_char '\n' in
  (match lines with
  | header :: _ -> (
    match Scanf.sscanf_opt header "sigprof: modular n=3 reps=1 by=lib: %d samples" Fun.id with
    | Some samples when samples > 0 -> ()
    | Some _ | None -> fail "sigprof took no samples: %S" header)
  | [] -> fail "sigprof printed nothing");
  let charged_to_lib l =
    List.exists (String.starts_with ~prefix:"lib/") (String.split_on_char ' ' l)
  in
  if not (List.exists charged_to_lib lines) then
    fail "sigprof charged no sample to a lib/ line";
  print_endline "bench-smoke: OK"
