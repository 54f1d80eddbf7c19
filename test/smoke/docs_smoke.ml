(* The @docs-smoke alias: keeps README in lock-step with the binary.

   - CLI: parses the COMMANDS section of `repro --help=plain` and the
     README table rows of the form `| `repro NAME` | ... |`, and requires
     the two subcommand sets to be identical — adding, renaming or
     removing a subcommand fails `dune runtest` until the documentation
     follows.
   - Metrics: every metric name in the `--metrics-out` JSONL of a short
     `repro run` of each stack must be declared in the schema (itself,
     or as an instance of a `<placeholder>` family), and every
     deterministic metric `repro metrics --list` prints must have a row
     `| `NAME` | ... |` in README's metrics table.

   Wired into `dune runtest`. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("docs-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let read_lines path =
  let ic = try open_in path with Sys_error e -> fail "cannot open %s: %s" path e in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Run [cmd] through the shell, returning its standard output's lines. *)
let command_lines what cmd =
  let out = Filename.temp_file "docs_smoke_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s" cmd (Filename.quote out)) in
  if code <> 0 then fail "%s exited with %d" what code;
  let lines = read_lines out in
  Sys.remove out;
  lines

(* Subcommand names from the COMMANDS section: entry lines are indented
   with exactly seven spaces and start with the command name; the section
   ends at the next column-0 header. *)
let help_commands repro =
  let lines =
    command_lines "repro --help=plain"
      (Printf.sprintf "%s --help=plain" (Filename.quote repro))
  in
  let in_section = ref false in
  let names = ref [] in
  List.iter
    (fun line ->
      if line = "COMMANDS" then in_section := true
      else if !in_section && line <> "" && line.[0] <> ' ' then in_section := false
      else if
        !in_section
        && String.length line > 7
        && String.sub line 0 7 = "       "
        && line.[7] <> ' '
      then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.index_opt rest ' ' with
        | Some i -> names := String.sub rest 0 i :: !names
        | None -> names := rest :: !names
      end)
    lines;
  List.sort_uniq compare !names

(* (name, determinism) of every declared metric. *)
let declared_metrics repro =
  List.filter_map
    (fun line ->
      match List.filter (fun w -> w <> "") (String.split_on_char ' ' line) with
      | [] -> None
      | [ name; _kind; _unit; _layer; det ] -> Some (name, det)
      | _ -> fail "unexpected `repro metrics --list` line: %s" line)
    (command_lines "repro metrics --list"
       (Printf.sprintf "%s metrics --list" (Filename.quote repro)))

(* Metric names in the --metrics-out JSONL of a short run of each stack. *)
let emitted_metrics repro =
  List.concat_map
    (fun stack ->
      let out = Filename.temp_file "docs_smoke_metrics" ".jsonl" in
      ignore
        (command_lines ("repro run --stack " ^ stack)
           (Printf.sprintf
              "%s run --stack %s -n 3 --load 500 --size 1024 --warmup 0.2 --measure 0.5 \
               --metrics-out %s"
              (Filename.quote repro) stack (Filename.quote out)));
      let lines = read_lines out in
      Sys.remove out;
      List.map
        (fun line ->
          match Repro_obs.Jsonl.parse line with
          | Ok j -> (
            match Repro_obs.Jsonl.(to_string_opt (member "name" j)) with
            | Some name -> name
            | None -> fail "metric line without a name: %s" line)
          | Error e -> fail "unparsable metric line (%s): %s" e line)
        lines)
    [ "modular"; "indirect"; "monolithic" ]

(* First-cell names of README table rows of the form `| `NAME` | ... |`. *)
let readme_table_names readme =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"| `" line then
        let rest = String.sub line 3 (String.length line - 3) in
        Option.map (fun i -> String.sub rest 0 i) (String.index_opt rest '`')
      else None)
    (read_lines readme)

(* Subcommand names from the README quick-reference rows. *)
let readme_commands readme =
  let prefix = "| `repro " in
  let names = ref [] in
  List.iter
    (fun line ->
      let plen = String.length prefix in
      if String.length line > plen && String.sub line 0 plen = prefix then begin
        let rest = String.sub line plen (String.length line - plen) in
        match String.index_opt rest '`' with
        | Some i -> names := String.sub rest 0 i :: !names
        | None -> fail "unterminated command cell in README row: %s" line
      end)
    (read_lines readme);
  List.sort_uniq compare !names

let () =
  let repro, readme =
    match Sys.argv with
    | [| _; repro; readme |] -> (repro, readme)
    | _ -> fail "usage: docs_smoke REPRO_EXE README.md"
  in
  let from_help = help_commands repro in
  let from_readme = readme_commands readme in
  if from_help = [] then fail "no subcommands parsed from repro --help=plain";
  if from_readme = [] then fail "no `| `repro NAME` |` rows found in %s" readme;
  let missing l set = List.filter (fun c -> not (List.mem c set)) l in
  (match missing from_help from_readme with
  | [] -> ()
  | l ->
    fail "subcommands missing from the README quick-reference table: %s"
      (String.concat ", " l));
  (match missing from_readme from_help with
  | [] -> ()
  | l ->
    fail "README documents subcommands the binary does not have: %s"
      (String.concat ", " l));
  let declared = declared_metrics repro in
  if declared = [] then fail "repro metrics --list printed no metrics";
  let emitted = List.sort_uniq compare (emitted_metrics repro) in
  if emitted = [] then fail "repro run --metrics-out wrote no metric lines";
  (match List.filter (fun name -> Repro_obs.Metric.find name = None) emitted with
  | [] -> ()
  | l -> fail "metrics emitted but not declared: %s" (String.concat ", " l));
  let documented = readme_table_names readme in
  (match
     List.filter_map
       (fun (name, det) ->
         if det = "deterministic" && not (List.mem name documented) then Some name else None)
       declared
   with
  | [] -> ()
  | l ->
    fail "declared deterministic metrics missing from README's metrics table: %s"
      (String.concat ", " l));
  Printf.printf
    "docs-smoke: OK (%d subcommands in sync; %d emitted metric names declared; %d declared \
     metrics, deterministic ones documented)\n"
    (List.length from_help) (List.length emitted) (List.length declared)
