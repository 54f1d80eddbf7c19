(* The paper in one screen: run the same workload on the modular and the
   monolithic stack and print the cost of modularity — messages, bytes,
   latency, throughput — next to the analytical predictions of §5.2.

   Run with: dune exec examples/modularity_cost.exe *)

open Repro_core
open Repro_workload
module Stats = Repro_obs.Stats

let () =
  let n = 3 and size = 8192 and load = 3000.0 in
  Fmt.pr "workload: n=%d, %d-byte messages, %.0f msgs/s offered (saturating)@.@." n size
    load;

  let run kind =
    Experiment.run
      (Experiment.config ~kind ~n ~offered_load:load ~size ~warmup_s:1.0 ~measure_s:4.0 ())
  in
  let m = run Replica.Modular in
  let mono = run Replica.Monolithic in

  let row label f =
    Fmt.pr "%-28s %14s %14s@." label (f m) (f mono)
  in
  Fmt.pr "%-28s %14s %14s@." "" "modular" "monolithic";
  Fmt.pr "%-28s %14s %14s@." "" "-------" "----------";
  row "early latency (ms)" (fun r ->
      Fmt.str "%.2f ±%.2f" r.Experiment.early_latency_ms.Stats.mean
        r.Experiment.early_latency_ms.Stats.ci95);
  row "throughput (msgs/s)" (fun r -> Fmt.str "%.0f" r.Experiment.throughput);
  row "mean batch M" (fun r -> Fmt.str "%.2f" r.Experiment.mean_batch);
  row "messages / consensus" (fun r -> Fmt.str "%.2f" r.Experiment.msgs_per_instance);
  row "payload bytes / consensus" (fun r -> Fmt.str "%.0f" r.Experiment.bytes_per_instance);
  row "CPU utilization" (fun r -> Fmt.str "%.0f%%" (100.0 *. r.Experiment.cpu_utilization));
  row "module crossings / msg" (fun r ->
      Fmt.str "%.1f" r.Experiment.boundary_crossings_per_msg);

  Fmt.pr "@.-- the cost of modularity --@.";
  Fmt.pr "latency overhead:    %+.0f%%@."
    (100.0
    *. ((m.Experiment.early_latency_ms.Stats.mean
        /. mono.Experiment.early_latency_ms.Stats.mean)
       -. 1.0));
  Fmt.pr "throughput loss:     %+.0f%%@."
    (100.0 *. ((mono.Experiment.throughput /. m.Experiment.throughput) -. 1.0));
  Fmt.pr "message overhead:    %+.0f%%@."
    (100.0
    *. ((m.Experiment.msgs_per_instance /. mono.Experiment.msgs_per_instance) -. 1.0));
  Fmt.pr "byte overhead:       %+.0f%%  (analytical (n-1)/(n+1) = %.0f%%)@."
    (100.0
    *. ((m.Experiment.bytes_per_instance /. mono.Experiment.bytes_per_instance) -. 1.0))
    (100.0 *. Repro_analysis.Model.data_overhead ~n);
  Fmt.pr "@.analytical messages per consensus at M=4 (§5.2.1): modular %d, monolithic %d@."
    (Repro_analysis.Model.modular_messages ~n ~m:4)
    (Repro_analysis.Model.monolithic_messages ~n)
