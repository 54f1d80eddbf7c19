type kind = Counter | Gauge | Histogram
type determinism = Deterministic | Host
type layer = [ Span.layer | `Run ]

type spec = {
  name : string;
  kind : kind;
  unit : string;
  layer : layer;
  det : determinism;
  edges : float array;
}

let counter_spec ?(det = Deterministic) name unit layer =
  { name; kind = Counter; unit; layer; det; edges = [||] }

let gauge_spec name unit layer =
  { name; kind = Gauge; unit; layer; det = Deterministic; edges = [||] }

let histogram_spec name layer =
  {
    name;
    kind = Histogram;
    unit = "ms";
    layer;
    det = Deterministic;
    edges = Histogram.default_edges;
  }

(* The schema. Counters are cumulative over a whole execution (warm-up
   included); the [run.*] gauges are the measurement window's summaries.
   README's metrics table documents every deterministic entry, which the
   @docs-smoke alias checks. *)
let schema =
  [|
    (* Wire traffic, split by the layer that sent each copy and by kind. *)
    counter_spec "net.msgs.<layer>" "msgs" `Net;
    counter_spec "net.payload_bytes.<layer>" "bytes" `Net;
    counter_spec "net.wire_bytes.<layer>" "bytes" `Net;
    counter_spec "net.kind_msgs.<kind>" "msgs" `Net;
    counter_spec "net.dropped_msgs" "msgs" `Net;
    counter_spec "net.corrupt_detected" "msgs" `Net;
    counter_spec "net.adv.dropped" "msgs" `Net;
    counter_spec "net.adv.corrupted" "msgs" `Net;
    counter_spec "net.adv.duplicated" "msgs" `Net;
    counter_spec "net.adv.reordered" "msgs" `Net;
    counter_spec "net.adv.equivocated" "msgs" `Net;
    counter_spec "rchannel.retransmissions" "msgs" `Net;
    counter_spec "rchannel.duplicates" "msgs" `Net;
    (* Protocol steps. *)
    counter_spec "rbcast.broadcasts" "count" `Rbcast;
    counter_spec "rbcast.delivers" "count" `Rbcast;
    counter_spec "rbcast.relays" "count" `Rbcast;
    counter_spec "consensus.proposals" "count" `Consensus;
    counter_spec "consensus.estimates" "count" `Consensus;
    counter_spec "consensus.acks" "count" `Consensus;
    counter_spec "consensus.decisions" "count" `Consensus;
    counter_spec "abcast.abcasts" "count" `Abcast;
    counter_spec "abcast.adelivers" "count" `Abcast;
    counter_spec "abcast.decisions" "count" `Abcast;
    histogram_spec "consensus.decide_ms" `Consensus;
    histogram_spec "abcast.e2e_ms" `Abcast;
    (* Run summaries over the measurement window. *)
    gauge_spec "run.instances" "instances" `Run;
    gauge_spec "run.window_s" "s" `Run;
    gauge_spec "run.mean_batch" "msgs" `Run;
    gauge_spec "run.throughput" "msgs/s" `Run;
    gauge_spec "run.msgs_per_instance" "msgs" `Run;
    (* Per-cell results of the robustness and scale studies. *)
    gauge_spec "study.<stack>.<scenario>.latency_ms" "ms" `Run;
    gauge_spec "study.<stack>.<scenario>.throughput" "msgs/s" `Run;
    gauge_spec "study.adv.<stack>.<level>.latency_ms" "ms" `Run;
    gauge_spec "study.adv.<stack>.<level>.throughput" "msgs/s" `Run;
    gauge_spec "scale.<stack>.s<shards>.c<clients>.latency_ms" "ms" `Run;
    gauge_spec "scale.<stack>.s<shards>.c<clients>.throughput" "msgs/s" `Run;
    (* Time-travel recording. *)
    counter_spec "snapshots_taken" "frames" `Run;
    counter_spec ~det:Host "snapshot_bytes" "bytes" `Run;
    counter_spec "restore_count" "count" `Run;
  |]

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let layer_name : layer -> string = function
  | #Span.layer as l -> Span.layer_name l
  | `Run -> "run"

let determinism_name = function Deterministic -> "deterministic" | Host -> "host"

(* A name segment: literal text, or a placeholder [prefix<what>] that
   matches any segment extending [prefix] by at least one character. *)
type segment = Literal of string | Placeholder of string

let parse name =
  List.map
    (fun seg ->
      match String.index_opt seg '<' with
      | Some i when String.ends_with ~suffix:">" seg -> Placeholder (String.sub seg 0 i)
      | _ -> Literal seg)
    (String.split_on_char '.' name)

let is_family spec = String.contains spec.name '<'

let matches_pattern pattern name =
  let ns = String.split_on_char '.' name in
  List.length pattern = List.length ns
  && List.for_all2
       (fun p n ->
         match p with
         | Literal l -> String.equal l n
         | Placeholder prefix ->
           String.length n > String.length prefix && String.starts_with ~prefix n)
       pattern ns

(* The schema's families, parsed once. *)
let families =
  List.filter_map
    (fun i -> if is_family schema.(i) then Some (i, parse schema.(i).name) else None)
    (List.init (Array.length schema) Fun.id)

let find name =
  let n = Array.length schema in
  let rec exact i =
    if i >= n then None else if String.equal schema.(i).name name then Some i else exact (i + 1)
  in
  match exact 0 with
  | Some i -> Some i
  | None ->
    List.find_map
      (fun (i, pattern) -> if matches_pattern pattern name then Some i else None)
      families

let conflict (a : spec) (b : spec) =
  if a.kind <> b.kind then
    Some (Printf.sprintf "kind %s vs %s" (kind_name a.kind) (kind_name b.kind))
  else if
    not
      (Array.length a.edges = Array.length b.edges
      && Array.for_all2 (fun x y -> Float.equal x y) a.edges b.edges)
  then Some "histogram edges differ"
  else None

type counter = int
type gauge = int
type histogram = int

let counter_of_int h = h
let gauge_of_int h = h
let histogram_of_int h = h

let static kind name =
  let declared s = String.equal s.name name && s.kind = kind && not (is_family s) in
  match find name with
  | Some i when declared schema.(i) -> i
  | _ ->
    invalid_arg
      (Printf.sprintf "Metric.%s: %S is not a declared %s" (kind_name kind) name (kind_name kind))

let counter name = static Counter name
let gauge name = static Gauge name
let histogram name = static Histogram name

let check specs =
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun j s' ->
          if j > i && String.equal s.name s'.name then
            invalid_arg (Printf.sprintf "Metric.schema: %S is declared twice" s.name))
        specs)
    specs

(* Declared once: a duplicate name in the schema is a programming error
   caught the first time the library is loaded. *)
let () = check schema
