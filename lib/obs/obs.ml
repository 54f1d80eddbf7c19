open Repro_sim
module Span = Span
module Metric = Metric

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]

let layer_name = Span.layer_name
let all_layers : layer list = Span.all_layers

type event = { at : Time.t; pid : int; layer : layer; phase : string; detail : string }

(* One metric's value in a sink. [set] marks a counter or gauge written
   at least once: only those are exported, a counter added 0 included. *)
type slot = {
  spec : Metric.spec;
  mutable set : bool;
  mutable count : int;
  mutable value : float;
  mutable hist : Histogram.t option;
}

type t = {
  enabled : bool;
  mutable now : unit -> Time.t;
  (* Indexed by handle: the schema's entries first (so the handles of
     [Metric]'s plain entries are valid in every sink), then the family
     instances and ad hoc names this sink has resolved, in resolution
     order. *)
  mutable slots : slot array;
  trace : event Trace.t;
  spans : Span.t Trace.t;
  max_events : int;
  mutable dropped_events : int;
  mutable dropped_spans : int;
  mutable next_sid : int;
  mutable ctx : int;
}

let n_static = Array.length Metric.schema
let slot spec = { spec; set = false; count = 0; value = 0.0; hist = None }

let make ~enabled ~max_events =
  let now = ref (fun () -> Time.zero) in
  {
    enabled;
    now = (fun () -> !now ());
    slots = Array.map slot Metric.schema;
    trace = Trace.create_with_clock (fun () -> !now ());
    spans = Trace.create_with_clock (fun () -> !now ());
    max_events;
    dropped_events = 0;
    dropped_spans = 0;
    next_sid = 0;
    ctx = Span.no_parent;
  }

(* The shared no-op sink: disabled forever, so every instrumentation call
   reduces to one branch. A single instance is safe because a disabled
   sink never mutates its tables. *)
let noop = make ~enabled:false ~max_events:0

let create ?(max_events = 2_000_000) () = make ~enabled:true ~max_events

(* A sibling sink for one parallel task: same retention cap, same
   enabledness. [create_like noop] is [noop], so callers can split any
   sink per task and absorb the pieces back without special-casing the
   disabled path. *)
let create_like t = if t.enabled then make ~enabled:true ~max_events:t.max_events else t

let set_clock t now =
  if t.enabled then begin
    t.now <- now;
    Trace.set_clock t.trace now;
    Trace.set_clock t.spans now
  end

let of_engine engine =
  let t = create () in
  set_clock t (fun () -> Engine.now engine);
  t

let enabled t = t.enabled

(* Metrics and tracing are separable: a [max_events = 0] sink keeps full
   counters while retaining no events or spans. Hot paths that build an
   event's [detail] string ask this before formatting — with tracing off
   the string would be allocated only to be dropped inside [event]. *)
let tracing t = t.enabled && t.max_events > 0
let now t = t.now ()

(* ---- Metric resolution (cold) ---- *)

(* The handle of a name this sink resolved past the schema (a scan, but
   only cold code asks). *)
let resolved t name =
  let rec scan h =
    if h >= Array.length t.slots then None
    else if String.equal t.slots.(h).spec.Metric.name name then Some h
    else scan (h + 1)
  in
  scan n_static

(* The handle [name] has in this sink, if any: one it resolved, or a
   plain schema entry. *)
let handle_of_name t name =
  match resolved t name with
  | Some h -> Some h
  | None -> (
    match Metric.find name with
    | Some i
      when String.equal Metric.schema.(i).Metric.name name
           && not (Metric.is_family Metric.schema.(i)) ->
      Some i
    | _ -> None)

let append t spec =
  t.slots <- Array.append t.slots [| slot spec |];
  Array.length t.slots - 1

(* Resolve [name] as a [kind]: a plain schema entry's constant handle, or
   a family instance or ad hoc name declared in this sink once. A
   declared name must be resolved as the kind (and, for histograms, with
   the edges) it was declared with; an ad hoc name takes the fixed
   defaults. Only [absorb] and [restore] pass [edges], to carry a
   histogram's declaration over from another sink. A disabled sink
   records nothing, so it answers a placeholder handle that is never
   dereferenced (every update is guarded by [enabled]) and checks
   nothing: components resolve their handles on [noop] for free. *)
let resolve kind t ?edges name =
  let agree (declared : Metric.spec) =
    let wanted =
      { declared with Metric.kind; edges = Option.value edges ~default:declared.Metric.edges }
    in
    match Metric.conflict declared wanted with
    | None -> ()
    | Some why -> invalid_arg (Printf.sprintf "Obs: metric %S declared twice: %s" name why)
  in
  if not t.enabled then 0
  else
    match resolved t name with
    | Some h ->
      agree t.slots.(h).spec;
      h
    | None -> (
      match Metric.find name with
      | Some i ->
        let spec = Metric.schema.(i) in
        agree spec;
        if Metric.is_family spec then append t { spec with Metric.name } else i
      | None ->
        let default_edges = if kind = Metric.Histogram then Histogram.default_edges else [||] in
        append t
          {
            Metric.name;
            kind;
            unit = "count";
            layer = `Run;
            det = Metric.Deterministic;
            edges = Option.value edges ~default:default_edges;
          })

let resolve_counter t name = Metric.counter_of_int (resolve Metric.Counter t name)
let resolve_gauge t name = Metric.gauge_of_int (resolve Metric.Gauge t name)
let resolve_histogram t name = Metric.histogram_of_int (resolve Metric.Histogram t name)

(* ---- Metric updates (hot) ---- *)

let incr t (h : Metric.counter) =
  if t.enabled then begin
    let s = t.slots.((h :> int)) in
    s.count <- s.count + 1;
    s.set <- true
  end

let add t (h : Metric.counter) by =
  if t.enabled then begin
    let s = t.slots.((h :> int)) in
    s.count <- s.count + by;
    s.set <- true
  end

let set_gauge t (h : Metric.gauge) v =
  if t.enabled then begin
    let s = t.slots.((h :> int)) in
    s.value <- v;
    s.set <- true
  end

let histogram t h =
  let s = t.slots.(h) in
  match s.hist with
  | Some hist -> hist
  | None ->
    let hist = Histogram.create ~edges:s.spec.Metric.edges () in
    s.hist <- Some hist;
    hist

let observe t (h : Metric.histogram) v =
  if t.enabled then Histogram.observe (histogram t (h :> int)) v

let observe_span t (h : Metric.histogram) span =
  if t.enabled then Histogram.observe_span (histogram t (h :> int)) span

let observe_since t (h : Metric.histogram) since =
  if t.enabled then
    let at = t.now () in
    (* A sink whose clock was never wired (or an event stamped before the
       clock advanced) must not crash the protocol it observes. *)
    if Time.(at >= since) then
      Histogram.observe_span (histogram t (h :> int)) (Time.diff at since)

(* ---- Metric reads (by name, cold) ---- *)

let lookup t kind name =
  match handle_of_name t name with
  | Some h when t.slots.(h).spec.Metric.kind = kind -> Some t.slots.(h)
  | _ -> None

let counter_value t name =
  match lookup t Metric.Counter name with Some s when s.set -> s.count | _ -> 0

let gauge_value t name =
  match lookup t Metric.Gauge name with Some s when s.set -> Some s.value | _ -> None

let histogram_summary t name =
  match lookup t Metric.Histogram name with
  | Some s -> Option.map Histogram.summary s.hist
  | None -> None

(* Every recorded metric of one kind, sorted by name. *)
let recorded t kind value =
  Array.to_list t.slots
  |> List.filter_map (fun s ->
         if s.spec.Metric.kind = kind then Option.map (fun v -> (s.spec.Metric.name, v)) (value s)
         else None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = recorded t Metric.Counter (fun s -> if s.set then Some s.count else None)
let gauges t = recorded t Metric.Gauge (fun s -> if s.set then Some s.value else None)
let histograms t = recorded t Metric.Histogram (fun s -> s.hist)

(* ---- Trace ---- *)

let event t ~pid ~layer ~phase ?(detail = "") () =
  if t.enabled then begin
    if Trace.length t.trace < t.max_events then
      Trace.record t.trace { at = t.now (); pid; layer; phase; detail }
    else t.dropped_events <- t.dropped_events + 1
  end

let events t = Trace.events t.trace
let event_count t = Trace.length t.trace
let dropped_events t = t.dropped_events
let trace t = t.trace

(* ---- Causal spans ----

   Ids count up from 1 whether or not the record is retained, so a trace
   truncated by [max_events] still has globally consistent parent links
   (children of a dropped span reference an id that is simply absent). *)

let span t ?parent ~pid ~layer ~phase ?(detail = "") () =
  if not t.enabled then Span.no_parent
  else begin
    let parent = match parent with Some p -> p | None -> t.ctx in
    let sid = t.next_sid + 1 in
    t.next_sid <- sid;
    if Trace.length t.spans < t.max_events then
      Trace.record t.spans { Span.sid; parent; at = t.now (); pid; layer; phase; detail }
    else t.dropped_spans <- t.dropped_spans + 1;
    sid
  end

let span_ctx t = if t.enabled then t.ctx else Span.no_parent
let set_span_ctx t sid = if t.enabled then t.ctx <- sid

(* The ambient context is only ever consumed by [span] as a default
   parent, and [span] records nothing unless [tracing]. So on a
   metrics-only sink ([max_events = 0], which includes [noop]) the
   save/set/restore — and its [Fun.protect] frame — would be dead work
   on every delivered message; skip it. *)
let with_span_ctx t sid f =
  if t.max_events = 0 then f ()
  else begin
    let saved = t.ctx in
    t.ctx <- sid;
    Fun.protect ~finally:(fun () -> t.ctx <- saved) f
  end

let spans t = Trace.events t.spans
let span_count t = Trace.length t.spans
let dropped_spans t = t.dropped_spans

(* ---- Merging (parallel harness support) ----

   [absorb dst src] appends everything [src] recorded onto [dst] as if it
   had been recorded there directly, in [src]'s order: counters add,
   gauges overwrite (last write wins, as in a sequential schedule),
   histogram samples replay in order, trace events and spans append until
   [dst]'s cap with the excess counted as dropped. Span ids are shifted
   past every id [dst] has allocated — including ids of records the cap
   discarded — which reproduces exactly the ids a single shared sink
   would have handed out under the sequential schedule; parent links
   shift with them ([no_parent] stays put).

   The parallel harness gives each task a private sink ([create_like])
   and absorbs them back in task order, so a parallel run's JSONL export
   is byte-identical to the sequential one. *)

let absorb dst src =
  if dst.enabled && src.enabled then begin
    (* Handles below [n_static] mean the same metric in every sink; the
       rest are redeclared in [dst] by name, once per absorbed metric. *)
    Array.iteri
      (fun h s ->
        let into () =
          let { Metric.name; kind; edges; _ } = s.spec in
          if h < n_static then h else resolve kind dst ~edges name
        in
        match s.spec.Metric.kind with
        | Metric.Counter -> if s.set then add dst (Metric.counter_of_int (into ())) s.count
        | Metric.Gauge -> if s.set then set_gauge dst (Metric.gauge_of_int (into ())) s.value
        | Metric.Histogram -> (
          match s.hist with
          | Some hist -> Histogram.absorb ~into:(histogram dst (into ())) hist
          | None -> ()))
      src.slots;
    dst.dropped_events <-
      dst.dropped_events + src.dropped_events
      + Trace.absorb ~limit:dst.max_events ~into:dst.trace src.trace;
    let offset = dst.next_sid in
    let shift sid = if sid = Span.no_parent then sid else sid + offset in
    dst.dropped_spans <-
      dst.dropped_spans + src.dropped_spans
      + Trace.absorb ~limit:dst.max_events
          ~map:(fun (s : Span.t) ->
            { s with Span.sid = shift s.Span.sid; parent = shift s.Span.parent })
          ~into:dst.spans src.spans;
    dst.next_sid <- dst.next_sid + src.next_sid
  end

let pp_event ppf e =
  Fmt.pf ppf "p%d %s/%s%s" (e.pid + 1) (layer_name e.layer) e.phase
    (if e.detail = "" then "" else " " ^ e.detail)

(* ---- Snapshot ---- *)

module Snap = Snapshot

type obs_data = {
  od_counters : (string * int) list; (* sorted by name *)
  od_gauges : (string * float) list;
  od_histograms : (string * Histogram.t) list;
  od_dropped_events : int;
  od_dropped_spans : int;
  od_next_sid : int;
  od_ctx : int;
}

let snapshot ?(name = "obs.sink") t =
  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let counters = sorted (counters t) in
  let gauges = sorted (gauges t) in
  let histograms = sorted (histograms t) in
  Snap.make ~name ~version:1
    ~data:
      (Snap.pack
         {
           od_counters = counters;
           od_gauges = gauges;
           od_histograms = histograms;
           od_dropped_events = t.dropped_events;
           od_dropped_spans = t.dropped_spans;
           od_next_sid = t.next_sid;
           od_ctx = t.ctx;
         })
    [
      ("enabled", Snap.Bool t.enabled);
      ("counters", Snap.Int (List.length counters));
      ("gauges", Snap.Int (List.length gauges));
      ("histograms", Snap.Int (List.length histograms));
      ("trace_events", Snap.Int (Trace.length t.trace));
      ("spans", Snap.Int (Trace.length t.spans));
      ("dropped_events", Snap.Int t.dropped_events);
      ("dropped_spans", Snap.Int t.dropped_spans);
      ("next_sid", Snap.Int t.next_sid);
      ("ctx", Snap.Int t.ctx);
    ]

let restore ?(name = "obs.sink") t s =
  Snap.check s ~name ~version:1;
  let (d : obs_data) = Snap.unpack_data s in
  (* Handles already resolved on this sink stay valid; only values reset. *)
  Array.iter
    (fun s ->
      s.set <- false;
      s.count <- 0;
      s.value <- 0.0;
      s.hist <- None)
    t.slots;
  List.iter (fun (k, v) -> add t (resolve_counter t k) v) d.od_counters;
  List.iter (fun (k, v) -> set_gauge t (resolve_gauge t k) v) d.od_gauges;
  List.iter
    (fun (k, hist) ->
      let h = resolve Metric.Histogram t ~edges:(Histogram.edges hist) k in
      t.slots.(h).hist <- Some hist)
    d.od_histograms;
  t.dropped_events <- d.od_dropped_events;
  t.dropped_spans <- d.od_dropped_spans;
  t.next_sid <- d.od_next_sid;
  t.ctx <- d.od_ctx
(* Trace and span buffers (and the clock closure) ride the world blob. *)
