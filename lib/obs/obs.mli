open Repro_sim

(** Unified observability sink: per-module metrics and phase-tagged
    protocol tracing.

    One [Obs.t] is shared by every layer of a simulated group. Protocol
    modules receive it as an optional argument defaulting to {!noop}, so
    instrumentation costs a single branch when observation is off and
    existing call sites need no change.

    Three metric kinds, all named by dotted names declared once in
    {!Metric.schema}:

    - {e counters} — monotone event counts (messages per layer, acks,
      retransmissions, …);
    - {e gauges} — last-written scalars (run-level summaries such as
      instances decided in the measurement window);
    - {e histograms} — fixed-bucket latency distributions with exact
      p50/p95/p99 (see {!Histogram}).

    Plus a structured {e trace}: one {!event} per protocol step, stamped
    with the simulated clock, the process, the protocol {!layer} and a
    free-form phase tag ("propose", "ack", "decide", …).

    All timestamps come from the engine's virtual clock through the [now]
    closure wired by {!set_clock} (done by [Group.create]); recording never
    schedules events, charges CPU cost, or consumes randomness, so an
    instrumented run is event-for-event identical to an uninstrumented
    one.

    PR 3 adds a fourth stream: {e causal spans} ({!Span}) — timestamped
    protocol steps with parent links that follow one application message
    across module boundaries, recorded with {!span} and stitched together
    by the ambient context ({!span_ctx}/{!set_span_ctx}) that the network
    layer maintains around each message handler. *)

module Span = Span

type layer = [ `Abcast | `Consensus | `Rbcast | `Net | `App ]
(** The protocol layer an event or message belongs to: the three
    microprotocols of the modular stack (the monolithic ABcast+ module
    counts as [`Abcast]), the network/transport below them, and the
    application above. *)

val layer_name : layer -> string
(** Lower-case name as used in metric keys and JSONL ("abcast", …). *)

val all_layers : layer list

type event = {
  at : Time.t;  (** Simulated instant (never wall time). *)
  pid : int;  (** Process the event happened at. *)
  layer : layer;
  phase : string;  (** Protocol phase, e.g. "propose", "ack", "decide". *)
  detail : string;  (** Free-form context, e.g. "i3 r1". *)
}

type t

val noop : t
(** The shared disabled sink: every recording call is a no-op. This is the
    default everywhere, so building a group without an explicit [Obs.t]
    observes nothing and costs (almost) nothing. *)

val create : ?max_events:int -> unit -> t
(** A fresh enabled sink. Its clock reads {!Time.zero} until {!set_clock}
    is called. At most [max_events] (default 2,000,000) trace events are
    retained; later events are counted in {!dropped_events} instead. *)

val of_engine : Engine.t -> t
(** [create ()] with the clock already wired to the engine. *)

val create_like : t -> t
(** A fresh sink with the same retention cap and enabledness: an enabled
    sink yields a fresh enabled sibling, {!noop} yields {!noop}. The
    parallel harness gives each task [create_like shared] as its private
    sink and merges them back with {!absorb}. *)

val absorb : t -> t -> unit
(** [absorb dst src] appends everything [src] recorded onto [dst], in
    [src]'s recording order: counters add, gauges overwrite, histogram
    samples append, trace events and spans append (respecting [dst]'s
    [max_events] cap, excess counted as dropped), and span ids — parents
    included — are renumbered past every id [dst] has allocated, so
    absorbing per-task sinks in task order reproduces byte-for-byte the
    stream a single shared sink would have recorded sequentially. [src]
    is left unchanged; no-op unless both sinks are enabled. *)

val set_clock : t -> (unit -> Time.t) -> unit
(** Wire the clock used to stamp events and compute spans. [Group.create]
    calls this with the group engine's [now]; no-op on {!noop}. *)

val enabled : t -> bool
(** [false] exactly for {!noop}. Guard metric updates on this at hot call
    sites. *)

val tracing : t -> bool
(** Enabled {e and} retaining trace events ([max_events > 0]). Guard
    expensive per-event work — detail-string formatting, span creation —
    on this rather than {!enabled}: a metrics-only sink
    ([create ~max_events:0]) keeps counters exact while skipping the
    event/span machinery entirely, which is what makes it cheap enough
    for the sharded million-client cells. *)

val now : t -> Time.t
(** The sink's current clock reading. *)

(** {1 Metrics}

    Every metric is declared in {!Metric.schema} and updated through a
    {!Metric} handle, so an update is one [enabled] branch and an array
    store. Handles of the schema's plain entries are module constants
    ([Metric.counter "consensus.decisions"]); family instances and ad hoc
    names are resolved against a sink once, by their owner, with the
    [resolve_*] functions below, and are valid for that sink only. *)

module Metric = Metric

val resolve_counter : t -> string -> Metric.counter
(** The handle of counter [name] in this sink. A name the schema covers
    (itself or as an instance of a family) takes the schema's attributes;
    any other name is declared ad hoc in this sink with fixed defaults
    (unit ["count"], layer [`Run], deterministic). Resolving a name again
    returns the same handle. A disabled sink answers a placeholder
    handle and checks nothing, which is safe because every update of a
    disabled sink is a no-op.
    @raise Invalid_argument on an enabled sink when [name] is already
    declared (in the schema or in this sink) as another kind. *)

val resolve_gauge : t -> string -> Metric.gauge
val resolve_histogram : t -> string -> Metric.histogram
(** As {!resolve_counter}; an ad hoc histogram gets
    {!Histogram.default_edges} (milliseconds). *)

(** {2 Counters} *)

val incr : t -> Metric.counter -> unit
val add : t -> Metric.counter -> int -> unit

val counter_value : t -> string -> int
(** 0 if never incremented. *)

val counters : t -> (string * int) list
(** All counters written at least once, sorted by name. *)

(** {2 Gauges} *)

val set_gauge : t -> Metric.gauge -> float -> unit
val gauge_value : t -> string -> float option
val gauges : t -> (string * float) list

(** {2 Histograms} *)

val observe : t -> Metric.histogram -> float -> unit
(** Record a sample in the histogram, created on first use with its
    declared edges. *)

val observe_span : t -> Metric.histogram -> Time.span -> unit
(** {!observe} of a duration as fractional milliseconds. *)

val observe_since : t -> Metric.histogram -> Time.t -> unit
(** Record [now - since] in milliseconds. Silently skipped when the clock
    has not reached [since] (e.g. on a sink whose clock was never wired). *)

val histogram_summary : t -> string -> Stats.summary option
val histograms : t -> (string * Histogram.t) list

(** {1 Trace} *)

val event : t -> pid:int -> layer:layer -> phase:string -> ?detail:string -> unit -> unit
(** Record one structured trace event at the current instant. *)

val events : t -> event list
(** All events, oldest first. *)

val event_count : t -> int

val dropped_events : t -> int
(** Events discarded after [max_events] was reached. *)

val trace : t -> event Trace.t
(** The underlying {!Trace} recorder (the generic [Sim.Trace] generalised
    by these structured events), for [Trace.find_last]-style assertions. *)

(** {1 Causal spans}

    See {!Span} for the data model. The protocol rule: record a span at
    each step of interest; its parent defaults to the sink's current
    context, which the network layer sets to the receive-span around each
    delivered message handler (and resets afterwards), so within-handler
    steps chain to their trigger automatically. Asynchronous hand-offs
    (CPU submissions, scheduled deliveries) capture the context
    explicitly and pass it as [?parent]. *)

val span :
  t ->
  ?parent:int ->
  pid:int ->
  layer:layer ->
  phase:string ->
  ?detail:string ->
  unit ->
  int
(** Record one causal span at the current instant and return its fresh
    [sid] ([Span.no_parent] on a disabled sink). [parent] defaults to
    {!span_ctx}. Ids keep advancing after the [max_events] cap so parent
    links stay globally consistent; capped-out records are counted in
    {!dropped_spans} instead of retained. *)

val span_ctx : t -> int
(** The ambient "current span" used as default parent; [Span.no_parent]
    when no handler is executing (or on a disabled sink). *)

val set_span_ctx : t -> int -> unit
(** Set the ambient context (no-op on a disabled sink). The network layer
    brackets handler invocations with this; protocol code normally never
    calls it. *)

val with_span_ctx : t -> int -> (unit -> 'a) -> 'a
(** Run a thunk with the ambient context set, restoring it afterwards. *)

val spans : t -> Span.t list
(** All retained spans, oldest first. *)

val span_count : t -> int

val dropped_spans : t -> int
(** Spans discarded after [max_events] was reached. *)

val pp_event : event Fmt.t
(** Prints [p<pid+1> <layer>/<phase> <detail>], e.g. [p1 consensus/propose i0 r1]. *)

val snapshot : ?name:string -> t -> Repro_sim.Snapshot.section
(** Default section name ["obs.sink"]. Carries counters, gauges,
    histograms, span-id allocator and ambient span context; the trace and
    span buffers (closures over the clock) ride the world blob. *)

val restore : ?name:string -> t -> Repro_sim.Snapshot.section -> unit
(** @raise Repro_sim.Snapshot.Codec_error on mismatch. *)
