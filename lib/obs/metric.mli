(** The declared metric schema and the dense handles that index it.

    Every metric the simulator records is declared once, here, with its
    name, kind, unit, layer and determinism class (and bucket edges, for
    histograms). A sink ({!Obs.t}) sizes its value arrays to this schema
    when it is created, so updating a declared metric is an array store
    through an int handle rather than a string-keyed table lookup.

    A name may be a {e family}: one or more dot-separated segments hold a
    [<placeholder>], optionally after a literal prefix ([s<shards>]).
    [net.msgs.<layer>] declares [net.msgs.abcast], [net.msgs.consensus],
    and so on; instances of a family are resolved against a sink at run
    time ({!Obs.resolve_counter} and friends), once, by whoever owns them
    — [Network.create] for the per-layer and per-kind traffic counters,
    the study and scale drivers for their per-cell gauges. *)

type kind = Counter | Gauge | Histogram

type determinism =
  | Deterministic  (** A function of the seed and configuration alone. *)
  | Host  (** Depends on the binary or host (e.g. marshalled byte counts). *)

type layer = [ Span.layer | `Run ]
(** The protocol layer a metric is attributed to; [`Run] for run-level
    summaries and harness bookkeeping (gauges, replay frames). *)

type spec = {
  name : string;
  kind : kind;
  unit : string;
  layer : layer;
  det : determinism;
  edges : float array;  (** Histogram bucket upper edges; [[||]] otherwise. *)
}

val schema : spec array
(** Every declared metric, in declaration order. Each name occurs once. *)

val check : spec array -> unit
(** Every name is declared once. The library checks {!schema} with this
    when it is loaded.
    @raise Invalid_argument on a name declared twice, whatever its
    attributes. *)

val kind_name : kind -> string
(** ["counter"], ["gauge"] or ["histogram"]. *)

val layer_name : layer -> string
val determinism_name : determinism -> string

val is_family : spec -> bool
(** The name holds a [<placeholder>] segment. *)

val find : string -> int option
(** Index in {!schema} of the declaration covering [name]: the exact
    entry, else the first family it is an instance of — same number of
    segments, each literal segment equal, each placeholder segment
    extending its literal prefix by at least one character. *)

val conflict : spec -> spec -> string option
(** [conflict declared wanted] describes how a use of a name disagrees
    with its declaration: another kind, or other histogram edges; [None]
    if they agree. The other attributes are fixed by the declaration. *)

(** {1 Handles}

    A handle is a dense index into a sink's value arrays. Handles of the
    schema's non-family entries are the same in every sink and are
    resolved once, at module initialisation, by the code that records
    them. *)

type counter = private int
type gauge = private int
type histogram = private int

val counter : string -> counter
(** The handle of a declared counter.
    @raise Invalid_argument if [name] is not a non-family counter of the
    schema. *)

val gauge : string -> gauge
val histogram : string -> histogram

(**/**)

(* For [Obs], which owns the value arrays the handles index. *)
val counter_of_int : int -> counter
val gauge_of_int : int -> gauge
val histogram_of_int : int -> histogram
