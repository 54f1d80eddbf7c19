open Repro_sim

(** Fixed-bucket latency histogram.

    Buckets are defined by an ascending array of upper edges; a value [v]
    lands in the first bucket with [v <= edge], and values beyond the last
    edge land in an implicit overflow (+inf) bucket. The raw samples are
    retained alongside the bucket counts so summaries report exact
    {!Stats.percentile}-based quantiles rather than bucket-interpolated
    approximations — simulation runs are short enough that memory is not a
    concern, and exactness matters when comparing stacks whose latencies
    differ by tens of percent. *)

type t

val default_edges : float array
(** Upper edges in milliseconds: 0.05 ms up to 1 s, roughly geometric. *)

val create : ?edges:float array -> unit -> t
(** A fresh histogram. [edges] must be strictly increasing.
    @raise Invalid_argument otherwise. *)

val observe : t -> float -> unit
(** Record one sample. *)

val observe_span : t -> Time.span -> unit
(** Record a duration, converted to fractional milliseconds. *)

val count : t -> int
(** Number of samples recorded. *)

val edges : t -> float array
(** The bucket upper edges in force. *)

val buckets : t -> (float option * int) list
(** Per-bucket counts, ascending; [None] is the overflow (+inf) bucket.
    Counts are per-bucket, not cumulative. *)

val samples : t -> float list
(** All recorded samples, in recording order. *)

val absorb : into:t -> t -> unit
(** [absorb ~into src] appends [src]'s samples to [into], in [src]'s
    recording order, and adds its bucket counts, leaving [src] unchanged:
    the result equals observing the same samples one by one. The two
    histograms must share bucket edges.
    @raise Invalid_argument when the edges differ. *)

val summary : t -> Stats.summary
(** Exact summary (mean, p50/p95/p99, …) over the retained samples:
    bit-identical to [Stats.summarize (samples t)], computed from one
    sorted copy of the sample array without boxing a float. *)
