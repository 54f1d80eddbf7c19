(** Sample statistics for the performance metrics.

    The paper reports means with 95% confidence intervals (§5.1); this
    module computes them, plus the quantiles used in extended reporting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  ci95 : float;  (** Half-width of the 95% confidence interval of the mean. *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Summary of a sample. An empty sample yields all-zero fields. *)

val summarize_array : float array -> summary
(** {!summarize} on an array, which it sorts in place. Arrays of
    non-negative, non-NaN floats (all latency samples) take an LSD radix
    sort on the float bits, others a comparison sort; the sorted array,
    and so the summary, is the same bit for bit either way. *)

val mean : float list -> float
(** Arithmetic mean; 0 on empty input. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0,1], by linear interpolation.
    The array must be sorted ascending. @raise Invalid_argument on empty. *)

val pp_summary : summary Fmt.t
(** Prints [mean ± ci95 (p50=…, p95=…, n=…)]. *)
