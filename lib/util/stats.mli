(** Descriptive statistics over float samples, used by the benchmark
    harness to aggregate per-group results exactly as the paper reports
    them (mean and standard deviation across the task graphs of a group). *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0. on arrays of size < 2. *)

val max : float array -> float
(** Maximum; raises [Invalid_argument] on the empty array. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]], linear interpolation;
    raises on empty. *)

val improvement_pct : baseline:float -> value:float -> float
(** [improvement_pct ~baseline ~value] is the percent reduction of [value]
    with respect to [baseline]: [(baseline - value) / baseline * 100.].
    This is the metric of Figures 3-5. 0. when [baseline = 0.]. *)
