(** Batched multi-instance PA-R: many scheduling problems over one
    worker fleet.

    {!run} turns each request into a resumable {!Pa_random.Course} and
    feeds them all through one set of worker domains (a persistent
    {!Resched_util.Domain_pool.Pool} or a one-shot fan-out) at
    (instance x restart-slice) granularity: a worker pops whichever
    course is ready, advances it by a bounded slice of restarts on its
    own warm arena, and requeues it. Compared to scheduling the
    instances one {!Pa_random.run_parallel} at a time this removes the
    per-instance fan-out barrier — a straggler instance no longer idles
    the other workers — while the per-domain {!Pa.Context} restart
    arenas stay warm across instances.

    Determinism: each course owns its RNG and its incumbent, so the
    slice interleaving (which varies with load) never leaks between
    instances. Per-instance outcomes are bit-identical to running
    [Pa_random.run ~seed ~min_iterations ~budget_seconds:0.] for each
    request in isolation, with or without a cache, whatever [jobs] and
    [slice] are (property-tested): a cache's verdicts are a pure
    function of the query, so sharing one across instances changes
    wall-clock only. *)

type request = {
  instance : Resched_platform.Instance.t;
  seed : int;
  min_iterations : int;
  budget_seconds : float;
      (** wall-clock budget, counted from batch launch (all courses
          share one time origin) *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation hook for this request's course,
          polled at every slice boundary of the dispatch loop (see
          {!Pa_random.Course.create}); a fired hook retires the course
          from the round-robin queue within one slice, outcome keeping
          the incumbent found so far *)
}

val request : ?seed:int -> ?min_iterations:int -> ?budget_seconds:float ->
  ?cancel:(unit -> bool) -> Resched_platform.Instance.t -> request
(** Defaults: [seed 1], [min_iterations 1], [budget_seconds 0.] (run
    exactly [min_iterations] restarts), no [cancel] hook. *)

type stats = {
  jobs : int;  (** worker domains used *)
  slice : int;  (** restarts per slice actually used *)
  wall_seconds : float;
  total_iterations : int;  (** restarts summed over instances *)
  total_slices : int;  (** work-stealing grants summed over workers *)
  total_minor_words : float;
      (** minor-heap words allocated inside the restart kernels *)
}

val run : ?config:Pa.config -> ?cache:Resched_floorplan.Fp_cache.t ->
  ?jobs:int -> ?pool:Resched_util.Domain_pool.Pool.t -> ?slice:int ->
  request array -> Pa_random.outcome array * stats
(** Schedule every request; outcomes are in request order. [config] and
    [cache] apply to all courses (see {!Pa_random.run}). [jobs] defaults
    to the pool's width when [pool] is given (both with different values
    is an error), else to {!Resched_util.Domain_pool.available_cores}.
    Without [cache], the courses share a private one.
    [slice] (default: derived from the total requested iterations, at
    most 32) bounds how many restarts a worker runs on a course before
    requeuing it — results never depend on it, only load balance does.
    Worker 0 runs on the calling domain. *)
