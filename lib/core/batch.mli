(** Batched multi-instance PA-R: many scheduling problems over one
    worker fleet.

    {!run} turns each request into a {!Pa_random.Course} and hands the
    courses out whole to one set of worker domains (a persistent
    {!Resched_util.Domain_pool.Pool} or a one-shot fan-out), largest
    first: each worker takes the next course off a shared cursor and
    runs it to its end on its own domain, with its own restart arena.
    Compared to scheduling the instances one {!Pa_random.run_parallel}
    at a time this removes the per-instance fan-out barrier — a worker
    that finishes a course starts the next one at once — and a batch
    holds at most [jobs] restart arenas at a time.

    Determinism: each course owns its RNG and its incumbent, so which
    worker runs it (which varies with load) never leaks between
    instances. Per-instance outcomes are bit-identical to running
    [Pa_random.run ~seed ~min_iterations ~budget_seconds:0.] for each
    request in isolation, with or without a cache, whatever [jobs] is
    (property-tested): a cache's verdicts are a pure function of the
    query, so sharing one across instances changes wall-clock only. *)

type request = {
  instance : Resched_platform.Instance.t;
  seed : int;
  min_iterations : int;
  budget_seconds : float;
      (** wall-clock budget, counted from batch launch (all courses
          share one time origin): a course that starts after its
          deadline runs exactly its [min_iterations] *)
  cancel : (unit -> bool) option;
      (** cooperative cancellation hook for this request's course,
          polled every {!Pa_random.Course.poll_every} restarts (see
          {!Pa_random.Course.create}); a fired hook ends the course
          within one poll, its outcome keeping the incumbent found so
          far *)
}

val request : ?seed:int -> ?min_iterations:int -> ?budget_seconds:float ->
  ?cancel:(unit -> bool) -> Resched_platform.Instance.t -> request
(** Defaults: [seed 1], [min_iterations 1], [budget_seconds 0.] (run
    exactly [min_iterations] restarts), no [cancel] hook. *)

type stats = {
  jobs : int;  (** worker domains used *)
  wall_seconds : float;
  total_iterations : int;  (** restarts summed over instances *)
  total_slices : int;  (** cancel polls summed over courses *)
  total_minor_words : float;
      (** minor-heap words allocated inside the restart kernels *)
}

val run : ?cache:Resched_floorplan.Fp_cache.t ->
  ?jobs:int -> ?pool:Resched_util.Domain_pool.Pool.t ->
  request array -> Pa_random.outcome array * stats
(** Schedule every request under {!Pa.default_config}; outcomes are in
    request order. [cache] applies to all courses (see
    {!Pa_random.run}). [jobs] and [pool] give the worker count as
    {!Resched_util.Domain_pool.fan_out_jobs} reconciles them.
    Without [cache], the courses share a private one. Courses start in
    descending order of [min_iterations] times task count, ties in
    request order. Worker 0 runs on the calling domain. *)
