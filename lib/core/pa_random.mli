(** PA-R — the randomized scheduler variant (Sec. VI, Algorithm 1).

    Repeatedly runs the deterministic pipeline with a random processing
    order for non-critical hardware tasks, keeping the best schedule that
    passes the floorplan check. The floorplanner is only consulted when a
    candidate improves on the incumbent, amortizing its cost;
    floorplan-infeasible candidates are discarded rather than triggering
    the resource-shrinking restart of PA.

    Every floorplan check goes through a {!Resched_floorplan.Fp_cache.t}
    — the caller's, or a private one per entry-point call — so repeated
    region-need multisets skip the floorplanner entirely, and
    {!run_parallel} fans the restart loop out over OCaml 5 domains with a
    shared atomic incumbent makespan. The restart stream itself is
    reified as a {!Course}, which {!run}, each {!run_parallel} worker,
    each {!Batch.run} worker and each served request run to its end on
    one domain. *)

type trace_point = {
  elapsed : float;
      (** seconds since the run started, read at the start of the
          improving iteration *)
  iteration : int;
      (** 1-based iteration index within the stream that found the
          improvement (worker-local under {!run_parallel}) *)
  makespan : int;  (** best feasible makespan at that moment *)
}

type outcome = {
  schedule : Schedule.t option;
      (** best feasible schedule; [None] only if no iteration produced a
          floorplannable schedule within the budget *)
  iterations : int;
      (** total restart iterations, summed over workers *)
  trace : trace_point list;  (** improvements, oldest first (Fig. 6) *)
  minor_words : float;
      (** minor-heap words allocated by the restart iterations, summed
          over workers ({!Gc.minor_words} deltas around each slice) —
          divide by [iterations] for the words/iteration telemetry *)
}

(** One restart stream, run to its end on one domain. The course owns
    everything the stream touches: its RNG, its adaptive shrink
    exponent, its incumbent and, while it runs, its {!Pa.Context}
    restart arena, which it builds on its first slice and drops when it
    finishes (cancelled or not), so no arena outlives its stream. Not
    thread-safe: advance a given course from one domain at a time. *)
module Course : sig
  type t

  val create : ?cache:Resched_floorplan.Fp_cache.t -> ?start:float ->
    ?cancel:(unit -> bool) -> seed:int -> min_iterations:int ->
    budget_seconds:float -> Resched_platform.Instance.t -> t
  (** A fresh stream with its own incumbent, replaying exactly what
      {!run} with the same arguments and {!Pa.default_config} would do.
      [start] (default: now)
      anchors the wall-clock budget and the trace's [elapsed] stamps —
      the batch engine passes one common origin for all its courses.
      Without [cache], the course checks through a private one.

      [cancel] is a cooperative cancellation checkpoint: it is polled
      once at the start of every {!run_slice} (never inside the
      iteration loop), and the first [true] finishes the stream
      immediately — {!outcome} keeps whatever incumbent the stream had.
      Under {!run_to_end} a cancelled course therefore stops within
      {!poll_every} restarts of the cancellation signal, which is how
      the serve layer enforces per-request deadline budgets without
      hanging a worker. A hook that never fires leaves the iteration
      stream bit-identical to a course created without one. *)

  val poll_every : int
  (** Restarts between two polls of the [cancel] hook under
      {!run_to_end}: 16. *)

  val run_to_end : t -> int
  (** Run the course to its end on the calling domain, in slices of
      {!poll_every} restarts, and return how many slices (cancel polls)
      that took. *)

  val run_slice : t -> max_iterations:int -> int
  (** Advance by at most [max_iterations] restarts on the calling
      domain; returns how many were executed (0 when already finished
      or cancelled). The stream finishes when it has met its
      [min_iterations] and the budget is exhausted, or as soon as its
      [cancel] hook fires. Slicing is invariant: any partition of the
      iteration budget into slices yields the same outcome as one
      uninterrupted run (property-tested). *)

  val finished : t -> bool

  val outcome : t -> outcome
  (** Snapshot of the stream's result; normally read once [finished]. *)
end

val run : ?config:Pa.config -> ?seed:int -> ?min_iterations:int ->
  ?cache:Resched_floorplan.Fp_cache.t -> budget_seconds:float ->
  Resched_platform.Instance.t -> outcome
(** Algorithm 1 with a wall-clock budget. [min_iterations] (default 1)
    iterations are executed even if the budget is already exhausted, so a
    tiny budget still returns a schedule whenever one is floorplannable.
    The [config]'s [ordering] field is ignored (PA-R always randomizes
    non-critical tasks). Floorplan verdicts are memoized through
    [cache], or through a private cache when none is given. A cache's
    verdicts are a pure function of the query — the engine's answer for
    the canonically sorted needs — so any two runs (through a fresh,
    shared or reused cache, or none) produce identical results for a
    fixed iteration count.

    The adaptive virtual resource scale moves on the integer
    [shrink_factor^k] lattice (k in [0..6]) so the per-scale restart
    memo and the floorplan cache see repeated keys.

    Each iteration runs steps 3-7 over the course's {!Pa.Context}
    restart arena ({!Pa.schedule_candidate}) and materializes a
    {!Schedule.t} only for claimed improvements. The incumbent makespan
    is the kernel's [bound]: a restart that cannot beat it stops after
    step 4 or inside step 6, or skips the floorplan check once step 7
    is done. Such a restart is one the loop would discard anyway, and it
    still counts as an iteration and still draws its random order, so
    the outcome is what running every restart to the end gives. *)

val run_parallel : ?config:Pa.config -> ?seed:int -> ?min_iterations:int ->
  ?jobs:int -> ?pool:Resched_util.Domain_pool.Pool.t ->
  ?cache:Resched_floorplan.Fp_cache.t -> budget_seconds:float ->
  Resched_platform.Instance.t -> outcome
(** [run] fanned out over [jobs] worker domains (default
    {!Resched_util.Domain_pool.available_cores}) sharing one atomic
    incumbent makespan — a worker floorplans a candidate only if it beats
    the best found by {e any} worker — and one [cache] (the caller's, or
    one private cache for all workers). Each restart is bounded by the
    shared best it starts against; the best only falls, so a restart
    that stops is one the later test against the current best would
    discard.

    With [pool], the fan-out reuses that persistent pool's resident
    domains instead of spawning fresh ones per call, which amortizes
    domain spawn/join across a batch of runs. Each worker builds its own
    {!Pa.Context} restart arena and drops it when its stream ends.
    [jobs] then defaults to the pool's width, and giving both with
    different values is an error. Pool reuse never changes results:
    worker 0 still runs on the calling domain.

    Reproducibility: worker 0 replays exactly the stream [run] would use
    for [seed]; workers 1..jobs-1 use independent streams split from
    [seed], so the set of candidate streams is a function of
    [(seed, jobs)] alone. [jobs = 1] is literally [run]. Under a non-zero
    wall-clock budget the {e number} of iterations each stream completes
    still depends on machine load, so only [budget_seconds = 0.] with
    [min_iterations] set gives bit-identical outcomes across runs; see
    DESIGN.md for the full determinism discussion.

    [min_iterations] is a total: each worker performs at least
    [ceil (min_iterations / jobs)] iterations. The merged trace is
    globally ordered by elapsed time and strictly improving. *)
