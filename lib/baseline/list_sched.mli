(** HEFT-style list scheduler — an additional sanity baseline.

    Tasks are prioritized by upward rank (critical-path distance to the
    sinks, with each task weighted by the mean execution time over its
    implementations) and greedily placed, one at a time, on the
    (implementation, region/processor) option that finishes earliest.
    This is the classic list-based scheduling recipe the related work
    builds on ([4], [10]); it ignores the resource-efficiency insight of
    PA and the chunk-exactness of IS-k, so both should usually beat it. *)

val upward_ranks : Resched_platform.Instance.t -> float array
(** The priority of each task (higher runs earlier). *)

val schedule_once : ?module_reuse:bool -> ?resource_scale:float ->
  Resched_platform.Instance.t -> Resched_core.Schedule.t

val run : ?module_reuse:bool -> ?cache:Resched_floorplan.Fp_cache.t ->
  Resched_platform.Instance.t -> Resched_core.Schedule.t
(** With the same floorplan-validation/shrink-retry loop as PA and
    IS-k. The floorplan checks go through [cache], shared with the other
    schedulers, or through a private cache when none is given. *)

val run_with_stats : ?module_reuse:bool ->
  ?cache:Resched_floorplan.Fp_cache.t -> Resched_platform.Instance.t ->
  Resched_core.Schedule.t * Resched_floorplan.Fp_cache.stats option
(** Like {!run}, additionally reporting this run's cache activity (the
    {!Resched_floorplan.Fp_cache.diff} of the shared cache's counters
    around the run); [None] when no cache is given. *)
