(** PA — the deterministic scheduling heuristic (Secs. IV-V).

    Runs the eight-step pipeline: implementation selection, critical-path
    extraction, regions definition, software task balancing, start/end
    computation, software task mapping, reconfigurations scheduling and
    the floorplan feasibility check — restarting with virtually reduced
    FPGA resources when no feasible floorplan exists. *)

type config = {
  ordering : Regions_define.ordering;
      (** non-critical hardware task order in regions definition;
          {!Regions_define.By_efficiency} gives the paper's PA *)
  module_reuse : bool;
      (** allow consecutive same-module tasks in a region to skip the
          reconfiguration (paper's future work; default false) *)
  max_attempts : int;
      (** floorplan retries before falling back to all-software *)
  shrink_factor : float;
      (** virtual [maxRes] multiplier applied per retry (Sec. V-H) *)
}

val default_config : config
(** Efficiency ordering, no module reuse, 8 attempts, shrink 0.9. *)

type stats = {
  attempts : int;  (** scheduling attempts (>= 1) *)
  scheduling_seconds : float;  (** time in steps 1-7 *)
  floorplanning_seconds : float;  (** time in step 8 *)
}

(** Restart-context arena: memoizes, per (instance, resource-scale),
    everything steps 1-2 recompute identically on every restart — the
    cost weights, the initial implementation selection and the base CPM
    windows — and recycles one arena {!State.t} per scale through
    {!State.reset} so an iteration allocates no fresh working state.
    A context belongs to one instance and is not thread-safe: the
    parallel randomized search holds one per worker domain. *)
module Context : sig
  type t

  val create : Resched_platform.Instance.t -> t

  val state : t -> resource_scale:float -> State.t
  (** The arena state for this scale, reset and ready for steps 3-7.
      Invalidates whatever the previous [state] call for the same scale
      returned (it is the same recycled object). Exposed for tests and
      benchmarks; {!schedule_once} is the normal entry point. *)
end

type candidate
(** One restart iteration's outcome, {e borrowed} from the context
    arena: placements, the sequenced reconfigurations and their final
    resolved times, without the boxed {!Schedule.t}. Valid until the
    next {!schedule_candidate} or {!schedule_once} on the same context;
    {!materialize} copies it into an owning schedule. *)

val schedule_candidate : ?config:config -> ?resource_scale:float ->
  ctx:Context.t -> Resched_platform.Instance.t -> candidate
(** Steps 1-7 over the context's arena — the struct-of-arrays restart
    kernel. The restart loop inspects {!candidate_makespan} (and
    {!candidate_needs} for the floorplan check) and only pays
    {!materialize} for improving iterations. [inst] must be the
    instance the context was created for (checked by identity). *)

val candidate_makespan : candidate -> int
(** O(1); equals [(materialize c).makespan]. *)

val candidate_needs : candidate -> Resched_fabric.Resource.t array
(** Fresh array of per-region requirements, creation order — what the
    floorplan feasibility check consumes. *)

val materialize : candidate -> Schedule.t
(** The owning {!Schedule.t}: what {!schedule_once} with the same
    configuration returns. *)

val build_schedule : module_reuse:bool -> resource_scale:float -> State.t ->
  Timing.reconf_spec array -> Timing.resolved -> sequence:int list ->
  Schedule.t
(** The schedule a finished pipeline state describes: placements from
    the state, times from the resolved timing, and the reconfigurations
    in controller [sequence] order (indices into the spec array). The
    result's [floorplan] is [None]. {!materialize} is this over a
    candidate's plan. *)

val schedule_once : ?config:config -> ?resource_scale:float ->
  ?ctx:Context.t -> Resched_platform.Instance.t -> Schedule.t
(** Steps 1-7 only (no floorplan check); [resource_scale] (default 1.0)
    virtually scales the FPGA resources. The result's [floorplan] is
    [None]. [ctx] reuses a restart arena's memoized invariants and
    recycled state (the returned schedule never aliases the arena, so
    it survives later iterations); without it a fresh context is built
    for the call. *)

val all_software_schedule : Resched_platform.Instance.t -> Schedule.t
(** Every task on its fastest software implementation, mapped on the
    processors; trivially floorplan-feasible. The terminal fallback. *)

val run : ?config:config -> ?cache:Resched_floorplan.Fp_cache.t ->
  Resched_platform.Instance.t -> Schedule.t * stats
(** The full PA algorithm: steps 1-7 on one restart arena shared by the
    shrink attempts, then the floorplan check. The returned schedule
    always validates ({!Validate.check}) and carries a floorplan when it
    uses regions. The check goes through [cache] (default: a private
    cache for this call), so shrink attempts, and other schedulers
    sharing the cache, reuse verdicts; the schedule does not depend on
    which cache answers. *)
