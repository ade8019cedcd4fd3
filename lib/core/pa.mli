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
}

val default_config : config
(** Efficiency ordering, no module reuse. *)

val max_attempts : int
(** Scheduling attempts before the all-software fallback: 8. *)

val shrink_factor : float
(** Virtual [maxRes] multiplier applied per retry (Sec. V-H): 0.9. *)

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
    A context belongs to one instance and is not thread-safe: each
    {!Pa_random.Course} builds its own when its stream starts and drops
    it when the stream ends. *)
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
  bound:int -> ctx:Context.t -> Resched_platform.Instance.t ->
  candidate option
(** Steps 1-7 over the context's arena — the struct-of-arrays restart
    kernel — stopped as soon as the restart cannot end below [bound]
    (the restart loop's incumbent makespan). [Some c] means exactly that
    [c]'s makespan is below [bound]: it is the candidate an unbounded
    run ([bound = max_int]) returns. [None] means the unbounded
    candidate's makespan is at or above [bound]. Steps 6 and 7 only add
    non-negative paths to the graph step 4 leaves, so the windows'
    makespan is a lower bound from step 4 on: the restart stops when it
    reaches [bound] after {!Sw_balance.run}, after any software task of
    {!Sw_map.run}, or when the finished plan's makespan does. The
    restart loop inspects {!candidate_makespan} (and {!candidate_needs}
    for the floorplan check) and only pays {!materialize} for improving
    iterations. [inst] must be the instance the context was created for
    (checked by identity). *)

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
(** Steps 1-7 only (no floorplan check), {!schedule_candidate} with
    [bound = max_int] materialized; [resource_scale] (default 1.0)
    virtually scales the FPGA resources. The result's [floorplan] is
    [None]. [ctx] reuses a restart arena's memoized invariants and
    recycled state (the returned schedule never aliases the arena, so
    it survives later iterations); without it a fresh context is built
    for the call. *)

val all_software_schedule : Resched_platform.Instance.t -> Schedule.t
(** Every task on its fastest software implementation, mapped on the
    processors; trivially floorplan-feasible. The terminal fallback. *)

val shrink_retry : ?cache:Resched_floorplan.Fp_cache.t ->
  Resched_platform.Instance.t -> (resource_scale:float -> Schedule.t) ->
  Schedule.t * stats
(** Step 8's shrink-retry loop (Sec. V-H), shared by PA, IS-k and HEFT:
    [shrink_retry inst schedule] schedules at scale 1.0 and checks the
    region set through [cache] (default: a private cache for this
    call); on a failed check ([Infeasible] or [Unknown]) it retries at
    the scale times {!shrink_factor}, and after {!max_attempts}
    attempts returns {!all_software_schedule}. The returned schedule
    carries a floorplan ([Some [||]] without regions). The cache only
    answers sooner: the schedule does not depend on which cache
    answers. *)

val run : ?config:config -> ?cache:Resched_floorplan.Fp_cache.t ->
  Resched_platform.Instance.t -> Schedule.t * stats
(** The full PA algorithm: {!shrink_retry} over steps 1-7 on one
    restart arena shared by the attempts. The returned schedule always
    validates ({!Validate.check}) and carries a floorplan when it uses
    regions. *)
