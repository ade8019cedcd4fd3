(** Runtime execution simulator.

    The schedulers in this repository are *offline*: they commit to
    implementation choices, placements and per-resource execution orders
    at design time, using nominal execution times. At runtime, task
    durations vary (cache effects, data-dependent loop bounds, DDR
    contention). This module replays a finished {!Resched_core.Schedule.t}
    under sampled durations: the committed decisions and per-resource
    orders are kept (a realistic runtime executes the static plan
    self-timed), every activity starts as soon as its dependency,
    resource and reconfiguration-controller predecessors complete, and
    the realized makespan falls out.

    The executor builds the plan purely from the public schedule — data
    edges, region orders with their reconfigurations, processor orders
    by static start, the controller order of the reconfiguration list —
    independently from the scheduler's internal state, and times it
    through {!Resched_core.Timing.time_plan}, the longest-path entry
    schedule repair and the exact ILP share. It doubles as a semantic
    cross-check: under [Deterministic] jitter the realized times must
    reproduce the static schedule's times exactly when the schedule is
    "compact" (every start explained by some predecessor), and may only
    be earlier otherwise. *)

type jitter =
  | Deterministic  (** nominal durations: replay the plan *)
  | Uniform of float
      (** duration scaled by a uniform factor in [1-f, 1+f]; f in [0,1) *)
  | Delay_only of float
      (** duration scaled by a uniform factor in [1, 1+f]: tasks can only
          run late, never early *)

type trial = {
  makespan : int;
  task_start : int array;
  task_end : int array;
}

exception Replay_error of string
(** The schedule cannot be replayed faithfully — currently: two
    reconfigurations share a (region, ingoing, outgoing) identity, so
    the plan cannot tell which of them a region pair waits for. *)

val execute : ?rng:Resched_util.Rng.t -> jitter:jitter ->
  Resched_core.Schedule.t -> trial
(** One realization. [rng] is required for stochastic jitter kinds
    (raises [Invalid_argument] when missing). Raises {!Replay_error}
    when the schedule's reconfiguration list is ambiguous. *)

type robustness = {
  trials : int;
  static_makespan : int;
  mean_makespan : float;
  worst_makespan : int;
  p95_makespan : float;
  mean_slowdown : float;  (** mean realized / static *)
}

val robustness : rng:Resched_util.Rng.t -> trials:int -> jitter:jitter ->
  Resched_core.Schedule.t -> robustness
(** Monte-Carlo summary over independent realizations. *)

val pp_robustness : Format.formatter -> robustness -> unit

(** {1 Fault-injection replay}

    Event-driven replay against a {!Fault.plan}: pending fault events
    strike in order of their trigger time *in the current schedule*
    (the reconfiguration's start, the task's committed end, the region
    death instant), each one is handed to the
    {!Resched_core.Repair} policy, and the run continues on the
    repaired schedule. A policy that cannot recover a fault ends the
    trial unsurvived; every intermediate schedule is validated by the
    repair engine before the run continues on it. *)

type fault_trial = {
  survived : bool;
  fired : Fault.event list;  (** events that struck, in firing order *)
  moot : int;
      (** sampled events that no longer applied when their turn came
          (e.g. the reconfiguration was dropped by an earlier
          migration) *)
  actions : Resched_core.Repair.action list;
      (** recovery actions, in execution order *)
  schedule : Resched_core.Schedule.t;
      (** last valid schedule — fully repaired iff [survived] *)
  static_makespan : int;
  final_makespan : int;
  degradation : float;  (** final / static *)
  failure : string option;  (** why the trial ended, when not survived *)
}

val replay_faults : policy:Resched_core.Repair.policy -> plan:Fault.plan ->
  Resched_core.Schedule.t -> fault_trial
(** Deterministic: equal (schedule, plan, policy) triples produce equal
    trials. *)
