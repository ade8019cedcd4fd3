(** Self-healing schedule repair.

    The scheduler's output assumes every reconfiguration and task
    execution succeeds; real PR systems see bitstream CRC failures,
    task overruns and region faults. This module takes a finished
    {!Schedule.t}, a fault observed at instant [at], and a recovery
    policy, and produces a *repaired* schedule: the committed history
    (everything finished or in flight at [at]) is pinned in place, the
    faulted activity is retried, migrated or shifted, and the plan is
    re-timed under release times through {!Timing.time_plan}. Because every
    task in the model carries both HW and SW implementations, graceful
    degradation to software is always a candidate recovery path.

    Every schedule returned here has passed {!Validate.check}; a repair
    whose result would not validate is reported as [Error] instead. *)

type fault =
  | Reconf_failed of { region : int; t_in : int; t_out : int; failures : int }
      (** the bitstream load between [t_in] and [t_out] failed
          [failures] consecutive times; each failed attempt re-occupies
          the single reconfiguration controller for the load duration
          plus a backoff *)
  | Task_overrun of { task : int; end_at : int }
      (** the task ran long (beyond any modelled jitter) and completed
          at [end_at] instead of its committed end *)
  | Region_dead of { region : int }
      (** permanent region fault: no further bitstream can be loaded
          and any computation in flight there is lost *)

type policy =
  | Retry
      (** re-attempt failed loads (bounded, with backoff) and shift;
          cannot recover permanent faults *)
  | Sw_fallback
      (** like [Retry], plus: permanently-faulted HW tasks migrate to
          their software implementations on the least-loaded processor;
          surviving activities keep their committed starts (pure
          right-shift) *)
  | Resched_tail
      (** like [Sw_fallback], but the schedule suffix is recomputed
          from the fault instant: pending activities may move *earlier*
          than committed to reclaim slack the fault exposed *)

type action =
  | Retried of { region : int; t_out : int; attempts : int }
  | Migrated of { task : int; processor : int }
  | Retimed of { compacted : bool }

val repair : ?max_attempts:int -> ?backoff:int -> policy:policy -> at:int ->
  fault:fault -> Schedule.t -> (Schedule.t * action list, string) result
(** [repair ~policy ~at ~fault sched] is the repaired schedule and the
    recovery actions taken, or a reason why the policy cannot recover
    this fault (permanent fault under [Retry], a faulted task without a
    software implementation, a malformed fault reference). The input
    schedule must be valid; the output schedule is guaranteed valid.
    [max_attempts] (default 3) bounds reconfiguration retries;
    [backoff] (default 0) is the idle gap after each failed attempt. *)

val held_until : ?max_attempts:int -> ?backoff:int -> at:int -> fault ->
  Schedule.t -> int
(** When the reconfiguration controller is free again after [fault]
    strikes at [at]: a failed load holds it for each failed attempt (at
    most [max_attempts], default 3) for the load plus [backoff] (default
    0); other faults do not hold it. Schedules do not record failed
    attempts, so a caller replaying several faults keeps this instant to
    know when a later fault falls inside the window. *)

val policy_name : policy -> string
val policy_of_string : string -> (policy, string) result
val action_key : action -> string
(** Histogram bucket: ["retry"], ["migrate"] or ["retime"]. *)

val pp_action : Format.formatter -> action -> unit
