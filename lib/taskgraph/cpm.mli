(** Critical Path Method over a task graph (Sec. V-B).

    Given a duration for every task, computes for each task [t] the time
    window [w_t = [T_MIN_t, T_MAX_t]]: [T_MIN_t] is the earliest instant
    at which [t] can start, and [T_MAX_t] the latest instant at which it
    can finish without delaying the schedule. A task is *critical* when
    its window is exactly as wide as its duration (zero slack). *)

type t = {
  t_min : int array;   (** earliest start per task *)
  t_max : int array;   (** latest finish per task *)
  makespan : int;      (** length of the critical path *)
  critical : bool array;
  order : int array;   (** the topological order used *)
}

val compute : Graph.t -> durations:int array -> t
(** Runs the forward and backward passes. [durations] must have one
    non-negative entry per task. Raises [Graph.Cycle] on cyclic graphs and
    [Invalid_argument] on length mismatch or negative durations. *)
