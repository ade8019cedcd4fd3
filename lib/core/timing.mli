(** Timing resolution over the augmented graph.

    Steps 5-7 of the paper compute start/end times and propagate delays
    procedurally; here the committed decisions (implementations, region
    and processor ordering edges, reconfiguration sequence on the single
    controller) are compiled into one DAG whose longest path yields every
    start time at once. This is equivalent to the paper's propagation but
    is independently checkable and cannot leave a stale time behind. *)

type reconf_spec = {
  region_id : int;
  t_in : int;  (** task executed before the reconfiguration *)
  t_out : int;  (** task whose bitstream is loaded *)
  dur : int;  (** [reconf_s] of the hosting region *)
  critical : bool;  (** the outgoing task was critical at extraction *)
}

type resolved = {
  task_start : int array;
  task_end : int array;
  rec_start : int array;  (** indexed like the [reconfigs] argument *)
  rec_end : int array;
  makespan : int;
}

val reconf_specs : ?module_reuse:bool -> State.t -> reconf_spec array
(** One reconfiguration per consecutive task pair inside each region
    (Sec. V-G), in region order; pairs whose implementations share a
    [module_id] are skipped when [module_reuse] is set. Criticality is
    taken from the state's windows ({!State.critical}). *)

val must_precede_closure :
  Resched_taskgraph.Graph.closure -> reconf_spec -> reconf_spec -> bool
(** Dependency-forced ordering between two reconfigurations: [a] must
    run before [b] when [a]'s outgoing task (transitively) precedes
    [b]'s ingoing task, or they share a region in that order. Answered
    in O(1) from a one-shot {!Resched_taskgraph.Graph.closure} of the
    state's augmented dependency graph (valid while no further edges
    are inserted). *)

(** Timing solver for the sequencing loop of step 7: the augmented graph
    and durations are compiled once, one {!Solver.resolve_array} times
    the empty controller chain, and each reconfiguration the loop
    sequences is then {!Solver.splice}d in, re-timing only what the new
    chain edges push later. Its times are bit-identical to a from-scratch
    CPM of the whole augmented graph. *)
module Solver : sig
  type t

  val of_plan : graph:Resched_taskgraph.Graph.t -> durations:int array ->
    reconfigs:reconf_spec array -> t
  (** Compile an explicit precedence graph over the task nodes (one
      [durations] entry per node) plus the reconfiguration nodes
      described by [reconfigs]. Used by the schedule-repair engine,
      whose precedence structure comes from a finished {!Schedule.t}
      rather than a live state. *)

  val resolve : ?release:int array -> t -> sequence:int list -> resolved
  (** Earliest-start times subject to: the compiled precedence edges,
      each reconfiguration after its ingoing and before its outgoing
      task, and the total [sequence] (indices into [reconfigs]) on the
      reconfiguration controller. Reconfigurations not in [sequence] are
      only constrained by their region. Raises [Graph.Cycle] if the
      sequence contradicts the dependencies. [release] (length task
      nodes + reconfiguration nodes, default all zero) gives a per-node
      earliest start: no activity begins before its release time, on
      top of every precedence constraint. The arrays of the result are
      owned by the solver and overwritten by the next [resolve]; callers
      must copy whatever they retain. *)

  val scratch : unit -> t
  (** An empty reusable solver: {!reload} it before resolving. One
      scratch solver per restart arena turns the per-iteration
      compilation into an allocation-free refill once its buffers have
      grown to the instance's high-water mark. *)

  val reload : t -> State.t -> reconfigs:reconf_spec array -> unit
  (** Recompile the solver in place for the state's current augmented
      graph and durations. The solver's arrays may be longer than the
      compiled problem; all resolves are bounded by the compiled sizes.
      Results are bit-identical to a freshly {!of_plan}-compiled
      solver's. *)

  val resolve_array : t -> sequence:int array -> len:int -> resolved
  (** {!resolve} without release times, with the controller sequence
      given as the first [len] entries of an int array — the sequencing
      loop's scratch representation — instead of a list. Same result,
      same aliasing caveat. *)

  val splice : t -> sequence:int array -> len:int -> pos:int -> resolved
  (** Re-time after inserting [sequence.(pos)] into the chain of this
      solver's previous resolve or splice: the first [len] entries of
      [sequence] are that chain with the new entry at [pos]. The new
      chain edges [prev -> k -> next] imply the old [prev -> next], so no
      time falls; the splice raises [k] past [prev] and pushes the
      increase forward from [k] (through [next]), touching only what
      moves. Same result as {!resolve_array} on the new chain (which it
      falls back to, and which raises [Graph.Cycle], should the chain
      contradict the dependencies), same aliasing caveat. *)
end
