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

(** The timing solver: one compile ({!Solver.reload}) of an augmented
    graph and its durations, one full resolve ({!Solver.resolve_array})
    of a controller chain over it, and {!Solver.splice} for step 7's
    sequencing loop: the graph is compiled once per restart, one
    resolve times the empty controller chain, and each reconfiguration
    the loop sequences is then spliced in, re-timing only what the new
    chain edges push later. Its times are bit-identical to a
    from-scratch CPM of the whole augmented graph. A finished plan is
    timed through the same compile and resolve by {!time_plan}. *)
module Solver : sig
  type t

  val scratch : unit -> t
  (** An empty reusable solver: {!reload} it before resolving. One
      scratch solver per restart arena turns the per-iteration
      compilation into an allocation-free refill once its buffers have
      grown to the instance's high-water mark. *)

  val reload : t -> graph:Resched_taskgraph.Graph.t -> duration:(int -> int)
    -> reconfigs:reconf_spec array -> unit
  (** Compile the solver in place for [graph]'s precedence edges over its
      task nodes, [duration u] per task node [u], and one node per entry
      of [reconfigs], wired after its ingoing and before its outgoing
      task. Step 7 passes a state's augmented graph ({!State.t}'s [dep])
      and {!State.duration}. The solver's arrays may be longer than the
      compiled problem; all resolves are bounded by the compiled sizes.
      Raises [Invalid_argument] when a reconfiguration names a task
      outside [graph]. *)

  val resolve_array : t -> sequence:int array -> len:int -> resolved
  (** Earliest-start times subject to: the compiled precedence edges,
      each reconfiguration after its ingoing and before its outgoing
      task, and the total controller order given by the first [len]
      entries of [sequence] (indices into [reconfigs]). Reconfigurations
      not in the sequence are only constrained by their region. Raises
      [Graph.Cycle] if the sequence contradicts the dependencies. The
      arrays of the result are owned by the solver and overwritten by
      the next resolve or splice; callers must copy whatever they
      retain. *)

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

val time_plan : ?release:int array -> durations:int array ->
  region_chains:int list array -> processor_chains:int list array ->
  reconfigs:reconf_spec array -> controller:int array ->
  Resched_taskgraph.Graph.t -> resolved
(** [time_plan ... graph] times a finished plan over the task graph
    [graph]: the longest path over its data edges, the per-region
    execution orders [region_chains] (indexed by region id), the
    per-processor orders [processor_chains], and the reconfigurations
    [reconfigs] in [controller] order (indices into [reconfigs]) on the
    single controller, with [durations] per task (its length is
    [graph]'s size) and each reconfiguration's [dur]. A consecutive
    region pair listed in [reconfigs] (same region, ingoing and outgoing
    task) runs through that reconfiguration's node; any other pair
    (module reuse) gets a direct edge. [release] (length
    [size graph + Array.length reconfigs], reconfiguration [k] at node
    [size graph + k], default all zero) gives a per-node earliest start:
    no activity begins before its release time, on top of every
    precedence constraint. Compiles a fresh solver through
    {!Solver.reload} and resolves it the way {!Solver.resolve_array}
    does, so the result's arrays belong to the caller. Raises
    [Graph.Cycle] if the orders contradict each other, and
    [Invalid_argument] on a duration array of the wrong length or a
    task outside [graph]. The jitter executor, schedule repair, the
    exact ILP's extraction and the move kernel's reference all time
    their plans here. *)
