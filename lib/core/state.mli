(** Mutable working state shared by the scheduler's pipeline steps.

    Holds the current implementation choice per task, the *augmented*
    dependency graph (application edges plus the ordering edges inserted
    when tasks share a reconfigurable region or a processor), the set of
    reconfigurable regions built so far, and the CPM time windows of
    Sec. V-B, maintained incrementally. Per task the state keeps its
    earliest start [t_min], its duration and its {e tail} (the longest
    path from its end to the end of the schedule, so
    [t_max = makespan - tail]), plus the makespan. A mutation
    ({!set_impl}, {!add_edge}, and the placement moves built on them)
    only queues the tasks it may affect; {!propagate} then re-times just
    the tasks whose value changes, and leaves every window equal to what
    a from-scratch {!Cpm.compute} of the current graph and durations
    returns. Windows read between a mutation and the next {!propagate}
    are the ones of the last propagation. {!settle_starts} settles the
    starts and the makespan alone and leaves the tails queued; step 6
    reads nothing else, so it settles tails once, when it is done.

    Every state carries the scratch workspaces its pipeline steps borrow,
    so a step allocates nothing per call. A state can be recycled across
    the restart iterations of the randomized scheduler: {!reset} restores
    every mutable part to the just-created picture while reusing the
    existing arrays and graph storage (see {!Pa.Context}). *)

module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm

type region = {
  id : int;
  res : Resched_fabric.Resource.t;
  bits : float;  (** [bit_s] (eq. 1) *)
  reconf : int;  (** [reconf_s] in ticks (eq. 2) *)
  mutable tasks : int list;  (** assigned tasks, kept sorted by [t_min] *)
}

type scratch
(** Reusable workspaces for allocation-free pipeline steps: size-[n]
    int/float/bool arrays the steps borrow for sorting and marking. *)

val sc_tasks : scratch -> int array
(** Size-[n] int workspace. Contents are clobbered by any pipeline step
    that borrows it; never hold it across a step. *)

val sc_keys : scratch -> float array
(** Size-[n] unboxed float workspace (sort keys). Same borrowing rule
    as {!sc_tasks}. *)

val sc_flags : scratch -> bool array
(** Size-[n] bool workspace. Same borrowing rule as {!sc_tasks}. *)

val sc_mark : scratch -> bool array
(** Second size-[n] bool workspace (also the cycle-guard mark array —
    any {!assign_to_region} clobbers it). Same borrowing rule. *)

type windows
(** The per-task windows and the makespan, read through {!t_min},
    {!t_max}, {!critical} and {!makespan}. *)

type worklist
(** The propagation's scratch: two min-heaps of the tasks a queued
    change may move, with their membership marks. The states of one
    {!Pa.Context} share one, so between a mutation and its
    {!propagate} no other state sharing it may be mutated. *)

val make_worklist : int -> worklist
(** A worklist for instances of the given task count. *)

type t = private {
  inst : Resched_platform.Instance.t;
  max_res : Resched_fabric.Resource.t;
      (** virtually reduced FPGA availability for this attempt *)
  cost : Cost.t;
  impl_of : int array;
      (** current implementation index per task; written only through
          {!set_impl}, which keeps the durations in step *)
  dep : Graph.t;  (** augmented dependency graph (owned copy) *)
  mutable regions_arr : region array;
      (** region slots; only the first [nregions] entries are live.
          Prefer {!iter_regions}/{!nth_region}/{!region_list}. *)
  mutable nregions : int;  (** regions created so far *)
  mutable used : Resched_fabric.Resource.t;
      (** running sum of all regions' requirements *)
  region_of : int array;  (** region id or -1 *)
  processor_of : int array;  (** processor id or -1 *)
  win : windows;
  work : worklist;
  scratch : scratch;
}

val create : Resched_platform.Instance.t -> ?resource_scale:float ->
  ?cost:Cost.t -> ?base_cpm:Cpm.t -> ?worklist:worklist ->
  impl_of:int array -> unit -> t
(** Fresh state with the given initial implementation selection; windows
    are computed immediately from the initial durations (no placeholder
    pass). [resource_scale] (default 1.0) virtually scales the device's
    [maxRes] (floorplan-retry rule, Sec. V-H). [cost] and [base_cpm]
    share already-computed iteration-invariant values (the cost weights
    for this [max_res], and the CPM of the unaugmented graph under the
    initial durations); when omitted they are computed here. A shared
    [base_cpm] is only read: the state copies its windows. [worklist]
    (default: a fresh one) is the propagation scratch, shared by the
    states of one context; raises [Invalid_argument] when it was made for
    another task count. *)

val reset : t -> impl_of:int array -> base_cpm:Cpm.t -> unit
(** Restore the state to what [create] with the same arguments would
    build — initial implementations, pristine dependency graph, no
    regions, no processor assignments, base windows, no queued change —
    reusing the existing arrays and adjacency storage instead of
    reallocating.
    [impl_of] and [base_cpm] must correspond to this state's
    [max_res]/[cost] (they come from the same {!Pa.Context} entry). *)

val impl : t -> int -> Resched_platform.Impl.t
(** The currently selected implementation of a task. *)

val duration : t -> int -> int

val is_hw : t -> int -> bool
(** Is the currently selected implementation a hardware one? *)

val hw_impls : t -> int -> (int * Resched_platform.Impl.t) list
(** [Instance.hw_impls] for this state's instance, answered from a list
    cached at creation (same contents, no allocation). *)

val t_min : t -> int -> int
(** Earliest start: [max(0, max over predecessors p of t_min p + d p)]. *)

val t_max : t -> int -> int
(** Latest finish: [makespan - tail], where
    [tail u = max(0, max over successors v of d v + tail v)]. *)

val critical : t -> int -> bool
(** Zero slack: [t_min u + d u + tail u = makespan]. *)

val makespan : t -> int
(** [max over tasks of t_min + d]. *)

val set_impl : t -> task:int -> int -> unit
(** Select the task's implementation by index and queue the duration
    change (the task's successors' starts, its predecessors' tails and
    the makespan). The only writer of [impl_of]. Does not propagate. *)

val add_edge : t -> int -> int -> unit
(** Insert an ordering edge into the augmented graph (ignored when
    present) and queue what it may move: the target's start and the
    source's tail. The caller keeps the graph acyclic. Does not
    propagate. *)

val propagate : t -> unit
(** Settle every queued change: recompute each queued task from all its
    neighbours, queue the neighbours of each task whose value changed,
    and update the makespan. Afterwards every window equals
    [Cpm.compute] on the current graph and durations. Allocates
    nothing. *)

val settle_starts : t -> int
(** The forward half of {!propagate}: settle every queued start and the
    makespan, and return the makespan. Afterwards {!t_min} and
    {!makespan} equal [Cpm.compute]'s on the current graph and
    durations; the tails stay queued for the next {!propagate}, and
    {!t_max} and {!critical} read the tails of the last one until then.
    Adding edges never lowers the returned makespan, so while the
    durations stay as they are it bounds every later one from below.
    Allocates nothing. *)

val set_windows : t -> Cpm.t -> unit
(** Overwrite the windows with a CPM of the current graph and durations
    and drop every queued change. {!reset} loads the base windows with
    it; a from-scratch reference can load its own windows with it. *)

val regions : t -> region list
(** Regions in creation order (allocates one list per call). *)

val iter_regions : t -> (region -> unit) -> unit
(** Apply a function to every region in creation order without
    allocating the list {!regions} builds. *)

val nth_region : t -> int -> region
(** Region by creation index, O(1). Raises [Invalid_argument] when out
    of range. *)

val region_count : t -> int

val fits_on_fpga : t -> Resched_fabric.Resource.t -> bool
(** Would a new region with the given requirement still fit [max_res]
    next to the existing regions? O(1) against the running total. *)

val new_region : t -> Resched_fabric.Resource.t -> region
(** Create a region sized for the given requirement (eqs. 1-2 fix its
    bitstream and reconfiguration time). Does not check capacity. O(1)
    append. *)

val assign_to_region : t -> task:int -> region -> unit
(** Place the task on the region: records the placement, inserts the
    region-ordering edges dictated by the current windows, keeps the
    region's task list sorted by [t_min], and propagates. Raises
    [Invalid_argument] if the insertion would create a dependency cycle
    (callers must have checked window compatibility); an edge inserted
    before the raise stays queued for the caller's next {!propagate}. *)

val switch_to_sw : t -> task:int -> unit
(** Select the task's fastest software implementation and propagate. *)

val region_list : t -> region array
(** Regions in creation order. *)
