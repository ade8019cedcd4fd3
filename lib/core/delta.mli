(** Delta-evaluation move kernel for neighborhood search.

    A {!t} is a live, mutable view of a complete solution — implementation
    selection, region partition, processor assignment, controller sequence
    and the resolved earliest-start times — on which candidate {e moves}
    (reassign a task to another region, swap two tasks' regions, move a
    task HW<->SW, merge or split a region) are evaluated {e incrementally}:
    only the starts a move actually changes are recomputed (a worklist
    on the shared {!Resched_util.Min_heap}, least stored start first,
    that pushes a node's successors only when its start moved), region
    resource totals and demand vectors are maintained as moves apply,
    and floorplan feasibility is re-queried only when the multiset of
    region demands actually changed (through the shared
    {!Resched_floorplan.Fp_cache}, so repeated demand sets are O(1)).
    The worklist runs under {!Resched_util.Min_heap.pop_budget}; work
    left after it, like the first timing of {!of_schedule}, goes to an
    exact reach-DFS plus Kahn pass that also detects a cycle.

    Every applied move is undone in O(touched) by {!rollback} via a typed
    undo log, which is what makes a large-neighborhood / simulated-
    annealing driver ({!Lns}) able to explore thousands of moves per
    second. Longest paths in a DAG with non-negative durations are
    unique, so the resulting times are bit-identical to re-timing the
    whole plan from scratch; the test-only [Delta_oracle] does exactly
    that on {!to_schedule}'s result through {!Timing.time_plan} and
    re-checks the floorplan verdict.

    {b Timing model.} The plan's precedence graph has one node per task
    and one per live reconfiguration. Edges are the instance's data
    edges (static CSR, built once) plus the implicit structural edges:
    consecutive tasks of a region chain are separated by their
    reconfiguration node (or linked directly under module reuse),
    consecutive tasks of a processor chain are linked directly, and the
    controller totally orders the reconfiguration nodes. Earliest starts
    are the longest-path potential of that DAG — the same quantity
    {!Timing.Solver} computes for the PA pipeline. *)

type t

type config = {
  engine : Resched_floorplan.Floorplanner.engine;
  cache : Resched_floorplan.Fp_cache.t option;
      (** the cache demand-vector feasibility queries go through;
          [None] gives the state a private one, made on its first
          query *)
}

val default_config : config

type move =
  | Reassign of { task : int; region : int }
      (** move a hardware task to another live region (its current
          implementation must fit the target's resources) *)
  | Swap of { task_a : int; task_b : int }
      (** exchange the regions of two hardware tasks in distinct regions *)
  | To_sw of { task : int; processor : int }
      (** demote a hardware task to its fastest software implementation
          on the given processor *)
  | To_hw of { task : int; impl_idx : int; region : int option }
      (** promote a software task to hardware implementation [impl_idx],
          into an existing live region ([Some r]) or a fresh region sized
          to the implementation's needs ([None]) *)
  | Merge of { dst : int; src : int }
      (** fuse two live regions: [dst] grows to the component-wise max of
          both demand vectors, members interleave by current start time,
          [src] dies *)
  | Split of { region : int; keep : int }
      (** cut a live region's chain after its first [keep] members; the
          suffix moves to a fresh region, and both demand vectors shrink
          to the component-wise max of their members' needs *)

type verdict = {
  makespan : int;  (** of the re-evaluated plan *)
  fp_feasible : bool;
      (** current floorplan verdict (cached unless the demand multiset
          changed; [Unknown] counts as infeasible) *)
  needs_changed : bool;
      (** whether this move changed the region demand multiset (and
          hence re-queried the floorplanner) *)
}

val of_schedule : ?config:config -> Schedule.t -> t
(** Build a kernel state from a validated schedule (typically a PA / PA-R
    result). The plan's times are canonicalized by one exact pass over
    every node: the reduced structural graph can admit earlier starts
    than the pipeline's (it drops edges the chains subsume), so the
    initial makespan is at most the schedule's. The schedule's
    floorplan, when present, seeds the feasibility state; otherwise it
    is queried. Raises [Invalid_argument] when the schedule's
    reconfigurations do not match its region chains, or when its plan
    graph is cyclic (say, a controller order that runs against a data
    dependency). *)

val instance : t -> Resched_platform.Instance.t
val makespan : t -> int
val fp_feasible : t -> bool

val size : t -> int
(** Task count. *)

val live_regions : t -> int list
(** Ids of live regions, ascending. *)

val region_task_count : t -> int -> int

val processor_tasks : t -> int -> int list
(** Tasks of a processor's chain in chain order — the order the timing
    model links them in. Raises [Invalid_argument] for an id outside
    the architecture's processors. *)

val apply : t -> move -> verdict option
(** Apply one move: mutate the plan structurally, re-evaluate the times
    it changes, and re-query floorplan feasibility iff the demand
    multiset changed. [None] means the move was rejected
    — structurally ill-formed (dead region, implementation that does not
    fit, …) or it would create a precedence cycle — and the state is
    exactly as before the call. [Some v] leaves the move applied;
    follow with {!commit} to keep it or {!rollback} to undo it. *)

val rollback : t -> unit
(** Undo the most recent applied-but-uncommitted move. Moves roll back
    LIFO: a sequence of applies followed by as many rollbacks restores
    the state bit-identically (property-tested). Raises
    [Invalid_argument] if there is nothing to roll back. *)

val commit : t -> unit
(** Accept every applied move and drop the undo log. *)

val to_schedule : t -> Schedule.t
(** Materialize the current plan. The result passes {!Validate.check}
    whenever the plan is within device capacity; its [floorplan] is the
    cached placement when the current demand set is feasible, [None]
    otherwise. *)

val fingerprint : t -> string
(** Digest of everything observable about the plan (selection, chains,
    controller order, times, resource totals, feasibility) — equal
    fingerprints mean bit-identical states. Slot-allocation bookkeeping
    (free lists, high-water marks) is canonicalized away. *)
