(** Monolithic ILP formulation of the whole scheduling problem, after
    Redaelli et al. [8] (the paper's related work): implementation
    selection, mapping to processors or to sized reconfigurable region
    slots, task and reconfiguration timing with a single controller and
    reconfiguration prefetching — all in one mixed-integer program solved
    by {!Resched_milp.Branch_bound}.

    The paper dismisses this line of work because "the resulting
    complexity of the ILP formulation makes the approach not viable even
    for small problem instances"; the [viability] bench section
    reproduces exactly that observation. On 2-4 task instances the model
    proves optimality and must agree with {!Optimal} (tested); beyond a
    handful of tasks the branch-and-bound hits its node budget.

    Model summary (one binary per task-option, slots sized by the
    implementations routed to them):
    - y_{t,c}: task t uses option c (SW on processor p | HW impl i on
      slot s); Σ_c y = 1
    - res_{s,r} >= res_{i,r} y_{t,(i,s)}; Σ_s res_{s,r} <= maxRes_r
    - continuous start/reconfiguration-start times with big-M
      disjunctions driven by shared order binaries o_{t,t'}
    - per-slot "first task" indicators make the initial configuration
      free, matching the repository-wide semantics
    - minimize the makespan.

    Decisions are extracted from the MILP solution and re-timed with the
    repository's integer longest-path semantics, so the returned schedule
    always passes {!Resched_core.Validate} regardless of floating-point
    noise in the solve. *)

type result = {
  schedule : Resched_core.Schedule.t;
  ilp_objective : float;  (** the MILP's (continuous-time) makespan *)
  proved_optimal : bool;
  nodes : int;  (** branch-and-bound nodes *)
  vars : int;
  constraints : int;
}

val solve : ?node_limit:int -> ?time_limit:float ->
  Resched_platform.Instance.t -> result option
(** [solve inst] builds the ILP, offering the model [min 4 n]
    reconfigurable region slots, and solves it with
    {!Resched_milp.Branch_bound.solve}. [node_limit] defaults to
    100_000; [time_limit] (seconds) makes the solve anytime. [None]
    when the branch-and-bound found no integer solution within
    the budget. *)

val model_size : Resched_platform.Instance.t -> int * int
(** (variables, constraints) of the model that [solve] would build —
    used to report how fast the formulation grows. *)

(** {2 The model on its own}

    For another MILP solver: the bench's dense-tableau oracle arm. *)

type model

val build : Resched_platform.Instance.t -> model
(** The model {!solve} solves. *)

val lp : model -> Resched_milp.Lp.t

val extract : Resched_platform.Instance.t -> model -> float array ->
  Resched_core.Schedule.t
(** The schedule a solution's variable values encode, re-timed with
    integer longest-path semantics, as {!solve} returns it. *)
