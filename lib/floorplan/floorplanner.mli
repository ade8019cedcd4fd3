(** Top-level floorplan feasibility check (the paper's step H).

    Given the reconfigurable regions produced by the scheduler, decide
    whether they admit a floorplan complying with the PDR granularity
    constraints of the device, and produce one when they do. Two engines
    are available: a combinatorial backtracking packer (default, fast)
    and the MILP formulation (used as a cross-check and as the faithful
    port of [3]'s approach). *)

type engine =
  | Backtracking  (** the column-interval packer (default, fast) *)
  | Backtracking_v1
      (** the original backtracking packer, kept as the equivalence
          oracle for [Backtracking] *)
  | Milp

type verdict =
  | Feasible of Placement.rect array
  | Infeasible
  | Unknown

type report = {
  verdict : verdict;
  elapsed : float;  (** wall-clock seconds spent in the check *)
}

val check : ?engine:engine -> Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> report
(** [check device needs] runs the requested [engine] (default
    [Backtracking]) under that engine's fixed search budget (see
    {!Packer.pack} and {!Milp_model.pack}). Requirements must all be
    non-zero. *)

val validate : Resched_fabric.Device.t ->
  needs:Resched_fabric.Resource.t array -> Placement.rect array ->
  (unit, string) result
(** Independent verification that a claimed floorplan is correct: right
    count, in-bounds rectangles, pairwise disjoint, and each rectangle's
    resources cover its region's requirement. *)

val quick_capacity_check : Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> bool
(** Necessary conditions only: total requirements fit the device totals,
    per-kind column x clock-region tile budgets are respected, and the
    regions' minimal rectangular footprints fit the device area
    (see {!Packer.capacity_bounds_ok}). The scheduler uses this as a
    cheap pre-filter; [false] proves infeasibility. *)
