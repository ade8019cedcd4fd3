(** Top-level floorplan feasibility check (the paper's step H).

    Given the reconfigurable regions produced by the scheduler, decide
    whether they admit a floorplan complying with the PDR granularity
    constraints of the device, and produce one when they do: with the
    column-interval packer ({!Packer.pack}), or with the MILP formulation
    ({!Milp_model}), the faithful port of [3]'s approach and a
    cross-check. The packer's oracle lives in test/oracle/. *)

type engine =
  | Backtracking  (** the column-interval packer (default, fast) *)
  | Milp  (** the MILP model over {!Branch_bound} *)

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
