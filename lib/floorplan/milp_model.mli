(** MILP formulation of the region-packing feasibility problem, in the
    spirit of Rabozzi et al. [3]: one binary variable per (region,
    feasible placement) pair, an assignment constraint per region and a
    tile-occupancy constraint per column x clock-region tile (at most one
    placement covers any tile). As in the paper, no meaningful objective
    is needed — we only check existence — but we minimize total occupied
    area to keep the solver deterministic. *)

type outcome =
  | Placed of Placement.rect array
  | Infeasible
  | Unknown  (** branch-and-bound node budget exhausted *)

val pack : Resched_fabric.Device.t -> Resched_fabric.Resource.t array ->
  outcome
(** Build and solve the packing MILP sequentially within 2_000
    branch-and-bound nodes — each node is one LP solve, warm-started
    from its parent's basis. *)
