(** Search for a non-overlapping assignment of one feasible placement to
    every reconfigurable region. *)

type engine =
  | Backtracking_v1
      (** The original greedy + naive backtracking search, kept as the
          oracle for equivalence tests. *)
  | Column_interval
      (** Column-interval packer: prefix-sum resource vectors, a
          cross-call memo of dominance-pruned candidate arrays,
          tile-demand lower bounds, symmetry breaking over identical
          demands, bitset occupancy, an infeasible-suffix memo and a
          deterministic restart portfolio over several region orders.
          Searches the same candidate universe as [Backtracking_v1] and
          falls back to it on budget exhaustion, so verdicts never
          contradict v1 and are never less decisive — only [Unknown]s
          can be refined to decisive answers. *)

type outcome =
  | Placed of Placement.rect array
      (** one placement per input region, in input order *)
  | Infeasible  (** exhaustively proven: no packing exists *)
  | Unknown  (** node budget exhausted before a conclusion *)

val capacity_bounds_ok :
  Resched_fabric.Device.t -> Resched_fabric.Resource.t array -> bool
(** Cheap necessary conditions for a packing to exist: per-kind
    column x row tile budgets and a total-area bound over each region's
    minimal rectangular footprint. [false] is a proof of infeasibility;
    [true] promises nothing. Used by [Column_interval] as an early exit
    and by {!Floorplanner.quick_capacity_check}. *)

val pack : ?engine:engine -> Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> outcome
(** [pack device needs] searches for placements of all regions
    (default engine [Column_interval]) within a budget of 200_000
    search nodes. Raises [Invalid_argument] if any requirement is
    zero. *)
