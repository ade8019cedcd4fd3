(** Simulated-annealing neighborhood search over the {!Delta} move
    kernel.

    [polish] takes a finished schedule (typically the best of a PA / PA-R
    run), wraps it in a {!Delta.t} and explores the move neighborhood —
    reassign / swap / HW<->SW / merge / split, proposed by a seeded
    {!Resched_util.Rng} — under a standard geometric-cooling Metropolis
    rule. Every accepted move is {!Delta.commit}ed; every declined one is
    rolled back in O(touched), which is what makes thousands of proposals
    per second possible. The incumbent is only replaced by {e feasible}
    improvements (floorplan verdict included), and the best schedule is
    materialized lazily, so a polish run can never return something worse
    than its seed. *)

type stats = {
  proposed : int;  (** moves drawn from the proposal distribution *)
  applied : int;  (** structurally legal moves (evaluated by the kernel) *)
  accepted : int;  (** applied moves kept by the Metropolis rule *)
  improvements : int;  (** accepted moves that improved the feasible best *)
  elapsed : float;  (** wall-clock seconds spent *)
}

type outcome = {
  schedule : Schedule.t option;
      (** best floorplan-feasible schedule seen — the (canonicalized)
          seed itself when nothing improved, [None] only if the seed
          was floorplan-infeasible and no move repaired it *)
  makespan : int;
      (** of [schedule]; the seed's canonical makespan when unimproved,
          [max_int] when [schedule = None] *)
  stats : stats;
}

val propose : Delta.t -> Resched_util.Rng.t -> Delta.move
(** One draw from the weighted proposal distribution [polish] explores
    (30% reassign, 15% swap, 15% demote, 20% promote, 10% merge, 10%
    split; infeasible draws are returned anyway and bounce off the
    kernel's structural checks). Exposed so the bench harness can drive
    the kernel with the exact move mix the search uses. *)

val polish : ?config:Delta.config -> ?seed:int -> ?min_moves:int ->
  budget_seconds:float -> Schedule.t -> outcome
(** [polish ~budget_seconds sched] anneals from [sched] until at least
    [min_moves] (default 1) proposals have been drawn {e and} the
    wall-clock budget is spent. The temperature [T] starts at 5% of the
    seed makespan (at least 1) and cools by 0.999 per proposal. It
    shapes the Metropolis rule: a move whose energy — makespan, plus a
    large penalty when it breaks floorplan feasibility — rises by [d] is
    still accepted with probability [exp (-d / T)].

    With [budget_seconds = 0.] the run performs exactly [min_moves]
    proposals, and the outcome is a deterministic function of
    [(seed, min_moves)] and the input schedule — the reproducible
    configuration used by tests and the bench harness. *)
