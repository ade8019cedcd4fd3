(** Step 3 — reconfigurable regions definition (Sec. V-C).

    Loops over the tasks whose selected implementation is a hardware one
    and either reuses an existing region, creates a new one, or falls
    back to software. Critical tasks (per the step-2 CPM extraction) are
    processed first; within each class the processing order is given by
    [ordering] — the paper's deterministic scheduler uses the efficiency
    index (eq. 5) descending, the randomized variant a random order. *)

type ordering =
  | By_efficiency  (** paper's PA: efficiency index descending *)
  | By_cost  (** ablation: cost (eq. 3) ascending *)
  | Topological  (** ablation: CPM topological order *)
  | Random of Resched_util.Rng.t  (** PA-R *)

val run : ?module_reuse:bool -> ordering:ordering -> State.t -> unit
(** Mutates the state: region set, task placements (possibly switching
    tasks to software), ordering edges, windows. [module_reuse] (default
    false) lets a task join a region holding an adjacent task with the
    same [module_id] without requiring a reconfiguration gap. *)

val region_compatible_critical : module_reuse:bool -> State.t -> task:int ->
  State.region -> bool
(** Exposed for testing: the Sec. V-C condition for a *critical* task —
    the region hosts the implementation's resources, no hosted window
    overlaps the task's window, and the reconfiguration needed before the
    task fits between the neighbouring windows. *)

val region_compatible_non_critical : State.t -> task:int -> State.region ->
  bool
(** Exposed for testing: the weaker condition used for non-critical
    tasks (no reconfiguration-window requirement). *)

val place_critical : module_reuse:bool -> State.t -> task:int -> unit
(** Place one critical hardware task by the three-way rule of Sec. V-C:
    the compatible region with the smallest bitstream, else a new region
    if it fits, else software. {!run} applies it to every critical task
    in efficiency order. *)

val place_non_critical : State.t -> task:int -> unit
(** Place one non-critical hardware task: a new region if it fits, else
    the compatible region with the smallest bitstream, else software. *)
