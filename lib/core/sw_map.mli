(** Step 6 — software task mapping (Sec. V-F).

    Binds every software task to a processor core. Tasks are visited in
    chronological order ([T_MIN] ascending); each goes to the processor
    with the smallest induced delay λ_p (eq. 8 — implemented as
    [max(0, max_{t2 ∈ T_p} T_END_{t2} - T_MIN_t)]; the paper's [min] is a
    typo, see DESIGN.md), and an ordering edge from the processor's last
    task propagates any delay through the task graph (eq. 9 / step 4). *)

val run : State.t -> bound:int -> bool
(** Mutates [processor_of], the dependency graph and the windows. The
    mapping reads only starts and durations, so after each task's
    ordering edges it settles the starts alone ({!State.settle_starts});
    the tails settle in one {!State.propagate} once every task is
    mapped, and [run] returns [true] with every window current. The
    edges only raise the makespan, so as soon as a settle returns a
    makespan at or above [bound] the mapping stops and returns [false],
    leaving the state part-mapped with its tails queued: the caller
    drops it ({!State.reset}). [bound = max_int] maps every task. The
    already-ordered test for each (task, assigned) pair is answered from
    incrementally maintained descendant and ancestor marks, not from two
    reachability DFS per pair. *)

val delay : State.t -> task:int -> last_end:int -> int
(** λ_p for a processor whose currently-last task ends at [last_end]. *)

val choose_processor : State.t -> task:int -> int list array -> int
(** The processor with the smallest λ_p for [task], given the tasks
    already on each processor; ties go to the lowest index. *)
