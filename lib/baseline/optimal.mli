(** Exact reference scheduler for small instances.

    Exhaustive branch-and-bound over the *entire* instance (equivalent to
    running {!Chunk_dfs} with one chunk containing every task): every
    interleaving, implementation choice and placement is explored, so the
    result is makespan-optimal within the repository's scheduling model
    (earliest-start timing, single reconfiguration controller, regions
    sized by their first implementation, free initial configuration).

    Exponential — intended for instances of up to ~8 tasks, where it
    serves as the ground truth for testing PA and IS-k (no heuristic may
    beat it) and for measuring optimality gaps. Comparable in spirit to
    the exact ILP of Redaelli et al. [8] that the paper cites as
    intractable beyond small sizes. *)

type result = {
  schedule : Resched_core.Schedule.t;
  nodes : int;
  proved_optimal : bool;  (** false when the node budget was exhausted *)
}

val schedule : ?node_limit:int -> Resched_platform.Instance.t -> result
(** Without module reuse; [node_limit] defaults to 5_000_000. *)
