(** Random and structured DAG generators.

    The paper's evaluation uses pseudo-random task graphs (Sec. VII-A);
    [layered] is the workhorse used by the benchmark suite, while the
    structured families are used by the examples and by property tests to
    exercise edge-case topologies (pure chains, maximal parallelism,
    fork-join pipelines). All generators draw only from the given
    {!Resched_util.Rng.t}, hence are fully reproducible. *)

val layered : Resched_util.Rng.t -> tasks:int -> width:int ->
  edge_probability:float -> Graph.t
(** Nodes are spread over layers of at most [width] tasks; every task of a
    non-first layer gets at least one predecessor from the previous layer;
    extra forward edges (possibly skipping layers) are added with
    probability [edge_probability]. The result is connected enough to have
    a single-digit number of sources and is always acyclic. *)

val chain : int -> Graph.t
(** [chain n]: a pure pipeline [0 -> 1 -> ... -> n-1] (no HW parallelism
    available — worst case for PA, per the paper's Sec. VII-B remark). *)

val independent : int -> Graph.t
(** [independent n]: n tasks, no edges (maximal parallelism — the other
    extreme the paper calls out). *)

val fork_join : branches:int -> depth:int -> Graph.t
(** A source forking into [branches] chains of [depth] tasks that join
    into a sink. Size is [branches * depth + 2]. *)

val series_parallel : Resched_util.Rng.t -> tasks:int -> Graph.t
(** A random series-parallel DAG of exactly [tasks] nodes built by
    recursive series/parallel composition. *)
