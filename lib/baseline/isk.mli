(** IS-k — the iterative scheduling baseline (Deiana et al. [6],
    Sec. II/VII of the reproduced paper).

    Tasks are committed in topological order, k at a time; each chunk is
    scheduled optimally with respect to the already-committed prefix
    ({!Chunk_dfs}). IS-1 and IS-5 are the configurations the paper
    evaluates. As in the paper, IS-k exploits module reuse (a feature PA
    deliberately lacks), and validates its region set with the
    floorplanner, virtually shrinking the FPGA on failure exactly like
    PA. *)

type config = {
  k : int;
  chunk_node_limit : int;  (** branch-and-bound budget per chunk *)
  module_reuse : bool;  (** default true: [6] supports module reuse *)
  floorplan_cache : Resched_floorplan.Fp_cache.t option;
      (** the cache the shrink-retry loop checks its region sets
          through; [None] gives each {!run} a private one *)
}

val config : k:int -> config
(** Defaults: 200_000 nodes per chunk, module reuse on, no shared
    cache. *)

type stats = {
  chunks : int;
  nodes : int;  (** branch-and-bound nodes over all chunks and attempts *)
  every_chunk_optimal : bool;
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
}

val schedule_once : ?config:config -> Resched_platform.Instance.t ->
  Resched_core.Schedule.t * stats
(** One pass at the full device, without the floorplan check. *)

val run : ?config:config -> Resched_platform.Instance.t ->
  Resched_core.Schedule.t * stats
(** Full IS-k: passes through PA's shrink-retry loop
    ({!Resched_core.Pa.shrink_retry}), with the floorplan checks going
    through [config.floorplan_cache]. *)
