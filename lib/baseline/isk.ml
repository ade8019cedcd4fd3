module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Schedule = Resched_core.Schedule
module Fp_cache = Resched_floorplan.Fp_cache
module Pa = Resched_core.Pa

type config = {
  k : int;
  chunk_node_limit : int;
  module_reuse : bool;
  floorplan_cache : Fp_cache.t option;
}

let config ~k =
  if k <= 0 then invalid_arg "Isk.config: k must be positive";
  {
    k;
    chunk_node_limit = 200_000;
    module_reuse = true;
    floorplan_cache = None;
  }

type stats = {
  chunks : int;
  nodes : int;
  every_chunk_optimal : bool;
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
}

let chunks_of_order k order =
  let rec go acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | u :: tl ->
      if count = k then go (List.rev current :: acc) [ u ] 1 tl
      else go acc (u :: current) (count + 1) tl
  in
  go [] [] 0 (Array.to_list order)

let schedule_at ~config ~resource_scale inst =
  let t0 = Unix.gettimeofday () in
  let order = Graph.topological_order inst.Instance.graph in
  let chunks = chunks_of_order config.k order in
  let state =
    ref (Partial.create ~module_reuse:config.module_reuse ~resource_scale inst)
  in
  let nodes = ref 0 in
  let all_optimal = ref true in
  List.iter
    (fun chunk ->
      let result =
        Chunk_dfs.solve ~node_limit:config.chunk_node_limit !state ~chunk
      in
      state := result.Chunk_dfs.state;
      nodes := !nodes + result.Chunk_dfs.nodes;
      if not result.Chunk_dfs.optimal then all_optimal := false)
    chunks;
  let sched = Partial.to_schedule !state in
  let sched = { sched with Schedule.resource_scale } in
  ( sched,
    {
      chunks = List.length chunks;
      nodes = !nodes;
      every_chunk_optimal = !all_optimal;
      attempts = 1;
      scheduling_seconds = Unix.gettimeofday () -. t0;
      floorplanning_seconds = 0.;
    } )

let schedule_once ?(config = config ~k:1) inst =
  schedule_at ~config ~resource_scale:1.0 inst

let run ?(config = config ~k:1) inst =
  let nodes = ref 0 and chunks = ref 0 and all_optimal = ref true in
  let sched, shrink =
    Pa.shrink_retry ?cache:config.floorplan_cache inst
      (fun ~resource_scale ->
        let sched, stats = schedule_at ~config ~resource_scale inst in
        nodes := !nodes + stats.nodes;
        chunks := !chunks + stats.chunks;
        if not stats.every_chunk_optimal then all_optimal := false;
        sched)
  in
  ( sched,
    {
      chunks = !chunks;
      nodes = !nodes;
      every_chunk_optimal = !all_optimal;
      attempts = shrink.Pa.attempts;
      scheduling_seconds = shrink.Pa.scheduling_seconds;
      floorplanning_seconds = shrink.Pa.floorplanning_seconds;
    } )
