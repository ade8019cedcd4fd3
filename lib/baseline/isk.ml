module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Schedule = Resched_core.Schedule
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Pa = Resched_core.Pa

type config = {
  k : int;
  chunk_node_limit : int;
  module_reuse : bool;
  floorplan_cache : Fp_cache.t option;
  max_attempts : int;
  shrink_factor : float;
}

let config ~k =
  if k <= 0 then invalid_arg "Isk.config: k must be positive";
  {
    k;
    chunk_node_limit = 200_000;
    module_reuse = true;
    floorplan_cache = None;
    max_attempts = 8;
    shrink_factor = 0.9;
  }

type stats = {
  chunks : int;
  nodes : int;
  every_chunk_optimal : bool;
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
  cache_stats : Fp_cache.stats option;
}

let chunks_of_order k order =
  let rec go acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | u :: tl ->
      if count = k then go (List.rev current :: acc) [ u ] 1 tl
      else go acc (u :: current) (count + 1) tl
  in
  go [] [] 0 (Array.to_list order)

let schedule_once ?(config = config ~k:1) ?(resource_scale = 1.0) inst =
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
      cache_stats = None;
    } )

let run ?(config = config ~k:1) inst =
  let device = inst.Instance.arch.Arch.device in
  let sched_time = ref 0. and plan_time = ref 0. in
  let nodes = ref 0 and chunks = ref 0 and all_optimal = ref true in
  let cache =
    match config.floorplan_cache with
    | Some c -> c
    | None -> Fp_cache.create ()
  in
  let stats_before = Fp_cache.stats cache in
  let rec attempt k scale =
    if k > config.max_attempts then begin
      let t0 = Unix.gettimeofday () in
      let fallback = Pa.all_software_schedule inst in
      sched_time := !sched_time +. (Unix.gettimeofday () -. t0);
      (fallback, k - 1)
    end
    else begin
      let sched, stats = schedule_once ~config ~resource_scale:scale inst in
      sched_time := !sched_time +. stats.scheduling_seconds;
      nodes := !nodes + stats.nodes;
      chunks := !chunks + stats.chunks;
      if not stats.every_chunk_optimal then all_optimal := false;
      let needs =
        Array.map (fun (r : Schedule.region) -> r.Schedule.res)
          sched.Schedule.regions
      in
      if Array.length needs = 0 then
        ({ sched with Schedule.floorplan = Some [||] }, k)
      else begin
        let report = Fp_cache.check cache device needs in
        plan_time := !plan_time +. report.Floorplanner.elapsed;
        match report.Floorplanner.verdict with
        | Floorplanner.Feasible placements ->
          ({ sched with Schedule.floorplan = Some placements }, k)
        | Floorplanner.Infeasible | Floorplanner.Unknown ->
          attempt (k + 1) (scale *. config.shrink_factor)
      end
    end
  in
  let sched, attempts = attempt 1 1.0 in
  let cache_stats =
    Option.map
      (fun _ -> Fp_cache.diff (Fp_cache.stats cache) stats_before)
      config.floorplan_cache
  in
  ( sched,
    {
      chunks = !chunks;
      nodes = !nodes;
      every_chunk_optimal = !all_optimal;
      attempts;
      scheduling_seconds = !sched_time;
      floorplanning_seconds = !plan_time;
      cache_stats;
    } )
