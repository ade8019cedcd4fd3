module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Schedule = Resched_core.Schedule
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Pa = Resched_core.Pa

let mean_time inst u =
  let impls = inst.Instance.impls.(u) in
  let total = Array.fold_left (fun acc i -> acc + i.Impl.time) 0 impls in
  float_of_int total /. float_of_int (Array.length impls)

let upward_ranks inst =
  let g = inst.Instance.graph in
  let n = Instance.size inst in
  let rank = Array.make n 0. in
  let order = Graph.topological_order g in
  for i = n - 1 downto 0 do
    let u = order.(i) in
    let succ_best =
      List.fold_left (fun acc v -> Stdlib.max acc rank.(v)) 0. (Graph.succs g u)
    in
    rank.(u) <- mean_time inst u +. succ_best
  done;
  rank

let schedule_once ?(module_reuse = false) ?(resource_scale = 1.0) inst =
  let n = Instance.size inst in
  let rank = upward_ranks inst in
  let order =
    List.sort
      (fun a b -> compare (rank.(b), a) (rank.(a), b))
      (List.init n (fun i -> i))
  in
  let state = ref (Partial.create ~module_reuse ~resource_scale inst) in
  List.iter
    (fun task ->
      let best =
        List.fold_left
          (fun acc option ->
            let s = Partial.apply !state ~task option in
            match acc with
            | Some b
              when (b.Partial.finish.(task), b.Partial.makespan)
                   <= (s.Partial.finish.(task), s.Partial.makespan) -> acc
            | Some _ | None -> Some s)
          None
          (Partial.options !state task)
      in
      match best with Some s -> state := s | None -> assert false)
    order;
  let sched = Partial.to_schedule !state in
  { sched with Schedule.resource_scale }

let run_with_stats ?(module_reuse = false) ?cache:given inst =
  let device = inst.Instance.arch.Arch.device in
  let cache = match given with Some c -> c | None -> Fp_cache.create () in
  let stats_before = Fp_cache.stats cache in
  let rec attempt k scale =
    if k > 8 then Pa.all_software_schedule inst
    else begin
      let sched = schedule_once ~module_reuse ~resource_scale:scale inst in
      let needs =
        Array.map (fun (r : Schedule.region) -> r.Schedule.res)
          sched.Schedule.regions
      in
      if Array.length needs = 0 then
        { sched with Schedule.floorplan = Some [||] }
      else begin
        match (Fp_cache.check cache device needs).Floorplanner.verdict with
        | Floorplanner.Feasible placements ->
          { sched with Schedule.floorplan = Some placements }
        | Floorplanner.Infeasible | Floorplanner.Unknown ->
          attempt (k + 1) (scale *. 0.9)
      end
    end
  in
  let sched = attempt 1 1.0 in
  let cache_stats =
    Option.map
      (fun _ -> Fp_cache.diff (Fp_cache.stats cache) stats_before)
      given
  in
  (sched, cache_stats)

let run ?module_reuse ?cache inst =
  fst (run_with_stats ?module_reuse ?cache inst)
