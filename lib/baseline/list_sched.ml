module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Impl = Resched_platform.Impl
module Schedule = Resched_core.Schedule
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

let schedule_at ~module_reuse ~resource_scale inst =
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

let schedule_once inst =
  schedule_at ~module_reuse:false ~resource_scale:1.0 inst

let run ?(module_reuse = false) ?cache inst =
  fst
    (Pa.shrink_retry ?cache inst (fun ~resource_scale ->
         schedule_at ~module_reuse ~resource_scale inst))
