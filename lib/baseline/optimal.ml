module Instance = Resched_platform.Instance
module Schedule = Resched_core.Schedule

type result = {
  schedule : Schedule.t;
  nodes : int;
  proved_optimal : bool;
}

let schedule ?(node_limit = 5_000_000) inst =
  let n = Instance.size inst in
  let chunk = List.init n (fun i -> i) in
  let state = Partial.create inst in
  let r = Chunk_dfs.solve ~node_limit state ~chunk in
  {
    schedule = Partial.to_schedule r.Chunk_dfs.state;
    nodes = r.Chunk_dfs.nodes;
    proved_optimal = r.Chunk_dfs.optimal;
  }
