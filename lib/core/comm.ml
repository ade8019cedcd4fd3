module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Impl = Resched_platform.Impl

let uniform_cost c ~src:_ ~dst:_ = c

(* The share of a task's incoming transfer cost its hardware and its
   software implementations pay. *)
let hw_factor = 1.0
let sw_factor = 0.5

let inflate ~cost (inst : Instance.t) =
  let n = Instance.size inst in
  let incoming = Array.make n 0 in
  for t = 0 to n - 1 do
    incoming.(t) <-
      List.fold_left
        (fun acc p ->
          let c = cost ~src:p ~dst:t in
          if c < 0 then invalid_arg "Comm.inflate: negative cost";
          acc + c)
        0
        (Graph.preds inst.Instance.graph t)
  done;
  let bump factor base extra =
    base + int_of_float (Float.ceil (factor *. float_of_int extra))
  in
  let impls =
    Array.mapi
      (fun t impls ->
        Array.map
          (fun (i : Impl.t) ->
            let factor = if Impl.is_hw i then hw_factor else sw_factor in
            { i with Impl.time = bump factor i.Impl.time incoming.(t) })
          impls)
      inst.Instance.impls
  in
  Instance.make ~arch:inst.Instance.arch ~graph:inst.Instance.graph
    ~names:inst.Instance.names ~impls ()
