module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance

let delay state ~task ~last_end =
  Stdlib.max 0 (last_end - State.t_min state task)

let choose_processor state ~task on_processor =
  let end_of u = State.t_min state u + State.duration state u in
  let best_p = ref 0 and best_lambda = ref max_int in
  for p = 0 to Array.length on_processor - 1 do
    let last_end =
      List.fold_left (fun acc u -> Stdlib.max acc (end_of u)) 0
        on_processor.(p)
    in
    let lambda = delay state ~task ~last_end in
    if lambda < !best_lambda then begin
      best_lambda := lambda;
      best_p := p
    end
  done;
  !best_p

(* Totally order [task] against every task already on the processor: a
   dependency path (either way) already orders the pair; otherwise an
   explicit edge is inserted following the current window order. The
   edges only queue their window changes, so every comparison reads the
   windows the task's step started with; [run] settles the starts once
   per task.
   This guarantees processor exclusiveness whatever delays appear later.
   [fwd] holds the descendants of [task] and [anc] its ancestors *in the
   current graph*, maintained incrementally as edges go in. An edge
   [task -> u] can only extend [fwd] (by [u]'s descendants, a DAG admits
   no new path into [task] from an edge out of it), and an edge
   [u -> task] only [anc] — so one marking DFS from [u] restores the
   invariant and total work per task is bounded by one graph traversal
   instead of two per assigned pair. *)
let order_against state ~task ~fwd ~anc assigned =
  let dep = state.State.dep in
  List.iter
    (fun u ->
      if not (fwd.(u) || anc.(u)) then begin
        if State.t_min state u <= State.t_min state task then begin
          State.add_edge state u task;
          Graph.mark_coreachable dep u anc
        end
        else begin
          State.add_edge state task u;
          Graph.mark_reachable dep u fwd
        end
      end)
    assigned

let run state ~bound =
  let n = Instance.size state.State.inst in
  let processors =
    state.State.inst.Instance.arch.Resched_platform.Arch.processors
  in
  let on_processor = Array.make processors [] in
  (* Software tasks in stable t_min order, collected and sorted in
     borrowed scratch. *)
  let s = state.State.scratch in
  let sw = State.sc_tasks s in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if not (State.is_hw state u) then begin
      sw.(!count) <- u;
      incr count
    end
  done;
  let count = !count in
  Resched_util.Sort.by_int_key sw ~base:0 ~len:count ~key:(State.t_min state);
  let fwd = State.sc_flags s and anc = State.sc_mark s in
  (* Only starts and durations steer the mapping, so each task settles
     the starts alone; the tails its edges queue settle once, at the
     end. The edges only raise the makespan the settle returns, so once
     it reaches [bound] the mapping stops. *)
  let i = ref 0 and below = ref true in
  while !below && !i < count do
    let task = sw.(!i) in
    let p = choose_processor state ~task on_processor in
    Array.fill fwd 0 n false;
    Array.fill anc 0 n false;
    Graph.mark_reachable state.State.dep task fwd;
    Graph.mark_coreachable state.State.dep task anc;
    order_against state ~task ~fwd ~anc on_processor.(p);
    state.State.processor_of.(task) <- p;
    on_processor.(p) <- task :: on_processor.(p);
    below := State.settle_starts state < bound;
    incr i
  done;
  if !below then State.propagate state;
  !below
