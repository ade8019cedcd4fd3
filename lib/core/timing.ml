module Graph = Resched_taskgraph.Graph
module Impl = Resched_platform.Impl
module Min_heap = Resched_util.Min_heap

type reconf_spec = {
  region_id : int;
  t_in : int;
  t_out : int;
  dur : int;
  critical : bool;
}

type resolved = {
  task_start : int array;
  task_end : int array;
  rec_start : int array;
  rec_end : int array;
  makespan : int;
}

let same_module (a : Impl.t) (b : Impl.t) =
  match (a.module_id, b.module_id) with
  | Some x, Some y -> x = y
  | _ -> false

let reconf_specs ?(module_reuse = false) state =
  let specs = ref [] in
  State.iter_regions state (fun (r : State.region) ->
      let rec pairs = function
        | a :: b :: tl ->
          let skip =
            module_reuse
            && same_module (State.impl state a) (State.impl state b)
          in
          if not skip then
            specs :=
              {
                region_id = r.State.id;
                t_in = a;
                t_out = b;
                dur = r.State.reconf;
                critical = State.critical state b;
              }
              :: !specs;
          pairs (b :: tl)
        | [ _ ] | [] -> ()
      in
      pairs r.State.tasks);
  Array.of_list (List.rev !specs)

let must_precede_closure closure a b =
  a.t_out = b.t_in || Graph.in_closure closure a.t_out b.t_in

module Solver = struct
  (* The augmented graph (data edges, region/processor ordering edges,
     one node per reconfiguration wired between its in/out tasks) is
     invariant across one step-7 run; only the controller-chain edges
     over [sequence] change. The base adjacency, in-degrees and durations
     are therefore built once, and the chain is kept as a [chain_next]
     side array. A resolve is a single allocation-free Kahn pass that
     relaxes earliest starts as nodes are dequeued (any topological order
     yields the same longest-path [t_min], so the result is bit-identical
     to a from-scratch CPM over the whole augmented graph); a splice
     re-times from the previous times only what a new chain edge pushes
     later. *)

  (* Every field is mutable so one solver value can be {!reload}ed for
     each restart iteration, growing its arrays on demand: loops are
     bounded by [n]/[nr], never by array lengths. *)
  type t = {
    mutable n : int;  (** task nodes *)
    mutable nr : int;  (** reconfiguration nodes, ids [n .. n+nr-1] *)
    mutable reconfigs : reconf_spec array;
    mutable adj : int array;  (** base augmented adjacency, CSR targets *)
    mutable off : int array;  (** CSR row offsets, [total + 1] entries *)
    mutable base_indeg : int array;
    mutable durations : int array;
    (* scratch, overwritten by every [resolve] *)
    mutable chain_next : int array;
        (** spec index -> next spec in sequence, -1 *)
    mutable indeg : int array;
    mutable queue : int array;
    mutable t_min : int array;
    mutable task_start : int array;
    mutable task_end : int array;
    mutable rec_start : int array;
    mutable rec_end : int array;
    mutable pending : Min_heap.t;
        (** the splice's worklist, empty between calls *)
    mutable makespan : int;  (** of the last resolve or splice *)
  }

  let scratch () =
    {
      n = 0;
      nr = 0;
      reconfigs = [||];
      adj = [| 0 |];
      off = [| 0 |];
      base_indeg = [||];
      durations = [||];
      chain_next = [| -1 |];
      indeg = [||];
      queue = [||];
      t_min = [||];
      task_start = [||];
      task_end = [||];
      rec_start = [| 0 |];
      rec_end = [| 0 |];
      pending = Min_heap.create 0;
      makespan = 0;
    }

  let reload s ~graph ~duration ~reconfigs =
    let n = Graph.size graph in
    let nr = Array.length reconfigs in
    let total = n + nr in
    s.n <- n;
    s.nr <- nr;
    s.reconfigs <- reconfigs;
    let grow a need =
      if Array.length a < need then
        Array.make (Stdlib.max need (2 * Array.length a)) 0
      else a
    in
    s.off <- grow s.off (total + 1);
    s.base_indeg <- grow s.base_indeg total;
    s.durations <- grow s.durations total;
    s.indeg <- grow s.indeg total;
    s.queue <- grow s.queue total;
    s.t_min <- grow s.t_min total;
    s.task_start <- grow s.task_start n;
    s.task_end <- grow s.task_end n;
    s.chain_next <- grow s.chain_next (Stdlib.max 1 nr);
    s.rec_start <- grow s.rec_start (Stdlib.max 1 nr);
    s.rec_end <- grow s.rec_end (Stdlib.max 1 nr);
    if Min_heap.capacity s.pending < total then
      s.pending <-
        Min_heap.create
          (Stdlib.max total (2 * Min_heap.capacity s.pending));
    let off = s.off and base_indeg = s.base_indeg in
    Array.fill base_indeg 0 total 0;
    (* Pass 1: out-degree per node into [off.(u+1)], in-degrees as we
       go. Successors are taken in [succs_rev] order (no reversed-list
       allocation): the longest-path relaxation of [resolve_array] is
       edge-order independent, so the order cannot change a time. *)
    for u = 0 to n - 1 do
      let c = ref 0 in
      List.iter
        (fun v ->
          incr c;
          base_indeg.(v) <- base_indeg.(v) + 1)
        (Graph.succs_rev graph u);
      off.(u + 1) <- !c
    done;
    for k = 0 to nr - 1 do
      let spec = reconfigs.(k) in
      if spec.t_in < 0 || spec.t_in >= n || spec.t_out < 0 || spec.t_out >= n
      then invalid_arg "Timing.Solver.reload: task outside the graph";
      off.(spec.t_in + 1) <- off.(spec.t_in + 1) + 1;
      off.(n + k + 1) <- 1;
      base_indeg.(n + k) <- base_indeg.(n + k) + 1;
      base_indeg.(spec.t_out) <- base_indeg.(spec.t_out) + 1
    done;
    off.(0) <- 0;
    for u = 0 to total - 1 do
      off.(u + 1) <- off.(u + 1) + off.(u)
    done;
    let edges = off.(total) in
    s.adj <- grow s.adj (Stdlib.max 1 edges);
    let adj = s.adj in
    (* Pass 2: fill rows, using [queue] as the per-row cursor. *)
    let cur = s.queue in
    Array.blit off 0 cur 0 total;
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          adj.(cur.(u)) <- v;
          cur.(u) <- cur.(u) + 1)
        (Graph.succs_rev graph u)
    done;
    for k = 0 to nr - 1 do
      let spec = reconfigs.(k) in
      adj.(cur.(spec.t_in)) <- n + k;
      cur.(spec.t_in) <- cur.(spec.t_in) + 1;
      adj.(cur.(n + k)) <- spec.t_out;
      cur.(n + k) <- cur.(n + k) + 1
    done;
    let durations = s.durations in
    for i = 0 to n - 1 do
      durations.(i) <- duration i
    done;
    for k = 0 to nr - 1 do
      durations.(n + k) <- reconfigs.(k).dur
    done

  let result s =
    {
      task_start = s.task_start;
      task_end = s.task_end;
      rec_start = s.rec_start;
      rec_end = s.rec_end;
      makespan = s.makespan;
    }

  let resolve ?release s ~sequence ~len =
    if len < 0 || len > Array.length sequence then
      invalid_arg "Timing.Solver.resolve_array: bad length";
    let { n; nr; indeg; queue; t_min; chain_next; durations; _ } = s in
    let total = n + nr in
    Array.fill chain_next 0 nr (-1);
    Array.blit s.base_indeg 0 indeg 0 total;
    for i = 0 to len - 2 do
      let a = sequence.(i) and b = sequence.(i + 1) in
      chain_next.(a) <- b;
      indeg.(n + b) <- indeg.(n + b) + 1
    done;
    (match release with
    | None -> Array.fill t_min 0 total 0
    | Some r ->
      if Array.length r <> total then
        invalid_arg "Timing.time_plan: release length mismatch";
      Array.blit r 0 t_min 0 total);
    let head = ref 0 and tail = ref 0 in
    (* Node ids in [adj] were validated when the base adjacency was
       built, so unchecked accesses are safe (cf. the packed rows of
       [Graph.closure_with]). Defined outside the drain loop, so popping a
       node allocates no closure. *)
    let relax v finish =
      if Array.unsafe_get t_min v < finish then
        Array.unsafe_set t_min v finish;
      let d = Array.unsafe_get indeg v - 1 in
      Array.unsafe_set indeg v d;
      if d = 0 then begin
        Array.unsafe_set queue !tail v;
        incr tail
      end
    in
    for u = 0 to total - 1 do
      if indeg.(u) = 0 then begin
        queue.(!tail) <- u;
        incr tail
      end
    done;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      (* [u]'s predecessors are all processed: its start is final, so its
         successors can be relaxed now. *)
      let finish = t_min.(u) + durations.(u) in
      let adj = s.adj in
      for j = Array.unsafe_get s.off u to Array.unsafe_get s.off (u + 1) - 1 do
        relax (Array.unsafe_get adj j) finish
      done;
      if u >= n then begin
        let next = chain_next.(u - n) in
        if next >= 0 then relax (n + next) finish
      end
    done;
    if !tail < total then begin
      let stuck = ref [] in
      for u = total - 1 downto 0 do
        if indeg.(u) > 0 then stuck := u :: !stuck
      done;
      raise (Graph.Cycle !stuck)
    end;
    let makespan = ref 0 in
    for u = 0 to n - 1 do
      s.task_start.(u) <- t_min.(u);
      s.task_end.(u) <- t_min.(u) + durations.(u);
      if s.task_end.(u) > !makespan then makespan := s.task_end.(u)
    done;
    for k = 0 to nr - 1 do
      s.rec_start.(k) <- t_min.(n + k);
      s.rec_end.(k) <- t_min.(n + k) + s.reconfigs.(k).dur
    done;
    s.makespan <- !makespan;
    result s

  let resolve_array s ~sequence ~len = resolve s ~sequence ~len

  (* Raise node [v]'s start to at least [finish], keeping the derived
     times and the makespan in step, and queue it when it moved. The
     worklist pops the least live start first; a raise of a queued node
     can only make that order less topological, never the result wrong:
     every raise is a relaxation towards the unique least fixpoint. *)
  let raise_to s v finish =
    let t_min = s.t_min in
    if t_min.(v) < finish then begin
      t_min.(v) <- finish;
      let n = s.n in
      if v < n then begin
        let e = finish + s.durations.(v) in
        s.task_start.(v) <- finish;
        s.task_end.(v) <- e;
        if e > s.makespan then s.makespan <- e
      end
      else begin
        s.rec_start.(v - n) <- finish;
        s.rec_end.(v - n) <- finish + s.durations.(v)
      end;
      Min_heap.add s.pending ~key:t_min v
    end

  let splice s ~sequence ~len ~pos =
    if len < 1 || len > Array.length sequence || pos < 0 || pos >= len then
      invalid_arg "Timing.Solver.splice: bad position";
    let n = s.n and chain_next = s.chain_next and pending = s.pending in
    let k = sequence.(pos) in
    let prev = if pos > 0 then sequence.(pos - 1) else -1 in
    chain_next.(k) <- (if pos + 1 < len then sequence.(pos + 1) else -1);
    (* [prev -> k -> next] replaces [prev -> next] and implies it, so
       every time can only rise: raise [k] past [prev], then push forward
       from [k], whose chain successor is now [next]. *)
    let t_min = s.t_min and durations = s.durations in
    if prev >= 0 then begin
      chain_next.(prev) <- k;
      raise_to s (n + k) (t_min.(n + prev) + durations.(n + prev))
    end;
    Min_heap.add pending ~key:t_min (n + k);
    (* Past the shared pop budget the full resolve takes over: it gives
       the same times, and reports a cycle through the new chain edges
       as [Graph.Cycle]. *)
    let budget = ref (Min_heap.pop_budget (n + s.nr)) in
    while (not (Min_heap.is_empty pending)) && !budget > 0 do
      decr budget;
      let x = Min_heap.pop pending ~key:t_min in
      let finish = t_min.(x) + durations.(x) in
      for j = s.off.(x) to s.off.(x + 1) - 1 do
        raise_to s s.adj.(j) finish
      done;
      if x >= n then begin
        let next = chain_next.(x - n) in
        if next >= 0 then raise_to s (n + next) finish
      end
    done;
    if Min_heap.is_empty pending then result s
    else begin
      Min_heap.clear pending;
      resolve_array s ~sequence ~len
    end
end

let time_plan ?release ~durations ~region_chains ~processor_chains ~reconfigs
    ~controller graph =
  let n = Graph.size graph in
  if Array.length durations <> n then
    invalid_arg "Timing.time_plan: durations length mismatch";
  let plan = Graph.copy graph in
  let rec chain ~direct = function
    | a :: (b :: _ as tl) ->
      if direct a b then Graph.add_edge plan a b;
      chain ~direct tl
    | [ _ ] | [] -> ()
  in
  (* [loaded_by.(b)]: the reconfiguration that loads [b]'s bitstream. The
     solver wires each one between its ingoing and outgoing task, so a
     region pair needs an edge of its own only when no reconfiguration
     separates it. *)
  let loaded_by = Array.make n (-1) in
  Array.iteri (fun k spec -> loaded_by.(spec.t_out) <- k) reconfigs;
  Array.iteri
    (fun r tasks ->
      chain tasks ~direct:(fun a b ->
          let k = loaded_by.(b) in
          k < 0 || reconfigs.(k).t_in <> a || reconfigs.(k).region_id <> r))
    region_chains;
  Array.iter (chain ~direct:(fun _ _ -> true)) processor_chains;
  let s = Solver.scratch () in
  Solver.reload s ~graph:plan ~duration:(Array.get durations) ~reconfigs;
  Solver.resolve ?release s ~sequence:controller ~len:(Array.length controller)
