module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Bitstream = Resched_fabric.Bitstream
module Device = Resched_fabric.Device
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Min_heap = Resched_util.Min_heap

type region = {
  id : int;
  res : Resource.t;
  bits : float;
  reconf : int;
  mutable tasks : int list;
}

(* Pending window work, shared by the states of one restart context:
   the tasks whose earliest start ([fwd], keyed on the stored start) or
   tail ([bwd], keyed on the stored tail) a queued change may move, plus
   what the queued changes did to task finishes (for the makespan). Keys
   never change while a task is queued: a task's value is only rewritten
   once it has been popped. *)
type worklist = {
  fwd : Min_heap.t;
  bwd : Min_heap.t;
  mutable hi : int;  (* highest finish a queued change raised *)
  mutable fell : bool;
      (* a queued change lowered a finish at or above the makespan *)
}

let make_worklist n =
  { fwd = Min_heap.create n; bwd = Min_heap.create n; hi = 0; fell = false }

let clear_worklist q =
  Min_heap.clear q.fwd;
  Min_heap.clear q.bwd;
  q.hi <- 0;
  q.fell <- false

type windows = {
  w_t_min : int array;  (* earliest start *)
  w_tail : int array;  (* longest path from the task's end to the end *)
  w_dur : int array;  (* duration of the selected implementation *)
  mutable w_makespan : int;
}

type scratch = {
  sc_sort : int array;  (* region-task ordering workspace, size n *)
  sc_keys : float array;  (* sort keys (unboxed), size n *)
  sc_mark : bool array;  (* cycle-guard reachability marks, size n *)
  sc_tasks : int array;  (* pipeline-step candidate workspace, size n *)
  sc_flags : bool array;  (* pipeline-step flag workspace, size n *)
  sc_hw_impls : (int * Impl.t) list array;
      (* [Instance.hw_impls] per task, computed once: the instance is
         immutable, so the cached lists stay equal to what the accessor
         would rebuild (and reallocate) on every balance probe *)
}

let sc_tasks s = s.sc_tasks
let sc_keys s = s.sc_keys
let sc_flags s = s.sc_flags
let sc_mark s = s.sc_mark

type t = {
  inst : Instance.t;
  max_res : Resource.t;
  cost : Cost.t;
  impl_of : int array;
  dep : Graph.t;
  mutable regions_arr : region array;
  mutable nregions : int;
  mutable used : Resource.t;
  region_of : int array;
  processor_of : int array;
  win : windows;
  work : worklist;
  scratch : scratch;
}

let impl t u = Instance.impl t.inst ~task:u ~idx:t.impl_of.(u)
let duration t u = t.win.w_dur.(u)
let is_hw t u = Impl.is_hw (impl t u)

let hw_impls t u = t.scratch.sc_hw_impls.(u)

let t_min t u = t.win.w_t_min.(u)
let t_max t u = t.win.w_makespan - t.win.w_tail.(u)
let makespan t = t.win.w_makespan

let critical t u =
  let w = t.win in
  w.w_t_min.(u) + w.w_dur.(u) + w.w_tail.(u) = w.w_makespan

(* ---- the propagation -------------------------------------------- *)

let rec queue_all q ~key = function
  | [] -> ()
  | x :: tl ->
    Min_heap.add q ~key x;
    queue_all q ~key tl

(* A task's finish moved from [old] to [now]: a rise may lift the
   makespan, a fall from the top may lower it. *)
let note_finish q (w : windows) ~old ~now =
  if now > q.hi then q.hi <- now;
  if now < old && old >= w.w_makespan then q.fell <- true

(* [t_min] from all predecessors: max(0, max of t_min p + d p). *)
let rec latest_finish t_min dur acc = function
  | [] -> acc
  | p :: tl ->
    let f = t_min.(p) + dur.(p) in
    latest_finish t_min dur (if f > acc then f else acc) tl

(* The tail from all successors: max(0, max of d v + tail v). *)
let rec longest_tail tail dur acc = function
  | [] -> acc
  | v :: tl ->
    let l = dur.(v) + tail.(v) in
    longest_tail tail dur (if l > acc then l else acc) tl

(* Each popped task is recomputed from all its neighbours, so a falling
   value settles as exactly as a rising one; only a task whose value
   changes queues its own neighbours. Longest paths in a DAG with
   non-negative durations are unique, so the fixpoint is the from-scratch
   CPM's, whatever order the heaps pop in. The min-heaps on the stored
   values only make that order near-topological, so most tasks settle on
   their first pop. Starts and the makespan never read a tail, so the
   forward half settles alone; the queued tails wait in [bwd], keyed on
   values nothing rewrites until they are popped. *)
let settle_starts t =
  let q = t.work and w = t.win and dep = t.dep in
  let t_min = w.w_t_min and dur = w.w_dur in
  while not (Min_heap.is_empty q.fwd) do
    let x = Min_heap.pop q.fwd ~key:t_min in
    let now = latest_finish t_min dur 0 (Graph.preds_rev dep x) in
    let old = t_min.(x) in
    if now <> old then begin
      t_min.(x) <- now;
      note_finish q w ~old:(old + dur.(x)) ~now:(now + dur.(x));
      queue_all q.fwd ~key:t_min (Graph.succs_rev dep x)
    end
  done;
  if q.fell then begin
    let m = ref 0 in
    for u = 0 to Array.length t_min - 1 do
      let f = t_min.(u) + dur.(u) in
      if f > !m then m := f
    done;
    w.w_makespan <- !m
  end
  else if q.hi > w.w_makespan then w.w_makespan <- q.hi;
  q.hi <- 0;
  q.fell <- false;
  w.w_makespan

let propagate t =
  ignore (settle_starts t : int);
  let q = t.work and w = t.win and dep = t.dep in
  let tail = w.w_tail and dur = w.w_dur in
  while not (Min_heap.is_empty q.bwd) do
    let x = Min_heap.pop q.bwd ~key:tail in
    let now = longest_tail tail dur 0 (Graph.succs_rev dep x) in
    if now <> tail.(x) then begin
      tail.(x) <- now;
      queue_all q.bwd ~key:tail (Graph.preds_rev dep x)
    end
  done

let set_impl t ~task idx =
  let w = t.win in
  t.impl_of.(task) <- idx;
  let old = w.w_dur.(task) and d = (impl t task).Impl.time in
  if d <> old then begin
    w.w_dur.(task) <- d;
    let start = w.w_t_min.(task) in
    note_finish t.work w ~old:(start + old) ~now:(start + d);
    queue_all t.work.fwd ~key:w.w_t_min (Graph.succs_rev t.dep task);
    queue_all t.work.bwd ~key:w.w_tail (Graph.preds_rev t.dep task)
  end

(* Edge [u -> v]: [v] may start later, [u]'s tail may grow. *)
let add_edge t u v =
  Graph.add_edge t.dep u v;
  Min_heap.add t.work.fwd ~key:t.win.w_t_min v;
  Min_heap.add t.work.bwd ~key:t.win.w_tail u

let set_windows t (c : Cpm.t) =
  clear_worklist t.work;
  let w = t.win in
  let n = Array.length w.w_t_min in
  Array.blit c.Cpm.t_min 0 w.w_t_min 0 n;
  for u = 0 to n - 1 do
    w.w_tail.(u) <- c.Cpm.makespan - c.Cpm.t_max.(u)
  done;
  w.w_makespan <- c.Cpm.makespan

(* ---- creation and recycling -------------------------------------- *)

let create inst ?(resource_scale = 1.0) ?cost ?base_cpm ?worklist ~impl_of ()
    =
  let n = Instance.size inst in
  if Array.length impl_of <> n then
    invalid_arg "State.create: impl_of length mismatch";
  let work =
    match worklist with
    | Some q when Min_heap.capacity q.fwd = n -> q
    | Some _ ->
      invalid_arg "State.create: worklist sized for another instance"
    | None -> make_worklist n
  in
  let max_res = Resource.scale (Arch.max_res inst.Instance.arch) resource_scale in
  let cost = match cost with Some c -> c | None -> Cost.make inst ~max_res in
  let dur =
    Array.init n (fun u ->
        (Instance.impl inst ~task:u ~idx:impl_of.(u)).Impl.time)
  in
  let cpm =
    match base_cpm with
    | Some c -> c
    | None -> Cpm.compute inst.Instance.graph ~durations:dur
  in
  let scratch =
    {
      sc_sort = Array.make n 0;
      sc_keys = Array.make n 0.;
      sc_mark = Array.make n false;
      sc_tasks = Array.make n 0;
      sc_flags = Array.make n false;
      sc_hw_impls = Array.init n (fun u -> Instance.hw_impls inst u);
    }
  in
  let t =
    {
      inst;
      max_res;
      cost;
      impl_of = Array.copy impl_of;
      dep = Graph.copy inst.Instance.graph;
      regions_arr = [||];
      nregions = 0;
      used = Resource.zero;
      region_of = Array.make n (-1);
      processor_of = Array.make n (-1);
      win =
        {
          w_t_min = Array.make n 0;
          w_tail = Array.make n 0;
          w_dur = dur;
          w_makespan = 0;
        };
      work;
      scratch;
    }
  in
  set_windows t cpm;
  t

let dummy_region =
  { id = -1; res = Resource.zero; bits = 0.; reconf = 0; tasks = [] }

let reset t ~impl_of ~base_cpm =
  let n = Instance.size t.inst in
  if Array.length impl_of <> n then
    invalid_arg "State.reset: impl_of length mismatch";
  Array.blit impl_of 0 t.impl_of 0 n;
  for u = 0 to n - 1 do
    t.win.w_dur.(u) <- (impl t u).Impl.time
  done;
  Graph.restore ~from:t.inst.Instance.graph t.dep;
  (* Drop the region references so the previous iteration's records do
     not stay rooted by the recycled slot array. *)
  Array.fill t.regions_arr 0 t.nregions dummy_region;
  t.nregions <- 0;
  t.used <- Resource.zero;
  Array.fill t.region_of 0 n (-1);
  Array.fill t.processor_of 0 n (-1);
  set_windows t base_cpm

(* ---- regions ----------------------------------------------------- *)

let iter_regions t f =
  for i = 0 to t.nregions - 1 do
    f t.regions_arr.(i)
  done

let nth_region t i =
  if i < 0 || i >= t.nregions then invalid_arg "State.nth_region";
  t.regions_arr.(i)

let regions t =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (t.regions_arr.(i) :: acc)
  in
  build (t.nregions - 1) []

let region_count t = t.nregions

let fits_on_fpga t need =
  Resource.fits (Resource.add t.used need) ~within:t.max_res

let new_region t need =
  let device = t.inst.Instance.arch.Arch.device in
  let bits = Bitstream.region_bits device.Device.model need in
  let reconf = Arch.reconf_ticks t.inst.Instance.arch need in
  let region = { id = t.nregions; res = need; bits; reconf; tasks = [] } in
  (if t.nregions = Array.length t.regions_arr then begin
     let cap = max 8 (2 * Array.length t.regions_arr) in
     let grown = Array.make cap dummy_region in
     Array.blit t.regions_arr 0 grown 0 t.nregions;
     t.regions_arr <- grown
   end);
  t.regions_arr.(t.nregions) <- region;
  t.nregions <- t.nregions + 1;
  t.used <- Resource.add t.used need;
  region

(* Would adding edge u -> v close a cycle, i.e. is u reachable from v?
   A path v ~> u forces t_min u >= t_min v + d v, so while the windows
   are [current] for the graph an edge with t_min u < t_min v + d v
   cannot close one. Otherwise a DFS over the recycled mark array
   decides. *)
let edge_would_cycle t ~current u v =
  if current && t_min t u < t_min t v + duration t v then false
  else begin
    let mark = t.scratch.sc_mark in
    Array.fill mark 0 (Array.length mark) false;
    Graph.mark_reachable t.dep v mark;
    mark.(u)
  end

let insert_region_edges t ~task region =
  (* The region is exclusive: order its tasks by their window starts and
     chain the new task between its neighbours. The former
     [List.sort (by t_min) (task :: region.tasks)] is replaced by a
     stable insertion sort ({!Resched_util.Sort}) over a reused scratch
     array — bit-identical order (the stdlib's [List.sort] is the stable
     merge sort, and insertion sort preserves ties the same way) without
     the per-call sort allocations. *)
  let k = List.length region.tasks in
  let arr = t.scratch.sc_sort in
  arr.(0) <- task;
  let i = ref 1 in
  List.iter
    (fun u ->
      arr.(!i) <- u;
      incr i)
    region.tasks;
  Resched_util.Sort.by_int_key arr ~base:0 ~len:(k + 1) ~key:(t_min t);
  let pos = ref 0 in
  while arr.(!pos) <> task do
    incr pos
  done;
  (* Whether no change is queued: the windows then hold for the graph as
     it was before this call. They still rule out a cycle for the second
     edge [task -> next] once [prev -> task] is in: a path through the new
     edge would run next ~> prev, and t_min prev <= t_min task by the sort,
     so t_min task < t_min next + d next rules that path out as well. *)
  let current = Min_heap.is_empty t.work.fwd in
  let guard_edge u v =
    if u <> v && not (Graph.has_edge t.dep u v) then begin
      if edge_would_cycle t ~current u v then
        invalid_arg "State.assign_to_region: ordering edge would create a cycle";
      add_edge t u v
    end
  in
  if !pos > 0 then guard_edge arr.(!pos - 1) task;
  if !pos < k then guard_edge task arr.(!pos + 1);
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (arr.(i) :: acc)
  in
  region.tasks <- build k []

let assign_to_region t ~task region =
  t.region_of.(task) <- region.id;
  t.processor_of.(task) <- -1;
  insert_region_edges t ~task region;
  propagate t

let switch_to_sw t ~task =
  set_impl t ~task (Instance.fastest_sw t.inst task);
  (if t.region_of.(task) >= 0 then begin
     (* Should not happen in the pipeline, but keep the state coherent. *)
     let r = t.regions_arr.(t.region_of.(task)) in
     r.tasks <- List.filter (fun u -> u <> task) r.tasks;
     t.region_of.(task) <- -1
   end);
  propagate t

let region_list t = Array.sub t.regions_arr 0 t.nregions
