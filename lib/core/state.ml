module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Bitstream = Resched_fabric.Bitstream
module Device = Resched_fabric.Device
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl

type region = {
  id : int;
  res : Resource.t;
  bits : float;
  reconf : int;
  mutable tasks : int list;
}

type scratch = {
  sc_buffers : Cpm.buffers;
  sc_durations : int array;
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
  mutable cpm : Cpm.t;
  scratch : scratch;
}

let impl t u = Instance.impl t.inst ~task:u ~idx:t.impl_of.(u)
let duration t u = (impl t u).Impl.time
let durations t = Array.init (Instance.size t.inst) (duration t)
let is_hw t u = Impl.is_hw (impl t u)

let hw_impls t u = t.scratch.sc_hw_impls.(u)

(* One set of CPM arrays is recycled: no per-refresh allocation. Safe
   because no pipeline step keeps a [Cpm.t] alive across a refresh
   (Regions_define copies the critical flags it needs), and a shared
   [base_cpm] owns separate arrays. *)
let refresh_windows t =
  let s = t.scratch in
  for u = 0 to Instance.size t.inst - 1 do
    s.sc_durations.(u) <- duration t u
  done;
  t.cpm <- Cpm.compute_with s.sc_buffers t.dep ~durations:s.sc_durations

let initial_cpm inst ~impl_of =
  let durations =
    Array.init (Instance.size inst) (fun u ->
        (Instance.impl inst ~task:u ~idx:impl_of.(u)).Impl.time)
  in
  Cpm.compute inst.Instance.graph ~durations

let create inst ?(resource_scale = 1.0) ?cost ?base_cpm ~impl_of () =
  let n = Instance.size inst in
  if Array.length impl_of <> n then
    invalid_arg "State.create: impl_of length mismatch";
  let max_res = Resource.scale (Arch.max_res inst.Instance.arch) resource_scale in
  let cost = match cost with Some c -> c | None -> Cost.make inst ~max_res in
  let cpm =
    match base_cpm with Some c -> c | None -> initial_cpm inst ~impl_of
  in
  let scratch =
    {
      sc_buffers = Cpm.make_buffers n;
      sc_durations = Array.make n 0;
      sc_sort = Array.make n 0;
      sc_keys = Array.make n 0.;
      sc_mark = Array.make n false;
      sc_tasks = Array.make n 0;
      sc_flags = Array.make n false;
      sc_hw_impls = Array.init n (fun u -> Instance.hw_impls inst u);
    }
  in
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
    cpm;
    scratch;
  }

let dummy_region =
  { id = -1; res = Resource.zero; bits = 0.; reconf = 0; tasks = [] }

let reset t ~impl_of ~base_cpm =
  let n = Instance.size t.inst in
  if Array.length impl_of <> n then
    invalid_arg "State.reset: impl_of length mismatch";
  Array.blit impl_of 0 t.impl_of 0 n;
  Graph.restore ~from:t.inst.Instance.graph t.dep;
  (* Drop the region references so the previous iteration's records do
     not stay rooted by the recycled slot array. *)
  Array.fill t.regions_arr 0 t.nregions dummy_region;
  t.nregions <- 0;
  t.used <- Resource.zero;
  Array.fill t.region_of 0 n (-1);
  Array.fill t.processor_of 0 n (-1);
  t.cpm <- base_cpm

let t_min t u = t.cpm.Cpm.t_min.(u)
let t_max t u = t.cpm.Cpm.t_max.(u)

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
let used_resources t = t.used

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
   Answered with the recycled mark array. *)
let edge_would_cycle t u v =
  let mark = t.scratch.sc_mark in
  Array.fill mark 0 (Array.length mark) false;
  Graph.mark_reachable t.dep v mark;
  mark.(u)

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
  let guard_edge u v =
    if u <> v && not (Graph.has_edge t.dep u v) then begin
      if edge_would_cycle t u v then
        invalid_arg "State.assign_to_region: ordering edge would create a cycle";
      Graph.add_edge t.dep u v
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
  refresh_windows t

let switch_to_sw t ~task =
  t.impl_of.(task) <- Instance.fastest_sw t.inst task;
  (if t.region_of.(task) >= 0 then begin
     (* Should not happen in the pipeline, but keep the state coherent. *)
     let r = t.regions_arr.(t.region_of.(task)) in
     r.tasks <- List.filter (fun u -> u <> task) r.tasks;
     t.region_of.(task) <- -1
   end);
  refresh_windows t

let switch_to_hw t ~task ~impl_idx region =
  let i = Instance.impl t.inst ~task ~idx:impl_idx in
  if not (Impl.is_hw i) then
    invalid_arg "State.switch_to_hw: not a hardware implementation";
  t.impl_of.(task) <- impl_idx;
  refresh_windows t;
  assign_to_region t ~task region

let region_list t = Array.sub t.regions_arr 0 t.nregions

let find_region t id =
  (* Region ids are assigned densely by [new_region], so the id is the
     slot index. *)
  if id < 0 || id >= t.nregions then raise Not_found;
  t.regions_arr.(id)
