(* From-scratch reference for the PA pipeline (Secs. V-VI).

   Production runs steps 3-7 on the restart kernel: sorts over borrowed
   scratch arrays, windows maintained incrementally in steps 3-6,
   marking DFS in step 6, and a timing solver that splices each
   reconfiguration into the controller chain plus a one-shot closure in
   step 7. This module takes the same decisions the plain way: list
   sorts, a from-scratch CPM of the whole augmented graph after every
   placement, two reachability DFS per processor pair, a from-scratch
   CPM per insertion and a fresh traversal per ordering query. It reuses
   what both share: the placement rules of step 3, the reconfiguration
   extraction of step 7 and the schedule construction. The shared
   placement calls update the state's windows incrementally; the oracle
   overwrites them with its own CPM after every call, so none of its
   decisions reads an incrementally maintained window. The identity
   tests and the legacy bench's iteration section compare the
   production kernel against it. *)

module Rng = Resched_util.Rng
module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Floorplanner = Resched_floorplan.Floorplanner
open Resched_core

let tasks_where state p =
  List.filter p (List.init (Instance.size state.State.inst) Fun.id)

let by_t_min state a b = compare (State.t_min state a) (State.t_min state b)

let duration state u = (State.impl state u).Impl.time

(* The windows of the current augmented graph and implementations, from
   scratch, loaded into the state in place of the incremental ones. *)
let refresh state =
  let n = Instance.size state.State.inst in
  let durations = Array.init n (duration state) in
  State.set_windows state (Cpm.compute state.State.dep ~durations)

(* ---- step 3: regions definition ---------------------------------- *)

let sort_tasks state ordering tasks =
  let efficiency u = Cost.efficiency state.State.cost (State.impl state u) in
  let cost u = Cost.cost state.State.cost (State.impl state u) in
  match ordering with
  | Regions_define.By_efficiency ->
    List.stable_sort (fun a b -> compare (efficiency b) (efficiency a)) tasks
  | By_cost -> List.stable_sort (fun a b -> compare (cost a) (cost b)) tasks
  | Topological -> List.stable_sort (by_t_min state) tasks
  | Random rng -> Rng.shuffle rng tasks

let regions_define ?module_reuse ~ordering state =
  refresh state;
  let hw = tasks_where state (State.is_hw state) in
  let criticals, others = List.partition (State.critical state) hw in
  (* Both classes are ordered before any task is placed. *)
  let criticals = sort_tasks state By_efficiency criticals in
  let others = sort_tasks state ordering others in
  List.iter
    (fun task ->
      Regions_define.place_critical ?module_reuse state ~task;
      refresh state)
    criticals;
  List.iter
    (fun task ->
      Regions_define.place_non_critical state ~task;
      refresh state)
    others

(* ---- step 4: software balancing ----------------------------------- *)

(* The cheapest hardware implementation of [task] that fits [region]:
   the first strict cost minimum, in declaration order. *)
let best_fitting_hw state ~task (region : State.region) =
  List.fold_left
    (fun best (idx, (i : Impl.t)) ->
      if not (Resource.fits i.Impl.res ~within:region.State.res) then best
      else
        let c = Cost.cost state.State.cost i in
        match best with
        | Some (_, bc) when bc <= c -> best
        | _ -> Some (idx, c))
    None
    (Instance.hw_impls state.State.inst task)
  |> Option.map fst

(* [Sw_balance.try_move], with the tentative window check on a
   from-scratch CPM: the first region, in creation order, whose cheapest
   fitting implementation leaves the task's window disjoint from the
   hosted ones. *)
let try_move state ~task =
  let rec attempt = function
    | [] -> ()
    | region :: rest -> (
      match best_fitting_hw state ~task region with
      | None -> attempt rest
      | Some impl_idx ->
        let saved = state.State.impl_of.(task) in
        State.set_impl state ~task impl_idx;
        refresh state;
        let placed =
          Regions_define.region_compatible_non_critical state ~task region
          &&
          match State.assign_to_region state ~task region with
          | () -> true
          | exception Invalid_argument _ -> false
        in
        if placed then refresh state
        else begin
          State.set_impl state ~task saved;
          refresh state;
          attempt rest
        end)
  in
  attempt (State.regions state)

let sw_balance state =
  refresh state;
  tasks_where state (fun u ->
      (not (State.is_hw state u))
      && Instance.hw_impls state.State.inst u <> [])
  |> List.sort (by_t_min state)
  |> List.iter (fun task ->
         if State.t_min state task > Sw_balance.tot_rec_time state then
           try_move state ~task)

(* ---- step 6: software mapping ------------------------------------- *)

let sequence_on_processor state ~task assigned =
  let dep = state.State.dep in
  List.iter
    (fun u ->
      if not ((Graph.reachable dep task).(u) || (Graph.reachable dep u).(task))
      then
        if State.t_min state u <= State.t_min state task then
          Graph.add_edge dep u task
        else Graph.add_edge dep task u)
    assigned

let sw_map state =
  refresh state;
  let inst = state.State.inst in
  let on_processor = Array.make inst.Instance.arch.Arch.processors [] in
  tasks_where state (fun u -> not (State.is_hw state u))
  |> List.sort (by_t_min state)
  |> List.iter (fun task ->
         let p = Sw_map.choose_processor state ~task on_processor in
         sequence_on_processor state ~task on_processor.(p);
         state.State.processor_of.(task) <- p;
         on_processor.(p) <- task :: on_processor.(p);
         refresh state)

(* ---- step 7: reconfigurations scheduling -------------------------- *)

(* Earliest-start times from one CPM over a freshly built augmented
   graph: dependency edges, each reconfiguration between its in/out
   tasks, and the controller chain over [sequence]. *)
let resolve state ~reconfigs ~sequence =
  let n = Instance.size state.State.inst in
  let nr = Array.length reconfigs in
  let g = Graph.create (n + nr) in
  List.iter (fun (u, v) -> Graph.add_edge g u v) (Graph.edges state.State.dep);
  Array.iteri
    (fun k (spec : Timing.reconf_spec) ->
      Graph.add_edge g spec.Timing.t_in (n + k);
      Graph.add_edge g (n + k) spec.Timing.t_out)
    reconfigs;
  let rec chain = function
    | a :: (b :: _ as tl) ->
      Graph.add_edge g (n + a) (n + b);
      chain tl
    | [ _ ] | [] -> ()
  in
  chain sequence;
  let durations =
    Array.init (n + nr) (fun i ->
        if i < n then duration state i else reconfigs.(i - n).Timing.dur)
  in
  let cpm = Cpm.compute g ~durations in
  let task_start = Array.sub cpm.Cpm.t_min 0 n in
  let rec_start = Array.sub cpm.Cpm.t_min n nr in
  let task_end = Array.mapi (fun u s -> s + durations.(u)) task_start in
  {
    Timing.task_start;
    task_end;
    rec_start;
    rec_end = Array.mapi (fun k s -> s + reconfigs.(k).Timing.dur) rec_start;
    makespan = Array.fold_left Stdlib.max 0 task_end;
  }

let must_precede state (a : Timing.reconf_spec) (b : Timing.reconf_spec) =
  a.Timing.t_out = b.Timing.t_in
  || (Graph.reachable state.State.dep a.Timing.t_out).(b.Timing.t_in)

(* Earliest instant >= t_min_k outside every scheduled slot, counted as a
   position, via an explicit sort of the slot list. *)
let slot_position (times : Timing.resolved) sequence t_min_k =
  let slots =
    List.map (fun j -> (times.Timing.rec_start.(j), times.Timing.rec_end.(j)))
      sequence
    |> List.sort compare
  in
  let tau =
    List.fold_left
      (fun tau (s, e) -> if tau >= s && tau < e then e else tau)
      t_min_k slots
  in
  List.length
    (List.filter (fun j -> times.Timing.rec_start.(j) < tau) sequence)

let reconf_sched ?module_reuse state =
  let specs = Timing.reconf_specs ?module_reuse state in
  (* Insert [k] at [desired], clamped after every scheduled spec that
     must precede it and before every one it must precede. *)
  let insert sequence ~desired k =
    let lo = ref 0 and hi = ref (List.length sequence) in
    List.iteri
      (fun pos j ->
        if must_precede state specs.(j) specs.(k) then
          lo := Stdlib.max !lo (pos + 1);
        if must_precede state specs.(k) specs.(j) then hi := Stdlib.min !hi pos)
      sequence;
    assert (!lo <= !hi);
    let pos = Stdlib.max !lo (Stdlib.min !hi desired) in
    List.filteri (fun i _ -> i < pos) sequence
    @ (k :: List.filteri (fun i _ -> i >= pos) sequence)
  in
  (* Critical reconfigurations are appended lowest window start first;
     non-critical ones slot into the earliest controller gap at or after
     their window start. Ties go to the lowest spec index. *)
  let rec phase ~slotted sequence = function
    | [] -> sequence
    | first :: _ as remaining ->
      let times = resolve state ~reconfigs:specs ~sequence in
      let t_min k = times.Timing.task_end.(specs.(k).Timing.t_in) in
      let k =
        List.fold_left
          (fun b k -> if t_min k < t_min b then k else b)
          first remaining
      in
      let desired =
        if slotted then slot_position times sequence (t_min k)
        else List.length sequence
      in
      phase ~slotted
        (insert sequence ~desired k)
        (List.filter (fun j -> j <> k) remaining)
  in
  let criticals, others =
    List.partition
      (fun k -> specs.(k).Timing.critical)
      (List.init (Array.length specs) Fun.id)
  in
  (specs, phase ~slotted:true (phase ~slotted:false [] criticals) others)

(* ---- whole pipeline ----------------------------------------------- *)

let schedule_of_state ?(module_reuse = false) ?(resource_scale = 1.0) state
    specs sequence =
  Pa.build_schedule ~module_reuse ~resource_scale state specs
    (resolve state ~reconfigs:specs ~sequence)
    ~sequence

(* Steps 1-7 on a fresh state: the reference for [Pa.schedule_once]. *)
let schedule_once ?(config = Pa.default_config) ?(resource_scale = 1.0) inst =
  let max_res =
    Resource.scale (Arch.max_res inst.Instance.arch) resource_scale
  in
  let cost = Cost.make inst ~max_res in
  let impl_of = Impl_select.run ~cost inst ~max_res in
  let state = State.create inst ~resource_scale ~cost ~impl_of () in
  let module_reuse = config.Pa.module_reuse in
  regions_define ~module_reuse ~ordering:config.Pa.ordering state;
  sw_balance state;
  sw_map state;
  let specs, sequence = reconf_sched ~module_reuse state in
  schedule_of_state ~module_reuse ~resource_scale state specs sequence

let all_software_schedule inst =
  let impl_of = Array.init (Instance.size inst) (Instance.fastest_sw inst) in
  let state = State.create inst ~impl_of () in
  sw_map state;
  { (schedule_of_state state [||] []) with Schedule.floorplan = Some [||] }

(* Step 8 runs [check]: the production check unless the caller passes
   another, such as a cache's or the packer oracle's. Production asks
   [Fp_cache], whose verdict is the engine's answer for the needs in
   canonical order (a stable sort by [Resource.compare]) with placements
   handed back in the caller's order; this is that check, without the
   table. *)
let production_check device needs =
  let order = Array.init (Array.length needs) Fun.id in
  Array.stable_sort (fun i j -> Resource.compare needs.(i) needs.(j)) order;
  let report = Floorplanner.check device (Array.map (Array.get needs) order) in
  match report.Floorplanner.verdict with
  | Floorplanner.Feasible rects ->
    let out = Array.copy rects in
    Array.iteri (fun k rect -> out.(order.(k)) <- rect) rects;
    { report with Floorplanner.verdict = Floorplanner.Feasible out }
  | Floorplanner.Infeasible | Floorplanner.Unknown -> report

let floorplan ~check (sched : Schedule.t) =
  let device = sched.Schedule.instance.Instance.arch.Arch.device in
  let needs = Array.map (fun r -> r.Schedule.res) sched.Schedule.regions in
  if needs = [||] then Some [||]
  else
    match (check device needs).Floorplanner.verdict with
    | Floorplanner.Feasible placements -> Some placements
    | Floorplanner.Infeasible | Floorplanner.Unknown -> None

(* The reference for [Pa.run]: the schedule and the attempts it took,
   shrinking the virtual resources after every floorplan failure. *)
let run ?(config = Pa.default_config) ?(check = production_check) inst =
  let rec attempt k scale =
    if k > config.Pa.max_attempts then (all_software_schedule inst, k - 1)
    else
      let sched = schedule_once ~config ~resource_scale:scale inst in
      match floorplan ~check sched with
      | Some p -> ({ sched with Schedule.floorplan = Some p }, k)
      | None -> attempt (k + 1) (scale *. config.Pa.shrink_factor)
  in
  attempt 1 1.0

(* The reference for [Pa_random.run ~budget_seconds:0.] on one stream:
   [min_iterations] restarts, each on a fresh state, with the same
   random orders, the same adaptive scale on the [shrink_factor^k]
   lattice (k in 0..6) and the same rule for checking floorplans. *)
let restart_loop ?(config = Pa.default_config) ?(check = production_check)
    ~seed ~min_iterations inst =
  let rng = Rng.create seed in
  let start = Unix.gettimeofday () and words = Gc.minor_words () in
  let best = ref None and trace = ref [] and shrink_exp = ref 0 in
  for iteration = 1 to min_iterations do
    let config =
      { config with Pa.ordering = Regions_define.Random (Rng.split rng) }
    in
    let resource_scale = config.Pa.shrink_factor ** float_of_int !shrink_exp in
    let sched = schedule_once ~config ~resource_scale inst in
    let makespan = sched.Schedule.makespan in
    let best_makespan =
      match !best with Some b -> b.Schedule.makespan | None -> max_int
    in
    if makespan < best_makespan then
      match floorplan ~check sched with
      | None -> shrink_exp := Stdlib.min 6 (!shrink_exp + 1)
      | Some p ->
        shrink_exp := Stdlib.max 0 (!shrink_exp - 1);
        best := Some { sched with Schedule.floorplan = Some p };
        let elapsed = Unix.gettimeofday () -. start in
        trace := { Pa_random.elapsed; iteration; makespan } :: !trace
  done;
  {
    Pa_random.schedule = !best;
    iterations = min_iterations;
    trace = List.rev !trace;
    minor_words = Gc.minor_words () -. words;
  }
