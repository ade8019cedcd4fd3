module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache

let src = Logs.Src.create "resched.pa" ~doc:"PA scheduler pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

module Context = struct
  (* Everything steps 1-2 derive from (instance, resource_scale) alone:
     the scaled capacity, the cost weights, the initial implementation
     selection and the base CPM windows. One entry per scale visited by
     the restart loop — the adaptive scale is quantized onto the
     [shrink_factor^k] lattice precisely so this table (and the
     floorplan cache downstream) sees repeats. Each entry also owns a
     recyclable arena {!State.t}: [State.reset] rewinds it between
     iterations instead of reallocating every array and adjacency
     list. *)
  type entry = {
    e_max_res : Resource.t;
    e_cost : Cost.t;
    e_impl_of : int array;
    e_base_cpm : Cpm.t;
    mutable e_state : State.t option;
  }

  type t = {
    c_inst : Instance.t;
    entries : (float, entry) Hashtbl.t;
    c_arena : Reconf_sched.arena;
        (* step-7 buffers (solver, closure, sequence), shared by every
           scale: one run_hot at a time per context *)
    c_worklist : State.worklist;
        (* the window propagation's heaps and marks, shared by every
           scale's state: one pipeline at a time per context *)
  }

  let create inst =
    {
      c_inst = inst;
      entries = Hashtbl.create 8;
      c_arena = Reconf_sched.make_arena ();
      c_worklist = State.make_worklist (Instance.size inst);
    }

  let entry ctx ~resource_scale =
    match Hashtbl.find_opt ctx.entries resource_scale with
    | Some e -> e
    | None ->
      let inst = ctx.c_inst in
      let max_res =
        Resource.scale (Arch.max_res inst.Instance.arch) resource_scale
      in
      let cost = Cost.make inst ~max_res in
      let impl_of = Impl_select.run ~cost inst ~max_res in
      let base_cpm =
        let durations =
          Array.init (Instance.size inst) (fun u ->
              (Instance.impl inst ~task:u ~idx:impl_of.(u))
                .Resched_platform.Impl.time)
        in
        Cpm.compute inst.Instance.graph ~durations
      in
      let e = { e_max_res = max_res; e_cost = cost; e_impl_of = impl_of;
                e_base_cpm = base_cpm; e_state = None }
      in
      Hashtbl.add ctx.entries resource_scale e;
      e

  (* A state ready to run steps 3-7, recycled when the entry has one. *)
  let state ctx ~resource_scale =
    let e = entry ctx ~resource_scale in
    match e.e_state with
    | Some s ->
      State.reset s ~impl_of:e.e_impl_of ~base_cpm:e.e_base_cpm;
      s
    | None ->
      let s =
        State.create ctx.c_inst ~resource_scale ~cost:e.e_cost
          ~base_cpm:e.e_base_cpm ~worklist:ctx.c_worklist
          ~impl_of:e.e_impl_of ()
      in
      e.e_state <- Some s;
      s
end

type config = {
  ordering : Regions_define.ordering;
  module_reuse : bool;
}

let default_config =
  { ordering = Regions_define.By_efficiency; module_reuse = false }

let max_attempts = 8
let shrink_factor = 0.9

type stats = {
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
}

(* Region tasks ordered by resolved start: a stable insertion sort
   ({!Resched_util.Sort}) over the borrowed task workspace, free once the
   pipeline is done — no per-call sort allocations beyond the result list
   the [Schedule.region] needs anyway. *)
let ordered_tasks state (task_start : int array) (r : State.region) =
  let k = List.length r.State.tasks in
  let arr = State.sc_tasks state.State.scratch in
  let i = ref 0 in
  List.iter
    (fun u ->
      arr.(!i) <- u;
      incr i)
    r.State.tasks;
  Resched_util.Sort.by_int_key arr ~base:0 ~len:k ~key:(fun v ->
      task_start.(v));
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (arr.(i) :: acc)
  in
  build (k - 1) []

let build_schedule ~module_reuse ~resource_scale state specs
    (times : Timing.resolved) ~sequence =
  let n = Instance.size state.State.inst in
  let slots =
    Array.init n (fun u ->
        let placement =
          if state.State.region_of.(u) >= 0 then
            Schedule.On_region state.State.region_of.(u)
          else Schedule.On_processor (Stdlib.max 0 state.State.processor_of.(u))
        in
        {
          Schedule.impl_idx = state.State.impl_of.(u);
          placement;
          start_ = times.Timing.task_start.(u);
          end_ = times.Timing.task_end.(u);
        })
  in
  let regions =
    Array.map
      (fun (r : State.region) ->
        {
          Schedule.res = r.State.res;
          reconf_ticks = r.State.reconf;
          tasks = ordered_tasks state times.Timing.task_start r;
        })
      (State.region_list state)
  in
  let reconfigurations =
    List.map
      (fun k ->
        let spec : Timing.reconf_spec = specs.(k) in
        {
          Schedule.region = spec.Timing.region_id;
          t_in = spec.Timing.t_in;
          t_out = spec.Timing.t_out;
          r_start = times.Timing.rec_start.(k);
          r_end = times.Timing.rec_end.(k);
        })
      sequence
  in
  {
    Schedule.instance = state.State.inst;
    regions;
    slots;
    reconfigurations;
    makespan = times.Timing.makespan;
    floorplan = None;
    module_reuse;
    resource_scale;
  }

type candidate = {
  cd_state : State.t;
  cd_plan : Reconf_sched.plan;
  cd_module_reuse : bool;
  cd_resource_scale : float;
}

(* Steps 6 and 7 keep every duration and only add processor-order
   edges, reconfiguration nodes and controller edges, all of
   non-negative length, to the graph whose longest path the windows hold
   after step 4. From there on the windows' makespan only rises, so a
   restart whose makespan reaches [bound] there or during step 6 cannot
   end below it. Step 4 can still lower the makespan, so no earlier
   check is sound (DESIGN.md, "Incumbent bound"). *)
let schedule_candidate ?(config = default_config) ?(resource_scale = 1.0)
    ~bound ~ctx inst =
  if not (inst == ctx.Context.c_inst) then
    invalid_arg "Pa.schedule_candidate: context belongs to another instance";
  let state = Context.state ctx ~resource_scale in
  Regions_define.run ~module_reuse:config.module_reuse
    ~ordering:config.ordering state;
  Sw_balance.run state;
  if State.makespan state >= bound || not (Sw_map.run state ~bound) then None
  else
    let plan =
      Reconf_sched.run_hot ~module_reuse:config.module_reuse
        ctx.Context.c_arena state
    in
    if plan.Reconf_sched.p_times.Timing.makespan >= bound then None
    else
      Some
        {
          cd_state = state;
          cd_plan = plan;
          cd_module_reuse = config.module_reuse;
          cd_resource_scale = resource_scale;
        }

let candidate_makespan c =
  c.cd_plan.Reconf_sched.p_times.Timing.makespan

let candidate_needs c =
  let state = c.cd_state in
  Array.init (State.region_count state) (fun i ->
      (State.nth_region state i).State.res)

let materialize c =
  let plan = c.cd_plan in
  let seq = plan.Reconf_sched.p_seq in
  let rec sequence i acc =
    if i < 0 then acc else sequence (i - 1) (seq.(i) :: acc)
  in
  build_schedule ~module_reuse:c.cd_module_reuse
    ~resource_scale:c.cd_resource_scale c.cd_state plan.Reconf_sched.p_specs
    plan.Reconf_sched.p_times
    ~sequence:(sequence (plan.Reconf_sched.p_len - 1) [])

let schedule_once ?config ?resource_scale ?ctx inst =
  let ctx = match ctx with Some c -> c | None -> Context.create inst in
  match schedule_candidate ?config ?resource_scale ~bound:max_int ~ctx inst with
  | Some c -> materialize c
  | None -> assert false (* no makespan reaches max_int *)

let all_software_schedule inst =
  let impl_of =
    Array.init (Instance.size inst) (fun u -> Instance.fastest_sw inst u)
  in
  let state = State.create inst ~impl_of () in
  ignore (Sw_map.run state ~bound:max_int : bool);
  let sched =
    materialize
      {
        cd_state = state;
        cd_plan = Reconf_sched.run_hot (Reconf_sched.make_arena ()) state;
        cd_module_reuse = false;
        cd_resource_scale = 1.0;
      }
  in
  { sched with Schedule.floorplan = Some [||] }

let region_needs (sched : Schedule.t) =
  Array.map (fun (r : Schedule.region) -> r.Schedule.res) sched.Schedule.regions

let shrink_retry ?cache inst schedule =
  let cache = match cache with Some c -> c | None -> Fp_cache.create () in
  let device = inst.Instance.arch.Arch.device in
  let sched_time = ref 0. and plan_time = ref 0. in
  let rec attempt k scale =
    if k > max_attempts then begin
      Log.warn (fun m ->
          m "no floorplannable schedule after %d attempts; all-software \
             fallback"
            max_attempts);
      let t0 = Unix.gettimeofday () in
      let fallback = all_software_schedule inst in
      sched_time := !sched_time +. (Unix.gettimeofday () -. t0);
      (fallback, k - 1)
    end
    else begin
      let t0 = Unix.gettimeofday () in
      let sched = schedule ~resource_scale:scale in
      sched_time := !sched_time +. (Unix.gettimeofday () -. t0);
      let needs = region_needs sched in
      if Array.length needs = 0 then
        ({ sched with Schedule.floorplan = Some [||] }, k)
      else begin
        let report = Fp_cache.check cache device needs in
        plan_time := !plan_time +. report.Floorplanner.elapsed;
        match report.Floorplanner.verdict with
        | Floorplanner.Feasible placements ->
          Log.info (fun m ->
              m "attempt %d (scale %.2f): makespan %d, %d regions, \
                 floorplan found"
                k scale sched.Schedule.makespan (Array.length needs));
          ({ sched with Schedule.floorplan = Some placements }, k)
        | Floorplanner.Infeasible | Floorplanner.Unknown ->
          Log.debug (fun m ->
              m "attempt %d (scale %.2f): %d regions not floorplannable; \
                 shrinking"
                k scale (Array.length needs));
          attempt (k + 1) (scale *. shrink_factor)
      end
    end
  in
  let sched, attempts = attempt 1 1.0 in
  ( sched,
    {
      attempts;
      scheduling_seconds = !sched_time;
      floorplanning_seconds = !plan_time;
    } )

let run ?(config = default_config) ?cache inst =
  let ctx = Context.create inst in
  shrink_retry ?cache inst (fun ~resource_scale ->
      schedule_once ~config ~resource_scale ~ctx inst)
