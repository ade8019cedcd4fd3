module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Cpm = Resched_taskgraph.Cpm
module Resource = Resched_fabric.Resource
module Floorplanner = Resched_floorplan.Floorplanner

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
  }

  let create inst =
    {
      c_inst = inst;
      entries = Hashtbl.create 8;
      c_arena = Reconf_sched.make_arena ();
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
          ~base_cpm:e.e_base_cpm ~scratch:true ~impl_of:e.e_impl_of ()
      in
      e.e_state <- Some s;
      s
end

type config = {
  ordering : Regions_define.ordering;
  module_reuse : bool;
  floorplan_engine : Floorplanner.engine;
  floorplan_cache : Resched_floorplan.Fp_cache.t option;
  max_attempts : int;
  shrink_factor : float;
}

let default_config =
  {
    ordering = Regions_define.By_efficiency;
    module_reuse = false;
    floorplan_engine = Floorplanner.Backtracking;
    floorplan_cache = None;
    max_attempts = 8;
    shrink_factor = 0.9;
  }

type stats = {
  attempts : int;
  scheduling_seconds : float;
  floorplanning_seconds : float;
}

(* Region tasks ordered by resolved start: a stable insertion sort
   ({!Resched_util.Sort}) over a borrowed (or, for plain states, local)
   scratch array replaces the old per-region [List.sort] — same order
   (the stdlib's [List.sort] is the stable merge sort), no per-call sort
   allocations beyond the result list the [Schedule.region] needs
   anyway. *)
let ordered_tasks state (task_start : int array) (r : State.region) =
  let k = List.length r.State.tasks in
  let arr =
    match State.scratch_of state with
    | Some s when k > 0 -> State.sc_tasks s (* free: the pipeline is done *)
    | _ -> Array.make (Stdlib.max 1 k) 0
  in
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

(* Schedule construction shared by the from-scratch path and the arena
   path: everything comes from the state plus already-resolved times and
   an explicit reconfiguration order. *)
let build_schedule ~module_reuse ~resource_scale state specs
    (times : Timing.resolved) ~seq_iter =
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
    seq_iter (fun k ->
        let spec : Timing.reconf_spec = specs.(k) in
        {
          Schedule.region = spec.Timing.region_id;
          t_in = spec.Timing.t_in;
          t_out = spec.Timing.t_out;
          r_start = times.Timing.rec_start.(k);
          r_end = times.Timing.rec_end.(k);
        })
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

let schedule_of_state ?(module_reuse = false) ?(resource_scale = 1.0) state
    specs sequence =
  let resolved = Timing.resolve state ~reconfigs:specs ~sequence in
  build_schedule ~module_reuse ~resource_scale state specs resolved
    ~seq_iter:(fun f -> List.map f sequence)

let count_hw state =
  let n = Instance.size state.State.inst in
  let acc = ref 0 in
  for u = 0 to n - 1 do
    if State.is_hw state u then incr acc
  done;
  !acc

type candidate = {
  cd_state : State.t;
  cd_plan : Reconf_sched.plan;
  cd_module_reuse : bool;
  cd_resource_scale : float;
}

let schedule_candidate ?(config = default_config) ?(resource_scale = 1.0)
    ~ctx inst =
  if not (inst == ctx.Context.c_inst) then
    invalid_arg "Pa.schedule_candidate: context belongs to another instance";
  let state = Context.state ctx ~resource_scale in
  Regions_define.run ~module_reuse:config.module_reuse
    ~ordering:config.ordering state;
  Sw_balance.run state;
  Sw_map.run ~incremental:true state;
  let plan =
    Reconf_sched.run_hot ~module_reuse:config.module_reuse
      ctx.Context.c_arena state
  in
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
  let specs = plan.Reconf_sched.p_specs in
  let seq = plan.Reconf_sched.p_seq and len = plan.Reconf_sched.p_len in
  build_schedule ~module_reuse:c.cd_module_reuse
    ~resource_scale:c.cd_resource_scale c.cd_state specs
    plan.Reconf_sched.p_times ~seq_iter:(fun f ->
      let rec build i acc =
        if i < 0 then acc else build (i - 1) (f seq.(i) :: acc)
      in
      build (len - 1) [])

let schedule_once ?(config = default_config) ?(resource_scale = 1.0) ?ctx
    ?(incremental = true) inst =
  match ctx with
  | Some ctx when incremental ->
    (* The struct-of-arrays restart kernel: candidate + materialize.
       Bit-identical to the boxed path below (property-tested). *)
    materialize (schedule_candidate ~config ~resource_scale ~ctx inst)
  | _ ->
    let state =
      match ctx with
      | Some ctx -> Context.state ctx ~resource_scale
      | None ->
        let max_res =
          Resched_fabric.Resource.scale (Arch.max_res inst.Instance.arch)
            resource_scale
        in
        let cost = Cost.make inst ~max_res in
        let impl_of = Impl_select.run ~cost inst ~max_res in
        State.create inst ~resource_scale ~cost ~impl_of ()
    in
    Log.debug (fun m ->
        m "step 1-2: %d/%d tasks start on hardware, unconstrained makespan %d"
          (count_hw state) (Instance.size inst)
          state.State.cpm.Resched_taskgraph.Cpm.makespan);
    Regions_define.run ~module_reuse:config.module_reuse
      ~ordering:config.ordering state;
    Log.debug (fun m ->
        m "step 3: %d regions defined, %d tasks still on hardware"
          (State.region_count state)
          (count_hw state));
    Sw_balance.run state;
    Log.debug (fun m ->
        m "step 4: %d hardware tasks after balancing" (count_hw state));
    Sw_map.run ~incremental state;
    let specs, sequence =
      Reconf_sched.run ~module_reuse:config.module_reuse ~incremental state
    in
    Log.debug (fun m ->
        m "step 7: %d reconfigurations sequenced on the controller"
          (Array.length specs));
    schedule_of_state ~module_reuse:config.module_reuse ~resource_scale state
      specs sequence

let all_software_schedule inst =
  let impl_of =
    Array.init (Instance.size inst) (fun u -> Instance.fastest_sw inst u)
  in
  let state = State.create inst ~impl_of () in
  Sw_map.run state;
  let sched = schedule_of_state state [||] [] in
  { sched with Schedule.floorplan = Some [||] }

let region_needs (sched : Schedule.t) =
  Array.map (fun (r : Schedule.region) -> r.Schedule.res) sched.Schedule.regions

let run ?(config = default_config) ?ctx inst =
  let device = inst.Instance.arch.Arch.device in
  let sched_time = ref 0. and plan_time = ref 0. in
  let rec attempt k scale =
    if k > config.max_attempts then begin
      Log.warn (fun m ->
          m "no floorplannable schedule after %d attempts; all-software \
             fallback"
            config.max_attempts);
      let t0 = Unix.gettimeofday () in
      let fallback = all_software_schedule inst in
      sched_time := !sched_time +. (Unix.gettimeofday () -. t0);
      (fallback, k - 1)
    end
    else begin
      let t0 = Unix.gettimeofday () in
      let sched = schedule_once ~config ~resource_scale:scale ?ctx inst in
      sched_time := !sched_time +. (Unix.gettimeofday () -. t0);
      let needs = region_needs sched in
      if Array.length needs = 0 then
        ({ sched with Schedule.floorplan = Some [||] }, k)
      else begin
        let report =
          match config.floorplan_cache with
          | Some cache ->
            Resched_floorplan.Fp_cache.check cache
              ~engine:config.floorplan_engine device needs
          | None ->
            Floorplanner.check ~engine:config.floorplan_engine device needs
        in
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
          attempt (k + 1) (scale *. config.shrink_factor)
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
