module Lp = Resched_milp.Lp
module Branch_bound = Resched_milp.Branch_bound
module Resource = Resched_fabric.Resource
module Bitstream = Resched_fabric.Bitstream
module Device = Resched_fabric.Device
module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Schedule = Resched_core.Schedule
module Timing = Resched_core.Timing

type result = {
  schedule : Schedule.t;
  ilp_objective : float;
  proved_optimal : bool;
  nodes : int;
  vars : int;
  constraints : int;
}

type opt =
  | O_sw of { proc : int; impl_idx : int; dur : int }
  | O_hw of { slot : int; impl_idx : int; dur : int; res : Resource.t }

let opt_dur = function O_sw o -> o.dur | O_hw o -> o.dur

type model = {
  m : Lp.t;
  n : int;
  slots : int;
  horizon : float;
  options : opt array array;  (** per task *)
  y : Lp.var array array;  (** per task, per option *)
  phi : Lp.var array array;  (** per task, per slot *)
  order : Lp.var option array array;
      (** [order.(a).(b)] for a < b: 1 iff a before b; None when the
          dependency structure fixes the direction *)
  forced : bool array array;
      (** [forced.(a).(b)]: a provably precedes b (dependency path) *)
  start : Lp.var array;
  rstart : Lp.var array;
  rdur : Lp.var array;
  makespan : Lp.var;
  res : Lp.var array array;  (** per slot, per resource kind *)
}

(* (1 - before(a,b)) as (terms, constant): big-M deactivators multiply
   this by the chosen H. *)
let not_before model a b =
  if model.forced.(a).(b) then ([], 0.)
  else if model.forced.(b).(a) then ([], 1.)
  else if a < b then
    match model.order.(a).(b) with
    | Some o -> ([ (o, -1.) ], 1.)
    | None -> assert false
  else begin
    match model.order.(b).(a) with
    | Some o -> ([ (o, 1.) ], 0.)
    | None -> assert false
  end

let kappa device ~bits_per_tick kind =
  Bitstream.bits_per_unit device.Device.model kind /. bits_per_tick

let build inst =
  let n = Instance.size inst in
  let arch = inst.Instance.arch in
  let device = arch.Arch.device in
  (* Region slots offered to the model: 4, at most one per task. *)
  let slots = Stdlib.min 4 n in
  let m = Lp.create () in
  (* Horizon: serial execution of the slowest implementations plus one
     full-device reconfiguration per task. *)
  let horizon =
    let serial =
      Array.fold_left
        (fun acc impls ->
          acc
          + Array.fold_left (fun a (i : Impl.t) -> Stdlib.max a i.Impl.time) 0 impls)
        0 inst.Instance.impls
    in
    float_of_int (serial + (n * Arch.reconf_ticks arch (Arch.max_res arch)) + 1)
  in
  let options =
    Array.init n (fun t ->
        let sw_idx = Instance.fastest_sw inst t in
        let sw_dur = (Instance.impl inst ~task:t ~idx:sw_idx).Impl.time in
        let sw =
          List.init arch.Arch.processors (fun proc ->
              O_sw { proc; impl_idx = sw_idx; dur = sw_dur })
        in
        let hw =
          List.concat_map
            (fun (impl_idx, (i : Impl.t)) ->
              List.init slots (fun slot ->
                  O_hw { slot; impl_idx; dur = i.Impl.time; res = i.Impl.res }))
            (Instance.hw_impls inst t)
        in
        Array.of_list (sw @ hw))
  in
  let binary _ = Lp.add_binary m ~obj:0. () in
  let y = Array.map (Array.map binary) options in
  let phi = Array.init n (fun _ -> Array.init slots binary) in
  let forced =
    Array.init n (fun a ->
        let reach = Graph.reachable inst.Instance.graph a in
        Array.init n (fun b -> b <> a && reach.(b)))
  in
  let order =
    Array.init n (fun a ->
        Array.init n (fun b ->
            if a < b && (not forced.(a).(b)) && not forced.(b).(a) then
              Some (Lp.add_binary m ~obj:0. ())
            else None))
  in
  let time_var _ = Lp.add_var m ~lb:0. ~ub:horizon ~obj:0. () in
  let start = Array.init n time_var in
  let rstart = Array.init n time_var in
  let rdur = Array.init n time_var in
  let makespan = Lp.add_var m ~lb:0. ~ub:horizon ~obj:1. () in
  let res =
    Array.init slots (fun _ ->
        Array.map
          (fun kind ->
            Lp.add_var m ~lb:0.
              ~ub:(float_of_int (Resource.get (Arch.max_res arch) kind))
              ~obj:0. ())
          Resource.kinds)
  in
  let model =
    { m; n; slots; horizon; options; y; phi; order; forced; start; rstart;
      rdur; makespan; res }
  in
  (* Helper expressions. *)
  let dur_terms t = (* Σ dur(c) y_{t,c} *)
    Array.to_list
      (Array.mapi (fun c o -> (y.(t).(c), float_of_int (opt_dur o))) options.(t))
  in
  let g_terms t s =
    (* Σ_{c = Hw on s} y_{t,c} *)
    let acc = ref [] in
    Array.iteri
      (fun c o ->
        match o with
        | O_hw { slot; _ } when slot = s -> acc := (y.(t).(c), 1.) :: !acc
        | O_hw _ | O_sw _ -> ())
      options.(t);
    !acc
  in
  let q_terms t p =
    let acc = ref [] in
    Array.iteri
      (fun c o ->
        match o with
        | O_sw { proc; _ } when proc = p -> acc := (y.(t).(c), 1.) :: !acc
        | O_sw _ | O_hw _ -> ())
      options.(t);
    !acc
  in
  let h_terms t =
    (* Σ_s g − Σ_s phi: 1 iff t needs a reconfiguration *)
    List.concat (List.init slots (fun s -> g_terms t s))
    @ List.init slots (fun s -> (phi.(t).(s), -1.))
  in
  let scale c terms = List.map (fun (v, k) -> (v, c *. k)) terms in
  let ge terms const = Lp.add_constraint m terms Lp.Ge const in
  let le terms const = Lp.add_constraint m terms Lp.Le const in
  let big = horizon in
  (* Disjunctive constraint
       body >= rhs0 − H·Σ_k (1 − ind_k) − H·(1 − before(a,b))
     where every [ind_k] is a 0/1-valued linear expression that is 1 when
     the constraint should be active. Rearranged to
       body − H·Σ ind + H·nb_terms >= rhs0 − H·K − H·nb_const
     with (nb_terms, nb_const) encoding (1 − before). *)
  let activated_ge ?before ~inds ~rhs0 body =
    let nb_terms, nb_const =
      match before with
      | None -> ([], 0.)
      | Some (a, b) -> not_before model a b
    in
    let terms =
      body
      @ List.concat_map (fun ind -> scale (-.big) ind) inds
      @ scale big nb_terms
    in
    ge terms
      (rhs0 -. (big *. float_of_int (List.length inds)) -. (big *. nb_const))
  in
  (* One option per task. *)
  for t = 0 to n - 1 do
    Lp.add_constraint m
      (Array.to_list (Array.map (fun v -> (v, 1.)) y.(t)))
      Lp.Eq 1.
  done;
  (* Slot sizing and device capacity. *)
  for t = 0 to n - 1 do
    Array.iteri
      (fun c o ->
        match o with
        | O_hw { slot; res = need; _ } ->
          Array.iteri
            (fun ki kind ->
              ge
                [ (res.(slot).(ki), 1.);
                  (y.(t).(c), -.float_of_int (Resource.get need kind)) ]
                0.)
            Resource.kinds
        | O_sw _ -> ())
      options.(t)
  done;
  Array.iteri
    (fun ki kind ->
      le
        (List.init slots (fun s -> (res.(s).(ki), 1.)))
        (float_of_int (Resource.get (Arch.max_res arch) kind)))
    Resource.kinds;
  (* Makespan and dependencies. *)
  for t = 0 to n - 1 do
    ge ((makespan, 1.) :: (start.(t), -1.) :: scale (-1.) (dur_terms t)) 0.
  done;
  List.iter
    (fun (a, b) ->
      ge ((start.(b), 1.) :: (start.(a), -1.) :: scale (-1.) (dur_terms a)) 0.)
    (Graph.edges inst.Instance.graph);
  (* First-task indicators: phi <= g, at most one per slot. *)
  for t = 0 to n - 1 do
    for s = 0 to slots - 1 do
      ge (g_terms t s @ [ (phi.(t).(s), -1.) ]) 0.
    done
  done;
  for s = 0 to slots - 1 do
    le (List.init n (fun t -> (phi.(t).(s), 1.))) 1.
  done;
  (* Reconfiguration duration: rdur_t >= Σ_r κ_r res_{s,r} when t runs on
     slot s and is not the slot's first task. *)
  let kappas =
    Array.map
      (fun kind -> kappa device ~bits_per_tick:arch.Arch.bits_per_tick kind)
      Resource.kinds
  in
  for t = 0 to n - 1 do
    for s = 0 to slots - 1 do
      let body =
        (rdur.(t), 1.)
        :: Array.to_list
             (Array.mapi (fun ki _ -> (res.(s).(ki), -.kappas.(ki)))
                Resource.kinds)
      in
      let needs_reconf = g_terms t s @ [ (phi.(t).(s), -1.) ] in
      activated_ge ~inds:[ needs_reconf ] ~rhs0:0. body
    done
  done;
  (* Own reconfiguration precedes the body. *)
  for t = 0 to n - 1 do
    activated_ge ~inds:[ h_terms t ] ~rhs0:0.
      [ (start.(t), 1.); (rstart.(t), -1.); (rdur.(t), -1.) ]
  done;
  (* Pairwise exclusivity, for every ordered pair (a before b). *)
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && not forced.(b).(a) then begin
        let after_a_body var =
          (var, 1.) :: (start.(a), -1.) :: scale (-1.) (dur_terms a)
        in
        (* Processors: b starts after a ends when they share one. *)
        for p = 0 to arch.Arch.processors - 1 do
          activated_ge ~before:(a, b)
            ~inds:[ q_terms a p; q_terms b p ]
            ~rhs0:0.
            (after_a_body start.(b))
        done;
        for s = 0 to slots - 1 do
          (* b's reconfiguration and body wait for a's body on a shared
             slot. *)
          activated_ge ~before:(a, b)
            ~inds:[ g_terms a s; g_terms b s ]
            ~rhs0:0.
            (after_a_body rstart.(b));
          activated_ge ~before:(a, b)
            ~inds:[ g_terms a s; g_terms b s ]
            ~rhs0:0.
            (after_a_body start.(b));
          (* And b cannot be the slot's first task:
             phi_b <= (1 − g_a) + (1 − g_b) + (1 − before). *)
          let nb_terms, nb_const = not_before model a b in
          le
            ((phi.(b).(s), 1.)
            :: (g_terms a s @ g_terms b s @ scale (-1.) nb_terms))
            (2. +. nb_const)
        done;
        (* Controller: reconfigurations serialize in the same order. *)
        activated_ge ~before:(a, b)
          ~inds:[ h_terms a; h_terms b ]
          ~rhs0:0.
          [ (rstart.(b), 1.); (rstart.(a), -1.); (rdur.(a), -1.) ]
      end
    done
  done;
  model

let lp model = model.m

let model_size inst =
  let model = build inst in
  (Lp.num_vars model.m, Lp.num_constraints model.m)

(* ------------------------------------------------------------------ *)
(* Decision extraction and integer re-timing                           *)

let extract inst (model : model) values =
  let n = model.n in
  let arch = inst.Instance.arch in
  let chosen =
    Array.init n (fun t ->
        let best = ref 0 and best_v = ref neg_infinity in
        Array.iteri
          (fun c (v : Lp.var) ->
            let x = values.((v :> int)) in
            if x > !best_v then begin
              best_v := x;
              best := c
            end)
          model.y.(t);
        model.options.(t).(!best))
  in
  (* Region ids for slots actually used. *)
  let slot_region = Array.make model.slots (-1) in
  let next_region = ref 0 in
  Array.iter
    (fun o ->
      match o with
      | O_hw { slot; _ } ->
        if slot_region.(slot) = -1 then begin
          slot_region.(slot) <- !next_region;
          incr next_region
        end
      | O_sw _ -> ())
    chosen;
  let nregions = !next_region in
  let region_res = Array.make nregions Resource.zero in
  Array.iter
    (fun o ->
      match o with
      | O_hw { slot; res; _ } ->
        let r = slot_region.(slot) in
        region_res.(r) <- Resource.max_components region_res.(r) res
      | O_sw _ -> ())
    chosen;
  let region_reconf = Array.map (Arch.reconf_ticks arch) region_res in
  let val_of (v : Lp.var) = values.((v :> int)) in
  let start_of t = val_of model.start.(t) in
  let rstart_of t = val_of model.rstart.(t) in
  (* Per-region execution order (by LP start), first task free. *)
  let region_tasks = Array.make nregions [] in
  Array.iteri
    (fun t o ->
      match o with
      | O_hw { slot; _ } ->
        let r = slot_region.(slot) in
        region_tasks.(r) <- t :: region_tasks.(r)
      | O_sw _ -> ())
    chosen;
  let region_order =
    Array.map
      (fun tasks ->
        List.sort (fun a b -> compare (start_of a) (start_of b)) tasks)
      region_tasks
  in
  (* Reconfigurations: every non-first region task, in the LP's
     controller order. *)
  let reconfigs = ref [] in
  Array.iteri
    (fun r tasks ->
      let rec pairs = function
        | a :: b :: tl ->
          reconfigs :=
            {
              Timing.region_id = r;
              t_in = a;
              t_out = b;
              dur = region_reconf.(r);
              critical = false;
            }
            :: !reconfigs;
          pairs (b :: tl)
        | [ _ ] | [] -> ()
      in
      pairs tasks)
    region_order;
  let reconfigs =
    Array.of_list
      (List.sort
         (fun (x : Timing.reconf_spec) y ->
           compare (rstart_of x.Timing.t_out) (rstart_of y.Timing.t_out))
         !reconfigs)
  in
  let nr = Array.length reconfigs in
  let processor_chains =
    Array.init arch.Arch.processors (fun p ->
        let mine = ref [] in
        Array.iteri
          (fun t o ->
            match o with
            | O_sw { proc; _ } when proc = p -> mine := t :: !mine
            | O_sw _ | O_hw _ -> ())
          chosen;
        List.sort (fun a b -> compare (start_of a) (start_of b)) !mine)
  in
  let dur t =
    match chosen.(t) with O_sw { dur; _ } | O_hw { dur; _ } -> dur
  in
  (* Integer re-timing of the extracted plan. *)
  let time controller =
    Timing.time_plan ~durations:(Array.init n dur) ~region_chains:region_order
      ~processor_chains ~reconfigs ~controller inst.Instance.graph
  in
  (* LP rounding can produce tied reconfiguration starts whose sort order
     contradicts a dependency chain. In that (rare) case, drop the
     LP-derived controller chain and re-chain the reconfigurations in a
     topological order of the rest of the plan: by their earliest starts
     without a controller, ties by index. Every duration is positive, so
     every edge of that plan strictly raises the earliest start, and no
     dependency runs against this order. *)
  let times =
    match time (Array.init nr Fun.id) with
    | times -> times
    | exception Graph.Cycle _ ->
      let free = (time [||]).Timing.rec_start in
      let order = Array.init nr Fun.id in
      Array.stable_sort (fun j k -> compare free.(j) free.(k)) order;
      time order
  in
  let task_start = times.Timing.task_start in
  let slots_arr =
    Array.init n (fun t ->
        let placement, impl_idx =
          match chosen.(t) with
          | O_sw { proc; impl_idx; _ } -> (Schedule.On_processor proc, impl_idx)
          | O_hw { slot; impl_idx; _ } ->
            (Schedule.On_region slot_region.(slot), impl_idx)
        in
        {
          Schedule.impl_idx;
          placement;
          start_ = task_start.(t);
          end_ = task_start.(t) + dur t;
        })
  in
  let regions =
    Array.init nregions (fun r ->
        let ordered =
          List.sort
            (fun a b -> compare task_start.(a) task_start.(b))
            region_tasks.(r)
        in
        { Schedule.res = region_res.(r); reconf_ticks = region_reconf.(r);
          tasks = ordered })
  in
  let reconfigurations =
    List.mapi
      (fun k (spec : Timing.reconf_spec) ->
        { Schedule.region = spec.Timing.region_id; t_in = spec.Timing.t_in;
          t_out = spec.Timing.t_out; r_start = times.Timing.rec_start.(k);
          r_end = times.Timing.rec_end.(k) })
      (Array.to_list reconfigs)
  in
  let makespan =
    Array.fold_left
      (fun acc (s : Schedule.task_slot) -> Stdlib.max acc s.Schedule.end_)
      0 slots_arr
  in
  {
    Schedule.instance = inst;
    regions;
    slots = slots_arr;
    reconfigurations;
    makespan;
    floorplan = None;
    module_reuse = false;
    resource_scale = 1.0;
  }

let solve ?(node_limit = 100_000) ?time_limit inst =
  let model = build inst in
  let vars = Lp.num_vars model.m and constraints = Lp.num_constraints model.m in
  match Branch_bound.solve ~node_limit ?time_limit model.m with
  | Branch_bound.Optimal { objective; values; nodes; _ } ->
    Some
      {
        schedule = extract inst model values;
        ilp_objective = objective;
        proved_optimal = true;
        nodes;
        vars;
        constraints;
      }
  | Branch_bound.Feasible { objective; values; nodes; _ } ->
    Some
      {
        schedule = extract inst model values;
        ilp_objective = objective;
        proved_optimal = false;
        nodes;
        vars;
        constraints;
      }
  | Branch_bound.Infeasible | Branch_bound.Unbounded | Branch_bound.Node_limit
    -> None
