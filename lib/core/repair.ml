module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl

type fault =
  | Reconf_failed of { region : int; t_in : int; t_out : int; failures : int }
  | Task_overrun of { task : int; end_at : int }
  | Region_dead of { region : int }

type policy = Retry | Sw_fallback | Resched_tail

type action =
  | Retried of { region : int; t_out : int; attempts : int }
  | Migrated of { task : int; processor : int }
  | Retimed of { compacted : bool }

let policy_name = function
  | Retry -> "retry"
  | Sw_fallback -> "sw-fallback"
  | Resched_tail -> "resched-tail"

let policy_of_string = function
  | "retry" -> Ok Retry
  | "sw-fallback" | "sw_fallback" | "sw" -> Ok Sw_fallback
  | "resched-tail" | "resched_tail" | "tail" -> Ok Resched_tail
  | s ->
    Error
      (Printf.sprintf "unknown policy %S (expected retry, sw-fallback or \
                       resched-tail)" s)

let action_key = function
  | Retried _ -> "retry"
  | Migrated _ -> "migrate"
  | Retimed _ -> "retime"

let pp_action ppf = function
  | Retried { region; t_out; attempts } ->
    Format.fprintf ppf "retried region %d load for task %d (attempt %d)"
      region t_out attempts
  | Migrated { task; processor } ->
    Format.fprintf ppf "migrated task %d to SW on processor %d" task processor
  | Retimed { compacted } ->
    Format.fprintf ppf "retimed schedule tail%s"
      (if compacted then " (compacted)" else "")

(* A failed load holds the single controller for each failed attempt,
   load plus backoff. A load that never succeeds is given up after
   [max_attempts] of them. *)
let held_until ?(max_attempts = 3) ?(backoff = 0) ~at fault
    (sched : Schedule.t) =
  match fault with
  | Reconf_failed { region; t_in; t_out; failures } -> (
    match
      List.find_opt
        (fun (rc : Schedule.reconfiguration) ->
          rc.Schedule.region = region && rc.Schedule.t_in = t_in
          && rc.Schedule.t_out = t_out)
        sched.Schedule.reconfigurations
    with
    | Some rc ->
      at
      + (Stdlib.min failures max_attempts
        * (rc.Schedule.r_end - rc.Schedule.r_start + backoff))
    | None -> at)
  | Task_overrun _ | Region_dead _ -> at

(* Internal early-exit carrier; every [raise] below is caught by [repair]
   and surfaced as [Error]. *)
exception Bail of string

let bail fmt = Printf.ksprintf (fun m -> raise (Bail m)) fmt

(* A repair is computed in four moves:

   1. Decide the structural change: which tasks leave their region for a
      software fallback, which reconfiguration gets retried (and how much
      controller time the failed attempts burned), which task carries an
      overrun.
   2. Rebuild the plan of the surviving decisions from the public
      schedule alone: durations, region chains (with one node per kept
      reconfiguration; module-reuse pairs chain directly), the committed
      controller order.
   3. Re-time with {!Timing.time_plan} under per-activity release times:
      finished and in-flight activities are pinned to their committed
      starts (history cannot move), the faulted activity is pushed to
      its post-fault earliest start, and the pending tail either keeps
      its committed starts ([Retry]/[Sw_fallback]: pure right-shift) or
      restarts from the fault instant ([Resched_tail]: the suffix is
      recomputed and may reclaim slack). Processor orders are rebuilt
      from a first chain-free resolve, so migrated tasks slot into each
      processor's queue wherever their dependencies allow.
   4. Check the result with {!Validate.check}; a repair that does not
      validate is never returned. *)

let repair ?(max_attempts = 3) ?(backoff = 0) ~policy ~at ~fault
    (sched : Schedule.t) =
  let inst = sched.Schedule.instance in
  let n = Instance.size inst in
  let procs = inst.Instance.arch.Arch.processors in
  let slot u = sched.Schedule.slots.(u) in
  let impl_of u = Instance.impl inst ~task:u ~idx:(slot u).Schedule.impl_idx in
  let finished u = (slot u).Schedule.end_ <= at in
  let rcs = Array.of_list sched.Schedule.reconfigurations in
  let find_rc region a b =
    let found = ref None in
    Array.iteri
      (fun k (rc : Schedule.reconfiguration) ->
        if
          !found = None && rc.Schedule.region = region
          && rc.Schedule.t_in = a && rc.Schedule.t_out = b
        then found := Some (k, rc))
      rcs;
    !found
  in
  try
    (* -------------------------------------------------------------- *)
    (* 1. Structural decision.                                         *)
    let region_suffix ridx ~from_task =
      let rec drop = function
        | x :: tl -> if x = from_task then x :: tl else drop tl
        | [] -> []
      in
      drop (Schedule.region_tasks_in_order sched ridx)
    in
    (* [to_migrate] is always a suffix of its region's execution order,
       so the kept prefix's reconfigurations stay pairwise intact.
       [settled] is the instant the repair takes effect: the fault
       instant, except for a load that never succeeds. Only its last
       failed attempt shows the failure is permanent, so the migrated
       suffix and every later reconfiguration wait for it. *)
    let to_migrate, retried, overrun, settled, base_actions =
      match fault with
      | Task_overrun { task; end_at } ->
        if task < 0 || task >= n then bail "overrun: unknown task %d" task;
        (* An overrun is detected at the task's committed end, so [at]
           equals that end; only a strictly earlier end means the event
           arrived stale. *)
        if (slot task).Schedule.end_ < at then
          bail "overrun: task %d already finished at %d" task
            (slot task).Schedule.end_;
        if end_at <= (slot task).Schedule.end_ then
          bail "overrun: task %d 'overran' to %d, not past its end %d" task
            end_at (slot task).Schedule.end_;
        ( [],
          None,
          Some (task, end_at),
          at,
          [ Retimed { compacted = policy = Resched_tail } ] )
      | Reconf_failed { region; t_in; t_out; failures } -> (
        match find_rc region t_in t_out with
        | None ->
          bail "reconf-failure: no reconfiguration (region %d, %d->%d)" region
            t_in t_out
        | Some (k, _) ->
          let held = held_until ~max_attempts ~backoff ~at fault sched in
          if failures < max_attempts then begin
            ( [],
              Some (k, held - at),
              None,
              at,
              [ Retried { region; t_out; attempts = failures + 1 } ] )
          end
          else begin
            match policy with
            | Retry ->
              bail
                "reconf-failure: region %d load for task %d still failing \
                 after %d attempts (Retry gives up)"
                region t_out max_attempts
            | Sw_fallback | Resched_tail ->
              ( region_suffix region ~from_task:t_out,
                None,
                None,
                held,
                [] )
          end)
      | Region_dead { region } -> (
        if region < 0 || region >= Array.length sched.Schedule.regions then
          bail "region-death: unknown region %d" region;
        let remaining =
          List.filter
            (fun u -> not (finished u))
            (Schedule.region_tasks_in_order sched region)
        in
        match policy with
        | Retry when remaining <> [] ->
          bail
            "region-death: region %d is dead with %d task(s) unfinished and \
             Retry cannot migrate"
            region (List.length remaining)
        | Retry -> ([], None, None, at, [])
        | Sw_fallback | Resched_tail -> (remaining, None, None, at, []))
    in
    (* Software fallback: fastest SW implementation, least-loaded
       processor first (load = committed completion horizon of the
       processor, then the migrated work as it queues up). *)
    let load = Array.make (Stdlib.max 1 procs) 0 in
    Array.iteri
      (fun _ (s : Schedule.task_slot) ->
        match s.Schedule.placement with
        | Schedule.On_processor p when p >= 0 && p < procs ->
          if s.Schedule.end_ > load.(p) then load.(p) <- s.Schedule.end_
        | Schedule.On_processor _ | Schedule.On_region _ -> ())
      sched.Schedule.slots;
    let assignments =
      List.map
        (fun u ->
          if procs <= 0 then bail "task %d: no processor to migrate to" u;
          if Instance.sw_impls inst u = [] then
            bail "task %d has no software implementation to fall back to" u;
          let idx = Instance.fastest_sw inst u in
          let time = (Instance.impl inst ~task:u ~idx).Impl.time in
          let best = ref 0 in
          for p = 1 to procs - 1 do
            if load.(p) < load.(!best) then best := p
          done;
          let p = !best in
          load.(p) <- Stdlib.max load.(p) settled + time;
          (u, idx, p, time))
        to_migrate
    in
    let migrated = Array.make n false in
    List.iter (fun (u, _, _, _) -> migrated.(u) <- true) assignments;
    let actions =
      base_actions
      @ List.map
          (fun (u, _, p, _) -> Migrated { task = u; processor = p })
          assignments
      @
      if assignments <> [] && policy = Resched_tail then
        [ Retimed { compacted = true } ]
      else []
    in
    (* -------------------------------------------------------------- *)
    (* 2. Surviving precedence plan.                                   *)
    let kept_region_tasks =
      Array.init (Array.length sched.Schedule.regions) (fun ridx ->
          List.filter
            (fun u -> not migrated.(u))
            (Schedule.region_tasks_in_order sched ridx))
    in
    let same_module a b =
      match ((impl_of a).Impl.module_id, (impl_of b).Impl.module_id) with
      | Some x, Some y -> x = y
      | _ -> false
    in
    let durations =
      Array.init n (fun u ->
          let s = slot u in
          s.Schedule.end_ - s.Schedule.start_)
    in
    List.iter (fun (u, _, _, time) -> durations.(u) <- time) assignments;
    (* Kept reconfigurations, as (original controller position, spec,
       release). Module-reuse pairs have none: the plan chains them
       directly. *)
    let specs = ref [] in
    Array.iteri
      (fun ridx (r : Schedule.region) ->
        let rec pairs = function
          | a :: b :: tl ->
            if not (sched.Schedule.module_reuse && same_module a b) then begin
              match find_rc ridx a b with
              | None ->
                bail
                  "input schedule lacks the reconfiguration (region %d, \
                   %d->%d)"
                  ridx a b
              | Some (k, rc) ->
                let release =
                  match retried with
                  | Some (k', delay) when k = k' -> rc.Schedule.r_start + delay
                  | _ ->
                    if rc.Schedule.r_start < at then rc.Schedule.r_start
                    else if policy = Resched_tail then settled
                    else Stdlib.max rc.Schedule.r_start settled
                in
                specs :=
                  ( k,
                    {
                      Timing.region_id = ridx;
                      t_in = a;
                      t_out = b;
                      dur = r.Schedule.reconf_ticks;
                      critical = false;
                    },
                    release )
                  :: !specs
            end;
            pairs (b :: tl)
          | [ _ ] | [] -> ()
        in
        pairs kept_region_tasks.(ridx))
      sched.Schedule.regions;
    let specs =
      List.sort (fun (k1, _, _) (k2, _, _) -> compare k1 k2) !specs
    in
    let spec_arr = Array.of_list (List.map (fun (_, s, _) -> s) specs) in
    let nr = Array.length spec_arr in
    let release = Array.make (n + nr) 0 in
    List.iteri (fun i (_, _, r) -> release.(n + i) <- r) specs;
    for u = 0 to n - 1 do
      release.(u) <-
        (if migrated.(u) then settled
         else
           match overrun with
           | Some (t, end_at) when t = u -> end_at - durations.(u)
           | _ ->
             let s = slot u in
             if s.Schedule.start_ < at then s.Schedule.start_
             else if policy = Resched_tail then at
             else s.Schedule.start_)
    done;
    let time_plan processor_chains =
      Timing.time_plan ~release ~durations ~region_chains:kept_region_tasks
        ~processor_chains ~reconfigs:spec_arr
        ~controller:(Array.init nr Fun.id) inst.Instance.graph
    in
    (* -------------------------------------------------------------- *)
    (* 3. Two-pass re-timing: earliest starts without processor chains
       fix a dependency-consistent order per processor (durations are
       strictly positive, so chaining by earliest start cannot close a
       cycle), then the full resolve prices everything. *)
    let processor_of u =
      if migrated.(u) then
        List.find_map
          (fun (m, _, p, _) -> if m = u then Some p else None)
          assignments
      else
        match (slot u).Schedule.placement with
        | Schedule.On_processor p -> Some p
        | Schedule.On_region _ -> None
    in
    let est = (time_plan [||]).Timing.task_start in
    let processor_chains =
      Array.init procs (fun p ->
          let mine = ref [] in
          for u = n - 1 downto 0 do
            if processor_of u = Some p then mine := u :: !mine
          done;
          List.sort
            (fun a b ->
              let c = compare est.(a) est.(b) in
              if c <> 0 then c else compare a b)
            !mine)
    in
    let resolved = time_plan processor_chains in
    (* -------------------------------------------------------------- *)
    (* 4. Rebuild and check.                                           *)
    let slots =
      Array.init n (fun u ->
          let s = slot u in
          let impl_idx, placement =
            match
              List.find_map
                (fun (m, idx, p, _) -> if m = u then Some (idx, p) else None)
                assignments
            with
            | Some (idx, p) -> (idx, Schedule.On_processor p)
            | None -> (s.Schedule.impl_idx, s.Schedule.placement)
          in
          {
            Schedule.impl_idx;
            placement;
            start_ = resolved.Timing.task_start.(u);
            end_ = resolved.Timing.task_end.(u);
          })
    in
    let regions =
      Array.mapi
        (fun ridx (r : Schedule.region) ->
          { r with Schedule.tasks = kept_region_tasks.(ridx) })
        sched.Schedule.regions
    in
    let reconfigurations =
      List.mapi
        (fun k (spec : Timing.reconf_spec) ->
          {
            Schedule.region = spec.Timing.region_id;
            t_in = spec.Timing.t_in;
            t_out = spec.Timing.t_out;
            r_start = resolved.Timing.rec_start.(k);
            r_end = resolved.Timing.rec_end.(k);
          })
        (Array.to_list spec_arr)
    in
    let repaired =
      {
        sched with
        Schedule.slots;
        regions;
        reconfigurations;
        makespan = resolved.Timing.makespan;
      }
    in
    match Validate.check repaired with
    | Ok () -> Ok (repaired, actions)
    | Error vs ->
      Error
        (Printf.sprintf "repair produced an invalid schedule: %s"
           (String.concat "; "
              (List.map (Format.asprintf "%a" Validate.pp_violation) vs)))
  with
  | Bail msg -> Error msg
  | Graph.Cycle _ -> Error "repair created a dependency cycle"
