module Rng = Resched_util.Rng
module Stats = Resched_util.Stats
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Schedule = Resched_core.Schedule
module Timing = Resched_core.Timing

type jitter =
  | Deterministic
  | Uniform of float
  | Delay_only of float

type trial = {
  makespan : int;
  task_start : int array;
  task_end : int array;
}

exception Replay_error of string

let sample_factor rng = function
  | Deterministic -> 1.0
  | Uniform f ->
    if f < 0. || f >= 1. then invalid_arg "Executor: Uniform jitter in [0,1)";
    1. -. f +. Rng.float rng (2. *. f)
  | Delay_only f ->
    if f < 0. then invalid_arg "Executor: Delay_only jitter >= 0";
    1. +. Rng.float rng f

let execute ?rng ~jitter (sched : Schedule.t) =
  let rng =
    match (rng, jitter) with
    | Some r, _ -> r
    | None, Deterministic -> Rng.create 0
    | None, (Uniform _ | Delay_only _) ->
      invalid_arg "Executor.execute: stochastic jitter needs ~rng"
  in
  let inst = sched.Schedule.instance in
  (* The key (region, t_in, t_out) must be unique: a duplicate would
     replay a controller occupation the plan cannot tell apart from its
     twin. *)
  let seen = Hashtbl.create 16 in
  let reconfigs =
    Array.of_list
      (List.map
         (fun (rc : Schedule.reconfiguration) ->
           let key =
             (rc.Schedule.region, rc.Schedule.t_in, rc.Schedule.t_out)
           in
           if Hashtbl.mem seen key then
             raise
               (Replay_error
                  (Printf.sprintf
                     "duplicate reconfiguration (region %d, %d->%d) in the \
                      controller sequence"
                     rc.Schedule.region rc.Schedule.t_in rc.Schedule.t_out));
           Hashtbl.replace seen key ();
           {
             Timing.region_id = rc.Schedule.region;
             t_in = rc.Schedule.t_in;
             t_out = rc.Schedule.t_out;
             (* Reconfiguration time is fixed by the bitstream size and
                the controller throughput: it never jitters. *)
             dur = rc.Schedule.r_end - rc.Schedule.r_start;
             critical = false;
           })
         sched.Schedule.reconfigurations)
  in
  let durations =
    Array.map
      (fun (s : Schedule.task_slot) ->
        let nominal = s.Schedule.end_ - s.Schedule.start_ in
        Stdlib.max 1
          (int_of_float
             (Float.round (float_of_int nominal *. sample_factor rng jitter))))
      sched.Schedule.slots
  in
  (* Per-processor order, by static start time. *)
  let processor_chains =
    Array.init inst.Instance.arch.Arch.processors (fun p ->
        let mine = ref [] in
        Array.iteri
          (fun u (s : Schedule.task_slot) ->
            match s.Schedule.placement with
            | Schedule.On_processor q when q = p -> mine := u :: !mine
            | _ -> ())
          sched.Schedule.slots;
        List.sort
          (fun a b ->
            compare sched.Schedule.slots.(a).Schedule.start_
              sched.Schedule.slots.(b).Schedule.start_)
          !mine)
  in
  (* The reconfiguration list is already in controller order. *)
  let r =
    Timing.time_plan ~durations
      ~region_chains:
        (Array.init
           (Array.length sched.Schedule.regions)
           (Schedule.region_tasks_in_order sched))
      ~processor_chains ~reconfigs
      ~controller:(Array.init (Array.length reconfigs) Fun.id)
      inst.Instance.graph
  in
  {
    makespan = r.Timing.makespan;
    task_start = r.Timing.task_start;
    task_end = r.Timing.task_end;
  }

type robustness = {
  trials : int;
  static_makespan : int;
  mean_makespan : float;
  worst_makespan : int;
  p95_makespan : float;
  mean_slowdown : float;
}

let robustness ~rng ~trials ~jitter sched =
  if trials <= 0 then invalid_arg "Executor.robustness: trials must be positive";
  let samples =
    Array.init trials (fun _ ->
        float_of_int (execute ~rng ~jitter sched).makespan)
  in
  let static = Schedule.makespan sched in
  {
    trials;
    static_makespan = static;
    mean_makespan = Stats.mean samples;
    worst_makespan = int_of_float (Stats.max samples);
    p95_makespan = Stats.percentile samples 95.;
    mean_slowdown = Stats.mean samples /. float_of_int (Stdlib.max 1 static);
  }

let pp_robustness ppf r =
  Format.fprintf ppf
    "%d trials: static %d, mean %.0f (x%.3f), p95 %.0f, worst %d" r.trials
    r.static_makespan r.mean_makespan r.mean_slowdown r.p95_makespan
    r.worst_makespan

(* ------------------------------------------------------------------ *)
(* Fault-injection replay                                              *)

module Repair = Resched_core.Repair

type fault_trial = {
  survived : bool;
  fired : Fault.event list;  (** events that struck, in firing order *)
  moot : int;  (** sampled events that no longer applied *)
  actions : Repair.action list;
  schedule : Schedule.t;  (** last valid schedule (fully repaired iff
                              [survived]) *)
  static_makespan : int;
  final_makespan : int;
  degradation : float;
  failure : string option;
}

(* When does a pending event strike, measured against the *current*
   (possibly already repaired) schedule? [None] = the event no longer
   applies: its reconfiguration was dropped by an earlier migration. *)
let trigger_time (sched : Schedule.t) = function
  | Fault.Overrun { task; _ } -> Some sched.Schedule.slots.(task).Schedule.end_
  | Fault.Region_death { at; _ } -> Some at
  | Fault.Reconf_fail { region; t_in; t_out; _ } ->
    List.find_map
      (fun (rc : Schedule.reconfiguration) ->
        if
          rc.Schedule.region = region && rc.Schedule.t_in = t_in
          && rc.Schedule.t_out = t_out
        then Some rc.Schedule.r_start
        else None)
      sched.Schedule.reconfigurations

let fault_of_event (sched : Schedule.t) = function
  | Fault.Reconf_fail { region; t_in; t_out; failures } ->
    Repair.Reconf_failed { region; t_in; t_out; failures }
  | Fault.Region_death { region; _ } -> Repair.Region_dead { region }
  | Fault.Overrun { task; factor } ->
    let s = sched.Schedule.slots.(task) in
    let nominal = s.Schedule.end_ - s.Schedule.start_ in
    let extra =
      Stdlib.max 1
        (int_of_float (Float.round (float_of_int nominal *. (factor -. 1.))))
    in
    Repair.Task_overrun { task; end_at = s.Schedule.end_ + extra }

let replay_faults ~policy ~(plan : Fault.plan) (sched0 : Schedule.t) =
  let static = Schedule.makespan sched0 in
  let finish sched ~fired ~moot ~actions ~failure =
    let final = Schedule.makespan sched in
    {
      survived = failure = None;
      fired = List.rev fired;
      moot;
      actions = List.rev actions;
      schedule = sched;
      static_makespan = static;
      final_makespan = final;
      degradation = float_of_int final /. float_of_int (Stdlib.max 1 static);
      failure;
    }
  in
  (* Failed load attempts hold the reconfiguration controller, but a
     schedule does not record them: a retried load starts after its
     failed attempts, and after a load that never succeeds the migrated
     suffix and later loads wait for the last one. [held] is the end of
     the latest such window. [Resched_tail] releases pending activities
     at its own fault instant, which would let them into an open window,
     so a repair inside one right-shifts as [Sw_fallback] does. *)
  let max_attempts = plan.Fault.spec.Fault.max_attempts in
  let backoff = plan.Fault.spec.Fault.backoff in
  (* Event-driven loop: at each step, fire the pending event with the
     earliest strike time in the current schedule (plan order breaks
     ties), repair, and continue on the repaired schedule. Strike times
     are re-read every step because each repair can shift, drop or
     compact the activities later events reference. *)
  let rec loop sched pending ~held ~fired ~moot ~actions =
    let live, newly_moot =
      List.partition (fun (_, ev) -> trigger_time sched ev <> None) pending
    in
    let moot = moot + List.length newly_moot in
    let next =
      List.fold_left
        (fun best (idx, ev) ->
          match trigger_time sched ev with
          | None -> best
          | Some t -> (
            match best with
            | Some (bt, bidx, _) when (bt, bidx) <= (t, idx) -> best
            | Some _ | None -> Some (t, idx, ev)))
        None live
    in
    match next with
    | None -> finish sched ~fired ~moot ~actions ~failure:None
    | Some (at, idx, ev) -> (
      let pending = List.filter (fun (i, _) -> i <> idx) live in
      let fault = fault_of_event sched ev in
      let policy =
        if policy = Repair.Resched_tail && at < held then Repair.Sw_fallback
        else policy
      in
      match Repair.repair ~max_attempts ~backoff ~policy ~at ~fault sched with
      | Ok (repaired, acts) ->
        loop repaired pending
          ~held:
            (Stdlib.max held
               (Repair.held_until ~max_attempts ~backoff ~at fault sched))
          ~fired:(ev :: fired) ~moot
          ~actions:(List.rev_append acts actions)
      | Error msg ->
        finish sched ~fired:(ev :: fired) ~moot ~actions ~failure:(Some msg))
  in
  loop sched0
    (List.mapi (fun i ev -> (i, ev)) plan.Fault.events)
    ~held:min_int ~fired:[] ~moot:0 ~actions:[]
