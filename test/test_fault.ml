(* Tests for the fault-injection layer and the self-healing repair
   engine: fault plans, single repairs per fault kind and policy, the
   event-driven executor replay, and the Monte-Carlo campaign. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Graph = Resched_taskgraph.Graph
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Pa = Resched_core.Pa
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Repair = Resched_core.Repair
module Fault = Resched_sim.Fault
module Executor = Resched_sim.Executor
module Campaign = Resched_sim.Campaign

let fixture ?(tasks = 20) seed =
  let rng = Rng.create seed in
  let inst = Suite.instance rng ~tasks in
  fst (Pa.run inst)

(* A schedule with at least one region hosting >= 2 tasks (so it has a
   reconfiguration); the suite+PA fixtures have these for most seeds. *)
let fixture_with_reconf () =
  let rec hunt seed =
    if seed > 60 then Alcotest.fail "no fixture with a reconfiguration found";
    let sched = fixture seed in
    if sched.Schedule.reconfigurations <> [] then sched else hunt (seed + 1)
  in
  hunt 1

let fixture_with_region () =
  let rec hunt seed =
    if seed > 60 then Alcotest.fail "no fixture with a used region found";
    let sched = fixture seed in
    if
      Array.exists
        (fun (r : Schedule.region) -> r.Schedule.tasks <> [])
        sched.Schedule.regions
    then sched
    else hunt (seed + 1)
  in
  hunt 1

let check_valid label sched =
  match Validate.check sched with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: repaired schedule invalid: %s" label
      (String.concat "; "
         (List.map
            (fun (v : Validate.violation) -> v.Validate.message)
            vs))

let policies = [ Repair.Retry; Repair.Sw_fallback; Repair.Resched_tail ]

(* ------------------------------------------------------------------ *)
(* Single repairs                                                      *)

let test_overrun_all_policies () =
  let sched = fixture 3 in
  let task = 0 in
  let s = sched.Schedule.slots.(task) in
  let fault =
    Repair.Task_overrun { task; end_at = s.Schedule.end_ + 7 }
  in
  List.iter
    (fun policy ->
      match Repair.repair ~policy ~at:s.Schedule.end_ ~fault sched with
      | Error msg -> Alcotest.failf "overrun repair failed: %s" msg
      | Ok (repaired, actions) ->
        check_valid "overrun" repaired;
        Alcotest.(check bool) "task end pushed to the realized end" true
          (repaired.Schedule.slots.(task).Schedule.end_ = s.Schedule.end_ + 7);
        Alcotest.(check bool) "a retime action is reported" true
          (List.exists (fun a -> Repair.action_key a = "retime") actions))
    policies

let test_reconf_retry_within_budget () =
  let sched = fixture_with_reconf () in
  let rc = List.hd sched.Schedule.reconfigurations in
  let fault =
    Repair.Reconf_failed
      {
        region = rc.Schedule.region;
        t_in = rc.Schedule.t_in;
        t_out = rc.Schedule.t_out;
        failures = 2;
      }
  in
  let dur = rc.Schedule.r_end - rc.Schedule.r_start in
  List.iter
    (fun policy ->
      match
        Repair.repair ~max_attempts:3 ~backoff:2 ~policy
          ~at:rc.Schedule.r_start ~fault sched
      with
      | Error msg -> Alcotest.failf "retryable failure not repaired: %s" msg
      | Ok (repaired, actions) ->
        check_valid "reconf-retry" repaired;
        Alcotest.(check bool) "a retry action is reported" true
          (List.exists (fun a -> Repair.action_key a = "retry") actions);
        let rc' =
          List.find
            (fun (r : Schedule.reconfiguration) ->
              r.Schedule.region = rc.Schedule.region
              && r.Schedule.t_in = rc.Schedule.t_in
              && r.Schedule.t_out = rc.Schedule.t_out)
            repaired.Schedule.reconfigurations
        in
        Alcotest.(check int) "successful load delayed by 2 attempts + backoff"
          (rc.Schedule.r_start + (2 * (dur + 2)))
          rc'.Schedule.r_start)
    policies

let test_reconf_permanent_by_policy () =
  let sched = fixture_with_reconf () in
  let rc = List.hd sched.Schedule.reconfigurations in
  let fault =
    Repair.Reconf_failed
      {
        region = rc.Schedule.region;
        t_in = rc.Schedule.t_in;
        t_out = rc.Schedule.t_out;
        failures = 3;
      }
  in
  (match
     Repair.repair ~max_attempts:3 ~policy:Repair.Retry ~at:rc.Schedule.r_start
       ~fault sched
   with
  | Ok _ -> Alcotest.fail "Retry must not recover a permanent load failure"
  | Error _ -> ());
  List.iter
    (fun policy ->
      match
        Repair.repair ~max_attempts:3 ~policy ~at:rc.Schedule.r_start ~fault
          sched
      with
      | Error msg -> Alcotest.failf "permanent failure not recovered: %s" msg
      | Ok (repaired, actions) ->
        check_valid "reconf-permanent" repaired;
        Alcotest.(check bool) "the outgoing task migrated" true
          (List.exists
             (fun a ->
               match a with
               | Repair.Migrated { task; _ } -> task = rc.Schedule.t_out
               | _ -> false)
             actions);
        (* The migrated task now runs a software implementation on a
           processor. *)
        let s = repaired.Schedule.slots.(rc.Schedule.t_out) in
        (match s.Schedule.placement with
        | Schedule.On_processor _ -> ()
        | Schedule.On_region _ ->
          Alcotest.fail "migrated task still on a region");
        let i =
          Instance.impl repaired.Schedule.instance ~task:rc.Schedule.t_out
            ~idx:s.Schedule.impl_idx
        in
        Alcotest.(check bool) "migrated task is software" true (Impl.is_sw i))
    [ Repair.Sw_fallback; Repair.Resched_tail ]

(* A load that never succeeds still made its [max_attempts] attempts,
   each holding the controller for the load and the backoff, and only
   the last one shows the failure is permanent: the migrated task and
   every later load wait for it. *)
let test_reconf_permanent_holds_controller () =
  let sched = fixture_with_reconf () in
  List.iter
    (fun (rc : Schedule.reconfiguration) ->
      let fault =
        Repair.Reconf_failed
          {
            region = rc.Schedule.region;
            t_in = rc.Schedule.t_in;
            t_out = rc.Schedule.t_out;
            failures = 3;
          }
      in
      let settled =
        rc.Schedule.r_start + (3 * (rc.Schedule.r_end - rc.Schedule.r_start + 500))
      in
      List.iter
        (fun policy ->
          match
            Repair.repair ~max_attempts:3 ~backoff:500 ~policy
              ~at:rc.Schedule.r_start ~fault sched
          with
          | Error msg -> Alcotest.failf "permanent failure not recovered: %s" msg
          | Ok (repaired, _) ->
            Alcotest.(check bool) "migrated task waits for the last attempt" true
              (repaired.Schedule.slots.(rc.Schedule.t_out).Schedule.start_
              >= settled);
            List.iter
              (fun (rc' : Schedule.reconfiguration) ->
                if rc'.Schedule.r_start >= rc.Schedule.r_start then
                  Alcotest.(check bool) "later loads wait for the controller"
                    true
                    (rc'.Schedule.r_start >= settled))
              repaired.Schedule.reconfigurations)
        [ Repair.Sw_fallback; Repair.Resched_tail ])
    sched.Schedule.reconfigurations

let test_region_death_by_policy () =
  let sched = fixture_with_region () in
  let region =
    let found = ref (-1) in
    Array.iteri
      (fun i (r : Schedule.region) ->
        if !found < 0 && r.Schedule.tasks <> [] then found := i)
      sched.Schedule.regions;
    !found
  in
  let fault = Repair.Region_dead { region } in
  (match Repair.repair ~policy:Repair.Retry ~at:0 ~fault sched with
  | Ok _ -> Alcotest.fail "Retry must not recover a dead region"
  | Error _ -> ());
  List.iter
    (fun policy ->
      match Repair.repair ~policy ~at:0 ~fault sched with
      | Error msg -> Alcotest.failf "region death not recovered: %s" msg
      | Ok (repaired, _) ->
        check_valid "region-death" repaired;
        Alcotest.(check (list int)) "dead region emptied" []
          repaired.Schedule.regions.(region).Schedule.tasks;
        (* No reconfiguration references the dead region any more (its
           whole task list migrated at t=0). *)
        Alcotest.(check bool) "no reconfigurations into the dead region" true
          (List.for_all
             (fun (rc : Schedule.reconfiguration) ->
               rc.Schedule.region <> region)
             repaired.Schedule.reconfigurations))
    [ Repair.Sw_fallback; Repair.Resched_tail ]

let test_region_death_mid_run_keeps_prefix () =
  let sched = fixture_with_reconf () in
  (* Find a region with >= 2 tasks and kill it right after its first
     task finishes: the finished prefix must stay, the suffix must
     migrate. *)
  let region, first, rest =
    let found = ref None in
    Array.iteri
      (fun i (r : Schedule.region) ->
        match
          (!found, Schedule.region_tasks_in_order sched i, r.Schedule.tasks)
        with
        | None, a :: (_ :: _ as tl), _ -> found := Some (i, a, tl)
        | _ -> ())
      sched.Schedule.regions;
    match !found with
    | Some (i, a, tl) -> (i, a, tl)
    | None -> Alcotest.fail "no region with two tasks"
  in
  let at = sched.Schedule.slots.(first).Schedule.end_ in
  match
    Repair.repair ~policy:Repair.Sw_fallback ~at
      ~fault:(Repair.Region_dead { region }) sched
  with
  | Error msg -> Alcotest.failf "mid-run region death not recovered: %s" msg
  | Ok (repaired, _) ->
    check_valid "mid-run region death" repaired;
    Alcotest.(check (list int)) "finished prefix kept" [ first ]
      repaired.Schedule.regions.(region).Schedule.tasks;
    Alcotest.(check bool) "finished task kept its committed slot" true
      (repaired.Schedule.slots.(first) = sched.Schedule.slots.(first));
    List.iter
      (fun u ->
        match repaired.Schedule.slots.(u).Schedule.placement with
        | Schedule.On_processor _ -> ()
        | Schedule.On_region _ -> Alcotest.failf "task %d did not migrate" u)
      rest

let test_resched_tail_never_worse_than_shift () =
  (* Compaction can only help: under the same fault, Resched_tail's
     repaired makespan is <= Sw_fallback's. *)
  List.iter
    (fun seed ->
      let sched = fixture seed in
      match sched.Schedule.reconfigurations with
      | [] -> ()
      | rc :: _ ->
        let fault =
          Repair.Reconf_failed
            {
              region = rc.Schedule.region;
              t_in = rc.Schedule.t_in;
              t_out = rc.Schedule.t_out;
              failures = 9;
            }
        in
        let span policy =
          match
            Repair.repair ~max_attempts:3 ~policy ~at:rc.Schedule.r_start
              ~fault sched
          with
          | Ok (r, _) -> Schedule.makespan r
          | Error msg -> Alcotest.failf "seed %d: %s" seed msg
        in
        Alcotest.(check bool) "tail rescheduling never loses to shifting" true
          (span Repair.Resched_tail <= span Repair.Sw_fallback))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* The no-software-fallback edge case                                  *)

(* Hand-built: two HW-only tasks sharing one region. Bypasses
   [Instance.make] (which insists on software implementations) to model
   a system whose tasks exist only as bitstreams. *)
let hw_only_schedule () =
  let arch = Arch.mini in
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:2 ~bram:0 ~dsp:0 in
  let hw = Impl.hw ~time:5 ~res () in
  let inst : Instance.t =
    {
      Instance.arch;
      graph;
      names = [| "t0"; "t1" |];
      impls = [| [| hw |]; [| hw |] |];
    }
  in
  let region =
    { Schedule.res; reconf_ticks = 3; tasks = [ 0; 1 ] }
  in
  let slots =
    [|
      { Schedule.impl_idx = 0; placement = Schedule.On_region 0; start_ = 0;
        end_ = 5 };
      { Schedule.impl_idx = 0; placement = Schedule.On_region 0; start_ = 8;
        end_ = 13 };
    |]
  in
  let reconfigurations =
    [ { Schedule.region = 0; t_in = 0; t_out = 1; r_start = 5; r_end = 8 } ]
  in
  {
    Schedule.instance = inst;
    regions = [| region |];
    slots;
    reconfigurations;
    makespan = 13;
    floorplan = None;
    module_reuse = false;
    resource_scale = 1.0;
  }

let test_no_sw_fallback_is_unrecoverable () =
  let sched = hw_only_schedule () in
  check_valid "hand-built HW-only schedule" sched;
  List.iter
    (fun policy ->
      match
        Repair.repair ~policy ~at:0 ~fault:(Repair.Region_dead { region = 0 })
          sched
      with
      | Ok _ -> Alcotest.fail "migration without a SW implementation"
      | Error msg ->
        Alcotest.(check bool) "error names the missing SW implementation" true
          (let has sub s =
             let n = String.length sub and m = String.length s in
             let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
             go 0
           in
           has "software" msg))
    [ Repair.Sw_fallback; Repair.Resched_tail ]

(* ------------------------------------------------------------------ *)
(* Executor integration                                                *)

let test_duplicate_reconf_detected () =
  let sched = fixture_with_reconf () in
  let rc = List.hd sched.Schedule.reconfigurations in
  let corrupted =
    {
      sched with
      Schedule.reconfigurations = rc :: sched.Schedule.reconfigurations;
    }
  in
  match Executor.execute ~jitter:Executor.Deterministic corrupted with
  | _ -> Alcotest.fail "expected Replay_error on a duplicate reconfiguration"
  | exception Executor.Replay_error _ -> ()

let default_plan seed sched =
  Fault.sample (Rng.create seed) sched

(* The instance inside a schedule holds the device's bitstream model (a
   closure), so whole-trial structural equality is not defined; project
   every trial down to its pure data before comparing. *)
let trial_data (t : Executor.fault_trial) =
  ( ( t.Executor.survived,
      t.Executor.fired,
      t.Executor.moot,
      t.Executor.actions,
      t.Executor.failure ),
    ( t.Executor.schedule.Schedule.slots,
      t.Executor.schedule.Schedule.reconfigurations,
      t.Executor.schedule.Schedule.makespan,
      Array.map
        (fun (r : Schedule.region) -> r.Schedule.tasks)
        t.Executor.schedule.Schedule.regions ),
    (t.Executor.static_makespan, t.Executor.final_makespan,
     t.Executor.degradation) )

let test_replay_faults_deterministic () =
  let sched = fixture 11 in
  List.iter
    (fun policy ->
      let a = Executor.replay_faults ~policy ~plan:(default_plan 5 sched) sched
      and b =
        Executor.replay_faults ~policy ~plan:(default_plan 5 sched) sched
      in
      Alcotest.(check bool) "equal plans replay bit-identically" true
        (trial_data a = trial_data b))
    policies

let test_replay_survives_with_sw_policies () =
  (* Every suite task has a SW implementation, so Sw_fallback and
     Resched_tail must recover 100% of default-plan trials. *)
  List.iter
    (fun seed ->
      let sched = fixture seed in
      List.iter
        (fun policy ->
          List.iter
            (fun fseed ->
              let plan = default_plan fseed sched in
              let t = Executor.replay_faults ~policy ~plan sched in
              if not t.Executor.survived then
                Alcotest.failf "seed %d/%d under %s: %s" seed fseed
                  (Repair.policy_name policy)
                  (Option.value ~default:"?" t.Executor.failure);
              check_valid "survivor" t.Executor.schedule)
            [ 1; 2; 3; 4; 5; 6; 7; 8 ])
        [ Repair.Sw_fallback; Repair.Resched_tail ])
    [ 2; 9 ]

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let test_campaign_jobs_invariant () =
  let sched = fixture 7 in
  List.iter
    (fun policy ->
      let run jobs =
        Campaign.run ~jobs ~trials:40 ~seed:123 ~policy sched
      in
      Alcotest.(check bool) "jobs=1 equals jobs=4" true (run 1 = run 4))
    policies

let test_campaign_full_recovery () =
  let sched = fixture 4 in
  List.iter
    (fun policy ->
      let s = Campaign.run ~jobs:2 ~trials:60 ~seed:99 ~policy sched in
      Alcotest.(check int) "every trial survives" s.Campaign.trials
        s.Campaign.survived;
      Alcotest.(check bool) "every repaired schedule validates" true
        s.Campaign.all_valid;
      Alcotest.(check bool) "degradation is >= 1 on average" true
        (s.Campaign.mean_degradation >= 1.0 || s.Campaign.faults_fired = 0))
    [ Repair.Sw_fallback; Repair.Resched_tail ]

let test_campaign_retry_weaker () =
  (* Retry cannot recover permanent faults; with death probability
     forced up it must lose trials that the SW policies survive. *)
  let sched = fixture_with_region () in
  let spec =
    { Fault.default_spec with Fault.p_region_death = 0.9; p_overrun = 0. }
  in
  let rate policy =
    (Campaign.run ~spec ~trials:40 ~seed:5 ~policy sched).Campaign.survival_rate
  in
  Alcotest.(check bool) "retry loses trials" true (rate Repair.Retry < 1.0);
  Alcotest.(check (float 0.0)) "sw-fallback survives all" 1.0
    (rate Repair.Sw_fallback)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* The instant the first fault of a trial strikes, read on the static
   schedule (the first event always fires on it). *)
let first_fault_at (sched : Schedule.t) = function
  | Fault.Overrun { task; _ } -> sched.Schedule.slots.(task).Schedule.end_
  | Fault.Region_death { at; _ } -> at
  | Fault.Reconf_fail { region; t_in; t_out; _ } ->
    (List.find
       (fun (rc : Schedule.reconfiguration) ->
         rc.Schedule.region = region && rc.Schedule.t_in = t_in
         && rc.Schedule.t_out = t_out)
       sched.Schedule.reconfigurations)
      .Schedule.r_start

(* What a surviving trial guarantees beyond validity, per policy:
   - [Retry] never migrates and only shifts activities right, so the
     makespan never falls below the static one.
   - [Sw_fallback] shifts every task it keeps on its static placement
     right, never left. A migrated task restarts in software when the
     fault is known, and can finish before the hardware run it replaces
     was due (that run waited for its region and the controller), so the
     makespan may fall (see [test_sw_fallback_migration_beats_static]).
   - [Resched_tail] recomputes the pending suffix and may beat the
     static schedule outright, but the tasks that finished before the
     first fault struck keep their slots. (An overrunning task's own
     slot moves: it is redrawn to end at its realized end.) *)
let trial_holds ~policy (sched : Schedule.t) (t : Executor.fault_trial) =
  let final = t.Executor.schedule in
  let kept u =
    final.Schedule.slots.(u).Schedule.placement
    = sched.Schedule.slots.(u).Schedule.placement
  in
  Validate.check final = Ok ()
  && ((not t.Executor.survived)
     ||
     match policy with
     | Repair.Retry -> t.Executor.degradation >= 0.99
     | Repair.Sw_fallback ->
       List.for_all
         (fun u ->
           (not (kept u))
           || final.Schedule.slots.(u).Schedule.start_
              >= sched.Schedule.slots.(u).Schedule.start_)
         (List.init (Array.length sched.Schedule.slots) Fun.id)
     | Repair.Resched_tail -> (
       match t.Executor.fired with
       | [] -> final.Schedule.slots = sched.Schedule.slots
       | first :: _ ->
         let at = first_fault_at sched first in
         Array.for_all2
           (fun (s : Schedule.task_slot) s' ->
             s.Schedule.end_ >= at || s = s')
           sched.Schedule.slots final.Schedule.slots))

let fault_spec =
  {
    Fault.default_spec with
    Fault.p_reconf_fail = 0.5;
    p_overrun = 0.3;
    p_region_death = 0.3;
  }

let replay_triple (seed, tasks, pidx) =
  let policy = List.nth policies pidx in
  let sched = fixture ~tasks (1 + (seed mod 50)) in
  let plan = Fault.sample (Rng.create (seed * 31 + 7)) ~spec:fault_spec sched in
  (policy, sched, Executor.replay_faults ~policy ~plan sched)

let prop_repair_always_validates =
  QCheck.Test.make ~count:40
    ~name:"replayed faults always yield validated schedules"
    QCheck.(triple small_int (int_range 8 25) (int_range 0 2))
    (fun triple ->
      let policy, sched, t = replay_triple triple in
      (* Survived or not, the last schedule standing must validate. *)
      trial_holds ~policy sched t
      (* Over this property's whole input space (seeds 0..99 x 8..25
         tasks: 1,800 [Sw_fallback] trials, all checked) no
         [Sw_fallback] trial ends below the static makespan, so the
         floor stays as a regression check here even though it is not
         an invariant of the policy. *)
      && (policy <> Repair.Sw_fallback
         || (not t.Executor.survived)
         || t.Executor.degradation >= 0.99))

(* (seed, tasks, policy) triples of the property above whose replayed
   makespan fell below the static one while repairs could treat failed
   load attempts as free: a load that never succeeded migrated its
   region's suffix as soon as its first attempt started, and a
   [Resched_tail] repair released pending activities into a window that
   earlier failed attempts still held. Fourteen now end at or above the
   static makespan. In (7, 11, 2) a region death migrates tasks whose
   software runs end before their hardware runs were due, and
   [Resched_tail] compaction lets their successors follow: it still
   beats the static schedule, legitimately. (81, 10, 2) did too on the
   10772-tick fixture [Pa.run] built when it checked the floorplan in
   region order; in canonical order it finds an 8173-tick one, which
   the replay does not beat. *)
let test_pinned_fault_triples () =
  List.iter
    (fun ((seed, tasks, pidx) as triple, may_beat_static) ->
      let policy, sched, t = replay_triple triple in
      let label = Printf.sprintf "(%d, %d, %d)" seed tasks pidx in
      Alcotest.(check bool) (label ^ " survives") true t.Executor.survived;
      Alcotest.(check bool) (label ^ " holds its policy's invariant") true
        (trial_holds ~policy sched t);
      Alcotest.(check bool)
        (label ^ " beats the static makespan")
        may_beat_static
        (t.Executor.final_makespan < t.Executor.static_makespan))
    [
      ((7, 11, 2), true);
      ((9, 12, 2), false);
      ((23, 8, 2), false);
      ((40, 9, 2), false);
      ((53, 9, 2), false);
      ((57, 13, 2), false);
      ((61, 8, 1), false);
      ((61, 8, 2), false);
      ((61, 9, 2), false);
      ((70, 8, 2), false);
      ((73, 8, 2), false);
      ((81, 10, 2), false);
      ((81, 13, 2), false);
      ((91, 9, 1), false);
      ((91, 9, 2), false);
    ]

(* A region death alone can take [Sw_fallback] below the static
   makespan. Region 2 of the 8-task fixture of seed 12 dies at 0: task
   6, last in the static schedule at [8742, 9171) behind its region's
   earlier tasks, runs in software instead and ends at 7858, while every
   task kept on its placement only moves right (9171 -> 8601). *)
let test_sw_fallback_migration_beats_static () =
  let sched = fixture ~tasks:8 12 in
  let plan =
    {
      Fault.spec = Fault.default_spec;
      events = [ Fault.Region_death { region = 2; at = 0 } ];
    }
  in
  let policy = Repair.Sw_fallback in
  let t = Executor.replay_faults ~policy ~plan sched in
  Alcotest.(check bool) "survives" true t.Executor.survived;
  Alcotest.(check bool) "kept tasks never start earlier" true
    (trial_holds ~policy sched t);
  Alcotest.(check bool) "beats the static makespan" true
    (t.Executor.final_makespan < t.Executor.static_makespan)

let prop_equal_seeds_equal_campaigns =
  QCheck.Test.make ~count:10 ~name:"campaigns are seed-deterministic"
    QCheck.(pair small_int (int_range 8 20))
    (fun (seed, tasks) ->
      let sched = fixture ~tasks (1 + (seed mod 20)) in
      let run jobs =
        Campaign.run ~jobs ~trials:12 ~seed:(seed + 1) ~policy:Repair.Resched_tail
          sched
      in
      run 1 = run 3)

let () =
  Alcotest.run "fault"
    [
      ( "repair",
        [
          Alcotest.test_case "overrun repairs under every policy" `Quick
            test_overrun_all_policies;
          Alcotest.test_case "reconf retry within budget" `Quick
            test_reconf_retry_within_budget;
          Alcotest.test_case "permanent reconf failure by policy" `Quick
            test_reconf_permanent_by_policy;
          Alcotest.test_case "permanent reconf failure holds the controller"
            `Quick test_reconf_permanent_holds_controller;
          Alcotest.test_case "region death by policy" `Quick
            test_region_death_by_policy;
          Alcotest.test_case "mid-run region death keeps prefix" `Quick
            test_region_death_mid_run_keeps_prefix;
          Alcotest.test_case "resched-tail never worse than shift" `Quick
            test_resched_tail_never_worse_than_shift;
          Alcotest.test_case "no-SW fallback is unrecoverable" `Quick
            test_no_sw_fallback_is_unrecoverable;
        ] );
      ( "executor",
        [
          Alcotest.test_case "duplicate reconfiguration detected" `Quick
            test_duplicate_reconf_detected;
          Alcotest.test_case "fault replay deterministic" `Quick
            test_replay_faults_deterministic;
          Alcotest.test_case "SW policies survive default plans" `Quick
            test_replay_survives_with_sw_policies;
          Alcotest.test_case "pinned fault triples" `Quick
            test_pinned_fault_triples;
          Alcotest.test_case "SW fallback migration beats static" `Quick
            test_sw_fallback_migration_beats_static;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs-invariant results" `Quick
            test_campaign_jobs_invariant;
          Alcotest.test_case "full recovery with SW policies" `Quick
            test_campaign_full_recovery;
          Alcotest.test_case "retry is weaker under forced deaths" `Quick
            test_campaign_retry_weaker;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_repair_always_validates;
          QCheck_alcotest.to_alcotest prop_equal_seeds_equal_campaigns;
        ] );
    ]
