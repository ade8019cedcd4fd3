(* Tests for the delta-evaluation move kernel ([Delta]) and the
   annealing driver ([Lns]) on top of it: agreement of the incremental
   evaluator with the from-scratch [Delta_oracle], LIFO rollback
   restoring states bit-identically (the undo-log property),
   materialized schedules passing the independent checker, and the
   reproducible-polish contract. *)

module Rng = Resched_util.Rng
module Graph = Resched_taskgraph.Graph
module Resource = Resched_fabric.Resource
module Suite = Resched_platform.Suite
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Instance = Resched_platform.Instance
module Fp_cache = Resched_floorplan.Fp_cache
module Pa = Resched_core.Pa
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Delta = Resched_core.Delta
module Lns = Resched_core.Lns

let config () =
  {
    Delta.default_config with
    Delta.cache = Some (Fp_cache.create ());
  }

let seed_schedule ?(tasks = 20) seed =
  let rng = Rng.create seed in
  let inst = Suite.instance rng ~tasks in
  let sched, _stats = Pa.run inst in
  sched

(* The same weighted proposal distribution [Lns] uses, local to the
   tests so the kernel properties do not depend on the driver. *)
let propose d rng =
  let n = Delta.size d in
  let regions = Array.of_list (Delta.live_regions d) in
  let pick_region () = regions.(Rng.int rng (Array.length regions)) in
  let have = Array.length regions > 0 in
  match Rng.int rng 6 with
  | 0 when have -> Delta.Reassign { task = Rng.int rng n; region = pick_region () }
  | 1 -> Delta.Swap { task_a = Rng.int rng n; task_b = Rng.int rng n }
  | 2 -> Delta.To_sw { task = Rng.int rng n; processor = Rng.int rng 2 }
  | 3 -> (
    let u = Rng.int rng n in
    match Instance.hw_impls (Delta.instance d) u with
    | [] -> Delta.To_sw { task = u; processor = 0 }
    | impls ->
      let idx, _ = List.nth impls (Rng.int rng (List.length impls)) in
      let region = if have && Rng.bool rng then Some (pick_region ()) else None in
      Delta.To_hw { task = u; impl_idx = idx; region })
  | 4 when have -> Delta.Merge { dst = pick_region (); src = pick_region () }
  | _ when have ->
    let r = pick_region () in
    let c = Delta.region_task_count d r in
    Delta.Split { region = r; keep = (if c < 2 then 1 else 1 + Rng.int rng (c - 1)) }
  | _ -> Delta.Swap { task_a = Rng.int rng n; task_b = Rng.int rng n }

(* --- of_schedule ------------------------------------------------- *)

let test_of_schedule_roundtrip () =
  let sched = seed_schedule 42 in
  let d = Delta.of_schedule ~config:(config ()) sched in
  Alcotest.(check (option string)) "times agree with the oracle" None
    (Delta_oracle.divergence ~check:(Delta_oracle.cached_check ()) d);
  Alcotest.(check bool)
    "canonical makespan never exceeds the pipeline's" true
    (Delta.makespan d <= Schedule.makespan sched);
  let back = Delta.to_schedule d in
  (match Validate.check back with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "materialized schedule invalid: %a"
      (Fmt.list Validate.pp_violation) vs);
  Alcotest.(check int) "materialized makespan" (Delta.makespan d)
    (Schedule.makespan back);
  (* Every activity delayed alike keeps every chain and the controller
     in the same order, so canonicalizing must land on the same state. *)
  let late =
    {
      sched with
      Schedule.slots =
        Array.map
          (fun (s : Schedule.task_slot) ->
            { s with Schedule.start_ = s.Schedule.start_ + 7;
                     end_ = s.end_ + 7 })
          sched.Schedule.slots;
      reconfigurations =
        List.map
          (fun (rc : Schedule.reconfiguration) ->
            { rc with Schedule.r_start = rc.Schedule.r_start + 7;
                      r_end = rc.r_end + 7 })
          sched.Schedule.reconfigurations;
    }
  in
  Alcotest.(check string) "a delayed copy canonicalizes to the same state"
    (Delta.fingerprint d)
    (Delta.fingerprint (Delta.of_schedule ~config:(config ()) late))

(* A schedule whose controller order contradicts a data edge. Task 3
   feeds task 0; region 0 runs 0 then 1 and region 1 runs 2 then 3,
   each pair separated by a reconfiguration. Loading 3 into region 1
   before region 0 reconfigures after 0 is consistent; the opposite
   controller order closes the cycle 0 -> r0 -> r1 -> 3 -> 0. *)
let crossed_schedule ~cyclic =
  let graph = Graph.create 4 in
  Graph.add_edge graph 3 0;
  let res = Resource.make ~clb:50 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 4 (fun _ -> [| Impl.sw ~time:5; Impl.hw ~time:4 ~res () |])
  in
  let instance = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let reconf_ticks = Arch.reconf_ticks Arch.mini res in
  let slot region start_ =
    {
      Schedule.impl_idx = 1;
      placement = Schedule.On_region region;
      start_;
      end_ = start_ + 4;
    }
  in
  let reconf region t_in t_out r_start =
    { Schedule.region; t_in; t_out; r_start; r_end = r_start + reconf_ticks }
  in
  let r0 = reconf 0 0 1 (if cyclic then 1 else 2)
  and r1 = reconf 1 2 3 (if cyclic then 2 else 1) in
  {
    Schedule.instance;
    regions =
      [|
        { Schedule.res; reconf_ticks; tasks = [ 0; 1 ] };
        { Schedule.res; reconf_ticks; tasks = [ 2; 3 ] };
      |];
    slots = [| slot 0 0; slot 0 100; slot 1 0; slot 1 200 |];
    reconfigurations = (if cyclic then [ r0; r1 ] else [ r1; r0 ]);
    makespan = 204;
    floorplan = None;
    module_reuse = false;
    resource_scale = 1.0;
  }

let test_of_schedule_rejects_cycle () =
  let d = Delta.of_schedule (crossed_schedule ~cyclic:false) in
  Alcotest.(check (option string)) "the consistent order is timed" None
    (Delta_oracle.divergence d);
  Alcotest.check_raises "the crossed order is refused"
    (Invalid_argument "Delta.of_schedule: schedule's plan graph is cyclic")
    (fun () -> ignore (Delta.of_schedule (crossed_schedule ~cyclic:true)))

(* --- incremental = oracle ---------------------------------------- *)

(* The two fabrics of test_scheduler's identity properties: the paper's
   XC7Z020 suite, and a saturated XC7Z010 on which the floorplan
   verdict flips from move to move. *)
let draw_instance ~saturated seed tasks =
  let rng = Rng.create seed in
  if saturated then
    let params =
      { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }
    in
    Suite.instance ~params ~arch:Arch.microzed rng ~tasks
  else Suite.instance rng ~tasks

(* Property: after every applied move the kernel's starts, makespan and
   floorplan verdict are those of the from-scratch oracle, and a
   rejected move leaves the state untouched. A quarter of the applied
   moves are rolled back, the rest committed. A draw must apply at
   least [min_applied] of its 150 proposals, so a kernel that rejects
   every move (or nearly every one) cannot pass by agreeing vacuously:
   400 draws applied 43 to 96 each. *)
let min_applied = 20

(* 10-100 tasks, shrinking within the range: [QCheck.int_range] alone
   shrinks toward 0, where the generator refuses to build a graph. *)
let task_count =
  QCheck.(set_shrink Shrink.(filter (fun n -> n >= 10) int) (int_range 10 100))

let prop_incremental_matches_oracle =
  QCheck.Test.make ~count:20 ~name:"incremental = oracle over random moves"
    QCheck.(quad int task_count bool bool)
    (fun (seed, tasks, saturated, module_reuse) ->
      let inst = draw_instance ~saturated (seed lxor 0xde17a) tasks in
      let sched, _ =
        Pa.run ~config:{ Pa.default_config with Pa.module_reuse } inst
      in
      let d = Delta.of_schedule ~config:(config ()) sched in
      let check = Delta_oracle.cached_check () in
      let agree what =
        match Delta_oracle.divergence ~check d with
        | None -> ()
        | Some msg -> QCheck.Test.fail_reportf "%s: %s" what msg
      in
      agree "of_schedule";
      let rng = Rng.create seed in
      let applied = ref 0 in
      for i = 1 to 150 do
        let before = Delta.fingerprint d in
        match Delta.apply d (propose d rng) with
        | None ->
          if not (String.equal before (Delta.fingerprint d)) then
            QCheck.Test.fail_reportf "rejected move %d changed the state" i
        | Some v ->
          incr applied;
          if
            v.Delta.makespan <> Delta.makespan d
            || v.Delta.fp_feasible <> Delta.fp_feasible d
          then QCheck.Test.fail_reportf "move %d: verdict is not the state's" i;
          agree (Printf.sprintf "move %d" i);
          if Rng.int rng 4 = 0 then Delta.rollback d else Delta.commit d
      done;
      if !applied < min_applied then
        QCheck.Test.fail_reportf "only %d of 150 moves applied (at least %d)"
          !applied min_applied;
      true)

(* --- rollback (S3) ------------------------------------------------ *)

let prop_rollback_restores =
  QCheck.Test.make ~count:30
    ~name:"random moves + LIFO rollbacks restore a bit-identical state"
    QCheck.(triple small_int small_int (int_range 1 3))
    (fun (seed, moveseed, job) ->
      let sched = seed_schedule (1000 + (17 * job)) ~tasks:(10 + (6 * job)) in
      let d = Delta.of_schedule ~config:(config ()) sched in
      let rng = Rng.create (seed + (31 * moveseed)) in
      let before = Delta.fingerprint d in
      let applied = ref 0 in
      for _ = 1 to 40 do
        match Delta.apply d (propose d rng) with
        | Some _ -> incr applied
        | None -> ()
      done;
      for _ = 1 to !applied do
        Delta.rollback d
      done;
      String.equal before (Delta.fingerprint d))

let prop_commit_then_validate =
  QCheck.Test.make ~count:20
    ~name:"accepted move sequences materialize into valid schedules"
    QCheck.(pair small_int (int_range 1 3))
    (fun (seed, job) ->
      let sched = seed_schedule (2000 + (13 * job)) ~tasks:(12 + (5 * job)) in
      let d = Delta.of_schedule ~config:(config ()) sched in
      let rng = Rng.create seed in
      for _ = 1 to 60 do
        match Delta.apply d (propose d rng) with
        | Some v ->
          (* keep only states the independent checker can accept: the
             kernel tolerates over-capacity region sets (flagged through
             [fp_feasible]), [Validate] rejects them *)
          if v.Delta.fp_feasible then Delta.commit d else Delta.rollback d
        | None -> ()
      done;
      match Validate.check (Delta.to_schedule d) with
      | Ok () -> true
      | Error vs ->
        QCheck.Test.fail_reportf "invalid after committed moves: %a"
          (Fmt.list Validate.pp_violation) vs)

(* --- Lns ----------------------------------------------------------- *)

let test_polish_deterministic_and_no_worse () =
  let sched = seed_schedule 5 ~tasks:25 in
  let run () =
    Lns.polish ~config:(config ()) ~seed:11 ~min_moves:400 ~budget_seconds:0.
      sched
  in
  let a = run () and b = run () in
  Alcotest.(check int) "deterministic makespan" a.Lns.makespan b.Lns.makespan;
  Alcotest.(check int) "deterministic acceptance count" a.Lns.stats.Lns.accepted
    b.Lns.stats.Lns.accepted;
  Alcotest.(check bool) "never worse than the seed" true
    (a.Lns.makespan <= Schedule.makespan sched);
  match a.Lns.schedule with
  | None -> Alcotest.fail "feasible seed lost its schedule"
  | Some s -> (
    Alcotest.(check int) "reported makespan is the schedule's" a.Lns.makespan
      (Schedule.makespan s);
    match Validate.check s with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "polished schedule invalid: %a"
        (Fmt.list Validate.pp_violation) vs)

let () =
  Alcotest.run "delta"
    [
      ( "kernel",
        [
          Alcotest.test_case "of_schedule roundtrip" `Quick
            test_of_schedule_roundtrip;
          Alcotest.test_case "of_schedule rejects a cyclic plan" `Quick
            test_of_schedule_rejects_cycle;
          QCheck_alcotest.to_alcotest prop_incremental_matches_oracle;
          QCheck_alcotest.to_alcotest prop_rollback_restores;
          QCheck_alcotest.to_alcotest prop_commit_then_validate;
        ] );
      ( "lns",
        [
          Alcotest.test_case "polish deterministic, never worse" `Quick
            test_polish_deterministic_and_no_worse;
        ] );
    ]
