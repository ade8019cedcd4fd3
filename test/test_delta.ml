(* Tests for the delta-evaluation move kernel ([Delta]) and the
   annealing driver ([Lns]) on top of it: oracle bit-identity of the
   incremental evaluator, LIFO rollback restoring states bit-identically
   (the undo-log property), materialized schedules passing the
   independent checker, and the reproducible-polish contract. *)

module Rng = Resched_util.Rng
module Suite = Resched_platform.Suite
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
  Alcotest.(check bool) "times agree with the oracle" true (Delta.verify d);
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
    (Schedule.makespan back)

(* --- incremental = oracle ---------------------------------------- *)

let test_incremental_matches_oracle () =
  let sched = seed_schedule 7 ~tasks:24 in
  let rng = Rng.create 99 in
  let d = Delta.of_schedule ~config:(config ()) sched in
  let o = Delta.of_schedule ~config:(config ()) sched in
  let applied = ref 0 in
  for _ = 1 to 300 do
    let mv = propose d rng in
    let vd = Delta.apply ~incremental:true d mv in
    let vo = Delta.apply ~incremental:false o mv in
    (match (vd, vo) with
    | Some a, Some b ->
      incr applied;
      Alcotest.(check int) "same makespan" b.Delta.makespan a.Delta.makespan;
      Alcotest.(check bool) "incremental state passes the oracle check" true
        (Delta.verify d);
      Alcotest.(check string) "bit-identical states" (Delta.fingerprint o)
        (Delta.fingerprint d);
      Delta.commit d;
      Delta.commit o
    | None, None -> ()
    | Some _, None -> Alcotest.fail "incremental accepted, oracle rejected"
    | None, Some _ -> Alcotest.fail "oracle accepted, incremental rejected")
  done;
  Alcotest.(check bool) "some moves actually applied" true (!applied > 10)

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
          Alcotest.test_case "incremental = oracle over random moves" `Quick
            test_incremental_matches_oracle;
          QCheck_alcotest.to_alcotest prop_rollback_restores;
          QCheck_alcotest.to_alcotest prop_commit_then_validate;
        ] );
      ( "lns",
        [
          Alcotest.test_case "polish deterministic, never worse" `Quick
            test_polish_deterministic_and_no_worse;
        ] );
    ]
