(* Tests for the IS-k baseline and the HEFT-style list scheduler. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Graph = Resched_taskgraph.Graph
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Partial = Resched_baseline.Partial
module Chunk_dfs = Resched_baseline.Chunk_dfs
module Isk = Resched_baseline.Isk
module List_sched = Resched_baseline.List_sched

let validate_or_fail sched =
  match Validate.check sched with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "invalid schedule: %s"
      (String.concat "; "
         (List.map (fun (v : Validate.violation) -> v.message) vs))

let small_instance ?(tasks = 12) seed =
  let rng = Rng.create seed in
  Suite.instance rng ~tasks

let test_partial_sw_only () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let impls =
    [| [| Impl.sw ~time:10 |]; [| Impl.sw ~time:20 |] |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let s = Partial.create inst in
  let s = Partial.apply s ~task:0 (Partial.Opt_sw { impl_idx = 0; proc = 0 }) in
  let s = Partial.apply s ~task:1 (Partial.Opt_sw { impl_idx = 0; proc = 0 }) in
  Alcotest.(check int) "makespan 30" 30 s.Partial.makespan;
  validate_or_fail (Partial.to_schedule s)

let test_partial_reconf_on_shared_region () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    [|
      [| Impl.sw ~time:1000; Impl.hw ~time:50 ~res () |];
      [| Impl.sw ~time:1000; Impl.hw ~time:60 ~res () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let s = Partial.create inst in
  let s = Partial.apply s ~task:0 (Partial.Opt_new { impl_idx = 1 }) in
  let rid = (List.hd s.Partial.regions).Partial.rid in
  let s = Partial.apply s ~task:1 (Partial.Opt_existing { impl_idx = 1; rid }) in
  let sched = Partial.to_schedule s in
  validate_or_fail sched;
  Alcotest.(check int) "one reconfiguration" 1
    (List.length sched.Schedule.reconfigurations);
  (* Reconfiguration time for 100 CLB at 3200 bits/us:
     ceil(100 * 36*3232/50 / 3200) = ceil(72.72) = 73. *)
  let rc = List.hd sched.Schedule.reconfigurations in
  Alcotest.(check int) "reconf duration" 73
    (rc.Schedule.r_end - rc.Schedule.r_start);
  Alcotest.(check int) "makespan includes reconf" (50 + 73 + 60)
    sched.Schedule.makespan

let test_partial_module_reuse_skips_reconf () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    [|
      [| Impl.sw ~time:1000; Impl.hw ~module_id:7 ~time:50 ~res () |];
      [| Impl.sw ~time:1000; Impl.hw ~module_id:7 ~time:60 ~res () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let s = Partial.create ~module_reuse:true inst in
  let s = Partial.apply s ~task:0 (Partial.Opt_new { impl_idx = 1 }) in
  let rid = (List.hd s.Partial.regions).Partial.rid in
  let s = Partial.apply s ~task:1 (Partial.Opt_existing { impl_idx = 1; rid }) in
  let sched = Partial.to_schedule s in
  validate_or_fail sched;
  Alcotest.(check int) "no reconfiguration" 0
    (List.length sched.Schedule.reconfigurations);
  Alcotest.(check int) "makespan without reconf" 110 sched.Schedule.makespan

let test_partial_prefetch () =
  (* Two independent tasks on two regions; the second region's
     reconfiguration... actually: t0 long on cpu, t1 short HW depending on
     t0; reconfiguration of the region hosting an earlier task must be
     able to start before t1's input is ready. *)
  let graph = Graph.create 3 in
  Graph.add_edge graph 0 2;
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    [|
      [| Impl.sw ~time:500 |];
      [| Impl.sw ~time:1000; Impl.hw ~time:50 ~res () |];
      [| Impl.sw ~time:1000; Impl.hw ~time:60 ~res () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let s = Partial.create inst in
  let s = Partial.apply s ~task:0 (Partial.Opt_sw { impl_idx = 0; proc = 0 }) in
  let s = Partial.apply s ~task:1 (Partial.Opt_new { impl_idx = 1 }) in
  let rid = (List.hd s.Partial.regions).Partial.rid in
  let s = Partial.apply s ~task:2 (Partial.Opt_existing { impl_idx = 1; rid }) in
  let sched = Partial.to_schedule s in
  validate_or_fail sched;
  (* t1 ends at 50; reconf runs 50..123, well before t0 ends at 500; so
     t2 starts exactly when its dependency completes. *)
  Alcotest.(check int) "t2 starts at dep completion" 500
    sched.Schedule.slots.(2).Schedule.start_;
  let rc = List.hd sched.Schedule.reconfigurations in
  Alcotest.(check int) "prefetched reconf start" 50 rc.Schedule.r_start

let test_chunk_dfs_beats_greedy_order () =
  (* IS-1 commits task 0 to its locally-best option; chunked together
     (k=2) the solver may pick a better joint assignment. At minimum the
     k=2 result can never be worse. *)
  let inst = small_instance 3 in
  let sched1, _ = Isk.schedule_once ~config:(Isk.config ~k:1) inst in
  let sched2, _ = Isk.schedule_once ~config:(Isk.config ~k:2) inst in
  validate_or_fail sched1;
  validate_or_fail sched2;
  Alcotest.(check bool) "both positive" true
    (sched1.Schedule.makespan > 0 && sched2.Schedule.makespan > 0)

let test_isk_valid_on_suite () =
  List.iter
    (fun (seed, tasks, k) ->
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks in
      let config = { (Isk.config ~k) with Isk.chunk_node_limit = 20_000 } in
      let sched, stats = Isk.run ~config inst in
      validate_or_fail sched;
      Alcotest.(check bool) "did some chunks" true (stats.Isk.chunks > 0))
    [ (1, 10, 1); (2, 15, 2); (3, 12, 3); (4, 20, 5) ]

let test_isk_floorplan_attached () =
  let inst = small_instance ~tasks:15 42 in
  let sched, _ = Isk.run ~config:(Isk.config ~k:1) inst in
  match sched.Schedule.floorplan with
  | None -> Alcotest.fail "IS-k must attach a floorplan"
  | Some _ -> ()

let test_list_sched_valid () =
  List.iter
    (fun seed ->
      let inst = small_instance ~tasks:18 seed in
      let sched = List_sched.run inst in
      validate_or_fail sched)
    [ 5; 6; 7 ]

module Fp_cache = Resched_floorplan.Fp_cache

(* A shared floorplan cache must not change either scheduler's output,
   and both must report the cache activity of their own run. Besides the
   first instance, each case runs the 12-task seed-37 instance on which
   PA's result once depended on the cache, and one on which this
   scheduler's did (the packer's budgeted search answers one of its
   region sets differently in region order and in canonical order). *)
let test_isk_cache_threading () =
  List.iter
    (fun (seed, tasks) ->
      let inst = small_instance ~tasks seed in
      let plain, _ = Isk.run ~config:(Isk.config ~k:1) inst in
      let config =
        {
          (Isk.config ~k:1) with
          Isk.floorplan_cache = Some (Fp_cache.create ());
        }
      in
      let cached, _ = Isk.run ~config inst in
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d tasks: same makespan" seed tasks)
        plain.Schedule.makespan cached.Schedule.makespan)
    [ (37, 12); (4, 12) ];
  let inst = small_instance ~tasks:15 42 in
  let cache = Fp_cache.create () in
  let sched_plain, _ = Isk.run ~config:(Isk.config ~k:1) inst in
  let config = { (Isk.config ~k:1) with Isk.floorplan_cache = Some cache } in
  let sched_cached, stats = Isk.run ~config inst in
  Alcotest.(check int) "same makespan" sched_plain.Schedule.makespan
    sched_cached.Schedule.makespan;
  (match stats.Isk.cache_stats with
  | None -> Alcotest.fail "cached run must report cache stats"
  | Some st ->
    Alcotest.(check bool) "cache consulted" true
      (Fp_cache.lookups st > 0));
  (* A second identical run resolves its checks from the shared cache. *)
  let _, stats2 = Isk.run ~config inst in
  match stats2.Isk.cache_stats with
  | None -> Alcotest.fail "cached run must report cache stats"
  | Some st ->
    Alcotest.(check int) "replay is all hits" 0 st.Fp_cache.misses

let test_list_sched_cache_threading () =
  List.iter
    (fun (seed, tasks) ->
      let inst = small_instance ~tasks seed in
      Alcotest.(check int)
        (Printf.sprintf "seed %d, %d tasks: same makespan" seed tasks)
        (List_sched.run inst).Schedule.makespan
        (List_sched.run ~cache:(Fp_cache.create ()) inst).Schedule.makespan)
    [ (37, 12); (49, 12) ];
  let inst = small_instance ~tasks:18 5 in
  let cache = Fp_cache.create () in
  let plain = List_sched.run inst in
  let cached, stats = List_sched.run_with_stats ~cache inst in
  validate_or_fail cached;
  Alcotest.(check int) "same makespan" plain.Schedule.makespan
    cached.Schedule.makespan;
  (match stats with
  | None -> Alcotest.fail "cached run must report cache stats"
  | Some st ->
    Alcotest.(check bool) "cache consulted" true
      (Fp_cache.lookups st > 0));
  match List_sched.run_with_stats ~cache inst with
  | _, Some st -> Alcotest.(check int) "replay is all hits" 0 st.Fp_cache.misses
  | _, None -> Alcotest.fail "cached run must report cache stats"

let test_upward_ranks_monotone () =
  let inst = small_instance 9 in
  let ranks = List_sched.upward_ranks inst in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d > rank %d along edge" u v)
        true
        (ranks.(u) > ranks.(v)))
    (Graph.edges inst.Instance.graph)

module Optimal = Resched_baseline.Optimal
module Pa = Resched_core.Pa

let tiny_instance seed tasks =
  let rng = Rng.create seed in
  (* Shrink areas/time ranges so tiny instances still exercise region
     sharing on the small fabric. *)
  let params =
    { Suite.default_params with
      Suite.clb_min = 100;
      clb_max = 260;
      p_bram_heavy = 0.;
      p_dsp_heavy = 0.;
      width_of_tasks = (fun _ -> 2) }
  in
  Suite.instance ~params ~arch:Arch.mini rng ~tasks

let test_optimal_validates_and_bounds () =
  List.iter
    (fun (seed, tasks) ->
      let inst = tiny_instance seed tasks in
      let r = Optimal.schedule ~node_limit:2_000_000 inst in
      validate_or_fail r.Optimal.schedule;
      Alcotest.(check bool) "above CPM bound" true
        (Schedule.makespan r.Optimal.schedule >= Optimal.lower_bound inst))
    [ (1, 4); (2, 5); (3, 6) ]

let test_heuristics_never_beat_optimal () =
  (* The exact search shares PA's scheduling model, so no heuristic can
     beat a proved-optimal result. *)
  List.iter
    (fun (seed, tasks) ->
      let inst = tiny_instance seed tasks in
      let r = Optimal.schedule ~node_limit:4_000_000 inst in
      if r.Optimal.proved_optimal then begin
        let opt = Schedule.makespan r.Optimal.schedule in
        let pa, _ = Pa.run inst in
        let is1, _ = Isk.run ~config:(Isk.config ~k:1) inst in
        let heft = List_sched.run inst in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: PA >= OPT" seed)
          true
          (Schedule.makespan pa >= opt);
        Alcotest.(check bool) "IS-1 >= OPT" true (Schedule.makespan is1 >= opt);
        Alcotest.(check bool) "HEFT >= OPT" true (Schedule.makespan heft >= opt)
      end)
    [ (4, 5); (5, 5); (6, 6); (7, 6) ]

let test_isk_full_chunk_equals_optimal () =
  (* IS-k with k >= n is the exact search itself. *)
  let inst = tiny_instance 8 5 in
  let r = Optimal.schedule inst in
  let config = { (Isk.config ~k:5) with Isk.chunk_node_limit = 5_000_000;
                 Isk.module_reuse = false } in
  let sched, _ = Isk.schedule_once ~config inst in
  Alcotest.(check bool) "proved" true r.Optimal.proved_optimal;
  Alcotest.(check int) "same makespan"
    (Schedule.makespan r.Optimal.schedule)
    (Schedule.makespan sched)

module Ilp_exact = Resched_baseline.Ilp_exact

let test_ilp_matches_optimal () =
  (* The monolithic ILP shares the repository's scheduling semantics, so
     on instances where it proves optimality it must agree exactly with
     the exhaustive search. *)
  List.iter
    (fun (seed, tasks) ->
      let inst = tiny_instance seed tasks in
      match Ilp_exact.solve ~node_limit:50_000 ~time_limit:20. inst with
      | None -> Alcotest.failf "ILP found nothing on seed %d" seed
      | Some r ->
        validate_or_fail r.Ilp_exact.schedule;
        if r.Ilp_exact.proved_optimal then begin
          let opt = Optimal.schedule inst in
          Alcotest.(check int)
            (Printf.sprintf "seed %d: ILP = exhaustive optimum" seed)
            (Schedule.makespan opt.Optimal.schedule)
            (Schedule.makespan r.Ilp_exact.schedule)
        end)
    [ (1, 2); (2, 2); (1, 3); (2, 3); (3, 3); (1, 4); (2, 4) ]

let test_ilp_model_grows () =
  let v2, c2 = Ilp_exact.model_size (tiny_instance 1 2) in
  let v5, c5 = Ilp_exact.model_size (tiny_instance 1 5) in
  Alcotest.(check bool) "variables grow" true (v5 > v2);
  Alcotest.(check bool) "constraints grow superlinearly" true
    (c5 > 3 * c2)

let test_ilp_time_limit_respected () =
  let inst = tiny_instance 1 6 in
  let t0 = Unix.gettimeofday () in
  let _ = Ilp_exact.solve ~node_limit:1_000_000 ~time_limit:1.0 inst in
  let dt = Unix.gettimeofday () -. t0 in
  (* Generous slack: the limit is only checked between branch-and-bound
     nodes, and a single node is one LP solve. *)
  Alcotest.(check bool) "returns within ~20x the limit" true (dt < 20.)

(* Property: IS-k schedules validate for random instances and any small
   k; module reuse on and off. *)
let prop_isk_valid =
  QCheck.Test.make ~count:20 ~name:"IS-k schedules always validate"
    QCheck.(triple int (int_range 5 22) (int_range 1 4))
    (fun (seed, tasks, k) ->
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks in
      let config =
        { (Isk.config ~k) with Isk.chunk_node_limit = 10_000 }
      in
      let sched, _ = Isk.run ~config inst in
      let sched_no_reuse, _ =
        Isk.run ~config:{ config with Isk.module_reuse = false } inst
      in
      Validate.check sched = Ok () && Validate.check sched_no_reuse = Ok ())

let prop_list_sched_valid =
  QCheck.Test.make ~count:20 ~name:"list scheduler always validates"
    QCheck.(pair int (int_range 5 30))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0xABC) in
      let inst = Suite.instance rng ~tasks in
      Validate.check (List_sched.run inst) = Ok ())

let () =
  Alcotest.run "baseline"
    [
      ( "partial",
        [
          Alcotest.test_case "software chain" `Quick test_partial_sw_only;
          Alcotest.test_case "reconfiguration on shared region" `Quick
            test_partial_reconf_on_shared_region;
          Alcotest.test_case "module reuse skips reconfiguration" `Quick
            test_partial_module_reuse_skips_reconf;
          Alcotest.test_case "reconfiguration prefetch" `Quick
            test_partial_prefetch;
        ] );
      ( "isk",
        [
          Alcotest.test_case "k=2 joint decision" `Quick
            test_chunk_dfs_beats_greedy_order;
          Alcotest.test_case "valid on suite instances" `Quick
            test_isk_valid_on_suite;
          Alcotest.test_case "floorplan attached" `Quick
            test_isk_floorplan_attached;
          Alcotest.test_case "shared floorplan cache" `Quick
            test_isk_cache_threading;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "validates and bounds" `Quick
            test_optimal_validates_and_bounds;
          Alcotest.test_case "heuristics never beat optimal" `Quick
            test_heuristics_never_beat_optimal;
          Alcotest.test_case "IS-n equals optimal" `Quick
            test_isk_full_chunk_equals_optimal;
        ] );
      ( "ilp-exact",
        [
          Alcotest.test_case "matches exhaustive optimum" `Slow
            test_ilp_matches_optimal;
          Alcotest.test_case "model size grows" `Quick test_ilp_model_grows;
          Alcotest.test_case "time limit respected" `Slow
            test_ilp_time_limit_respected;
        ] );
      ( "list-sched",
        [
          Alcotest.test_case "valid schedules" `Quick test_list_sched_valid;
          Alcotest.test_case "shared floorplan cache" `Quick
            test_list_sched_cache_threading;
          Alcotest.test_case "upward ranks decrease along edges" `Quick
            test_upward_ranks_monotone;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_isk_valid;
          QCheck_alcotest.to_alcotest prop_list_sched_valid;
        ] );
    ]
