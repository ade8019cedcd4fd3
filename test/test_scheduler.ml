(* End-to-end and per-step tests for the PA / PA-R schedulers. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Graph = Resched_taskgraph.Graph
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Impl_select = Resched_core.Impl_select
module Cost = Resched_core.Cost
module State = Resched_core.State
module Regions_define = Resched_core.Regions_define
module Sw_balance = Resched_core.Sw_balance
module Metrics = Resched_core.Metrics
module Isk = Resched_baseline.Isk
module List_sched = Resched_baseline.List_sched

let validate_or_fail sched =
  match Validate.check sched with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "invalid schedule: %s"
      (String.concat "; "
         (List.map (fun (v : Validate.violation) -> v.message) vs))

(* A small hand-built instance mirroring Fig. 1: t1 with a fast/large and
   a slow/small implementation, t2 and t3 with one implementation each,
   dependencies t1 -> t3 (and t2 independent). *)
let fig1_like_instance ?(arch = Arch.mini) () =
  let graph = Graph.create 3 in
  Graph.add_edge graph 0 2;
  let big = Resource.make ~clb:500 ~bram:10 ~dsp:10 in
  let small = Resource.make ~clb:150 ~bram:2 ~dsp:2 in
  let impls =
    [|
      [|
        Impl.sw ~time:5000;
        Impl.hw ~time:200 ~res:big ();
        Impl.hw ~time:420 ~res:small ();
      |];
      [| Impl.sw ~time:4000; Impl.hw ~time:300 ~res:small () |];
      [| Impl.sw ~time:4500; Impl.hw ~time:350 ~res:small () |];
    |]
  in
  Instance.make ~arch ~graph ~impls ()

let test_impl_select_prefers_cheap_hw () =
  let inst = fig1_like_instance () in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res Arch.mini) in
  (* All hardware implementations beat software times by far. *)
  Array.iteri
    (fun task idx ->
      let i = Instance.impl inst ~task ~idx in
      Alcotest.(check bool)
        (Printf.sprintf "task %d selects hardware" task)
        true (Impl.is_hw i))
    impl_of

let test_efficiency_orders_small_impls_higher () =
  let inst = fig1_like_instance () in
  let cost = Cost.make inst ~max_res:(Arch.max_res Arch.mini) in
  let big = Instance.impl inst ~task:0 ~idx:1 in
  let small = Instance.impl inst ~task:0 ~idx:2 in
  Alcotest.(check bool)
    "small/slow implementation has higher efficiency index" true
    (Cost.efficiency cost small > Cost.efficiency cost big)

let test_pa_on_fig1_like () =
  let inst = fig1_like_instance () in
  let sched, stats = Pa.run inst in
  validate_or_fail sched;
  Alcotest.(check bool) "at least one attempt" true (stats.Pa.attempts >= 1);
  Alcotest.(check bool)
    "beats the all-software schedule" true
    (Schedule.makespan sched
    < Schedule.makespan (Pa.all_software_schedule inst))

let test_all_software_schedule_valid () =
  let rng = Rng.create 7 in
  let inst = Suite.instance rng ~tasks:25 in
  let sched = Pa.all_software_schedule inst in
  validate_or_fail sched;
  Alcotest.(check int) "no region" 0 (Array.length sched.Schedule.regions);
  Alcotest.(check int) "no hw task" 0 (Schedule.hw_task_count sched)

let test_pa_on_suite_instances () =
  List.iter
    (fun tasks ->
      let rng = Rng.create (1000 + tasks) in
      let inst = Suite.instance rng ~tasks in
      let sched, _ = Pa.run inst in
      validate_or_fail sched;
      let m = Metrics.compute sched in
      Alcotest.(check bool)
        (Printf.sprintf "%d tasks: makespan >= CPM lower bound" tasks)
        true
        (m.Metrics.makespan >= m.Metrics.critical_path_lower_bound))
    [ 10; 20; 40 ]

let test_pa_respects_floorplan () =
  let rng = Rng.create 99 in
  let inst = Suite.instance rng ~tasks:30 in
  let sched, _ = Pa.run inst in
  match sched.Schedule.floorplan with
  | None -> Alcotest.fail "PA.run must attach a floorplan"
  | Some placements ->
    Alcotest.(check int) "one placement per region"
      (Array.length sched.Schedule.regions)
      (Array.length placements)

let test_par_improves_or_matches_pa () =
  let rng = Rng.create 5 in
  let inst = Suite.instance rng ~tasks:30 in
  let pa_sched, _ = Pa.run inst in
  let outcome = Pa_random.run ~seed:11 ~budget_seconds:0.5 inst in
  match outcome.Pa_random.schedule with
  | None -> Alcotest.fail "PA-R found no feasible schedule"
  | Some sched ->
    validate_or_fail sched;
    Alcotest.(check bool) "ran several iterations" true
      (outcome.Pa_random.iterations > 1);
    (* Not guaranteed to beat PA, but must be in a sane range. *)
    Alcotest.(check bool) "within 3x of PA" true
      (Schedule.makespan sched < 3 * Schedule.makespan pa_sched)

let test_par_trace_monotone () =
  let rng = Rng.create 21 in
  let inst = Suite.instance rng ~tasks:20 in
  let outcome = Pa_random.run ~seed:3 ~budget_seconds:0.3 inst in
  let rec decreasing = function
    | (a : Pa_random.trace_point) :: (b : Pa_random.trace_point) :: tl ->
      a.Pa_random.makespan > b.Pa_random.makespan && decreasing (b :: tl)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "trace strictly improves" true
    (decreasing outcome.Pa_random.trace)

let test_module_reuse_never_worse () =
  (* With module reuse on, consecutive same-module tasks skip their
     reconfiguration; the schedule must stay valid. *)
  let rng = Rng.create 31 in
  let inst = Suite.instance rng ~tasks:30 in
  let config = { Pa.default_config with Pa.module_reuse = true } in
  let sched, _ = Pa.run ~config inst in
  validate_or_fail sched

let test_chain_graph () =
  (* A pure pipeline: no HW parallelism available; PA must still emit a
     valid schedule (the paper notes chains are its worst case). *)
  let graph = Resched_taskgraph.Generator.chain 8 in
  let rng = Rng.create 17 in
  let mk _ =
    let t = 100 + Rng.int rng 400 in
    [|
      Impl.sw ~time:(8 * t);
      Impl.hw ~time:t ~res:(Resource.make ~clb:(100 + Rng.int rng 200) ~bram:1 ~dsp:0) ();
    |]
  in
  let impls = Array.init 8 mk in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let sched, _ = Pa.run inst in
  validate_or_fail sched

let test_independent_tasks () =
  let graph = Resched_taskgraph.Generator.independent 6 in
  let impls =
    Array.init 6 (fun i ->
        [|
          Impl.sw ~time:2000;
          Impl.hw ~time:(200 + (10 * i))
            ~res:(Resource.make ~clb:120 ~bram:1 ~dsp:1) ();
        |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let sched, _ = Pa.run inst in
  validate_or_fail sched

let test_sw_only_instance () =
  (* No hardware implementation anywhere: PA degenerates to SW mapping. *)
  let graph = Resched_taskgraph.Generator.chain 4 in
  let impls = Array.init 4 (fun _ -> [| Impl.sw ~time:50 |]) in
  let inst = Instance.make ~arch:Arch.zedboard ~graph ~impls () in
  let sched, _ = Pa.run inst in
  validate_or_fail sched;
  Alcotest.(check int) "chain of 4 x 50" 200 (Schedule.makespan sched)

let test_region_compatibility_predicates () =
  (* Two independent HW tasks; a region hosting one accepts the other
     only when the reconfiguration fits between their windows. *)
  let graph = Graph.create 2 in
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 2 (fun _ -> [| Impl.sw ~time:9000; Impl.hw ~time:50 ~res () |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let state = State.create inst ~impl_of:[| 1; 1 |] () in
  let region = State.new_region state res in
  State.assign_to_region state ~task:0 region;
  (* Windows of independent equal tasks overlap: no critical (or
     non-critical) sharing possible. *)
  Alcotest.(check bool) "critical: overlapping windows rejected" false
    (Regions_define.region_compatible_critical ~module_reuse:false state
       ~task:1 region);
  Alcotest.(check bool) "non-critical: overlapping windows rejected" false
    (Regions_define.region_compatible_non_critical state ~task:1 region)

let test_region_compatibility_with_gap () =
  (* A dependency chain separates the windows; the reconfiguration (73
     ticks for 100 CLB) must fit in the inter-window gap. *)
  let mk gap_filler =
    let graph = Graph.create 3 in
    Graph.add_edge graph 0 1;
    Graph.add_edge graph 1 2;
    let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
    let impls =
      [|
        [| Impl.sw ~time:9000; Impl.hw ~time:50 ~res () |];
        [| Impl.sw ~time:gap_filler |];
        [| Impl.sw ~time:9000; Impl.hw ~time:50 ~res () |];
      |]
    in
    let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
    let state = State.create inst ~impl_of:[| 1; 0; 1 |] () in
    let region = State.new_region state res in
    State.assign_to_region state ~task:0 region;
    (state, region)
  in
  (* Middle software task of 100 ticks: gap 100 >= 73 -> compatible. *)
  let state, region = mk 100 in
  Alcotest.(check bool) "wide gap accepted" true
    (Regions_define.region_compatible_critical ~module_reuse:false state
       ~task:2 region);
  (* Middle software task of 20 ticks: gap 20 < 73 -> rejected for a
     critical task, but fine for the non-critical rule (no reconf check). *)
  let state, region = mk 20 in
  Alcotest.(check bool) "narrow gap rejected (critical)" false
    (Regions_define.region_compatible_critical ~module_reuse:false state
       ~task:2 region);
  Alcotest.(check bool) "narrow gap accepted (non-critical)" true
    (Regions_define.region_compatible_non_critical state ~task:2 region)

let test_tot_rec_time () =
  let inst = fig1_like_instance () in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res Arch.mini) in
  let state = State.create inst ~impl_of () in
  Alcotest.(check int) "no region yet" 0 (Sw_balance.tot_rec_time state);
  let region = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  State.assign_to_region state ~task:1 region;
  Alcotest.(check int) "single task region still 0" 0
    (Sw_balance.tot_rec_time state)

let trace_makespans (o : Pa_random.outcome) =
  List.map (fun (p : Pa_random.trace_point) -> p.Pa_random.makespan)
    o.Pa_random.trace

(* The instance on which [Pa.run]'s shrink loop once found a different
   schedule without a cache (makespan 10010) than with one (9943): the
   packer's budgeted search answers one of its region sets differently
   in region order and in canonical order. *)
let cache_sensitive_instance () = Suite.instance (Rng.create 37) ~tasks:12

let test_run_parallel_jobs1_matches_sequential () =
  (* With a zero budget and a fixed min_iterations both runs execute the
     exact same finite stream, so the outcomes must be identical; the
     cache only memoizes the deterministic check so it cannot change the
     result either. *)
  let makespan o =
    match o.Pa_random.schedule with
    | Some s -> Schedule.makespan s
    | None -> -1
  in
  List.iter
    (fun (what, inst) ->
      let seq =
        Pa_random.run ~seed:9 ~min_iterations:12 ~budget_seconds:0. inst
      in
      let par =
        Pa_random.run_parallel ~jobs:1 ~seed:9 ~min_iterations:12
          ~budget_seconds:0. inst
      in
      let cached =
        Pa_random.run ~seed:9 ~min_iterations:12
          ~cache:(Fp_cache.create ())
          ~budget_seconds:0. inst
      in
      let check_int name = Alcotest.(check int) (what ^ ": " ^ name) in
      check_int "same iteration count" seq.Pa_random.iterations
        par.Pa_random.iterations;
      check_int "same best makespan" (makespan seq) (makespan par);
      Alcotest.(check (list int)) (what ^ ": same trace")
        (trace_makespans seq) (trace_makespans par);
      check_int "cache does not change the result" (makespan seq)
        (makespan cached);
      Alcotest.(check (list int)) (what ^ ": cache does not change the trace")
        (trace_makespans seq) (trace_makespans cached);
      check_int "cache does not change PA"
        (Schedule.makespan (fst (Pa.run inst)))
        (Schedule.makespan (fst (Pa.run ~cache:(Fp_cache.create ()) inst))))
    [
      ("15 tasks", Suite.instance (Rng.create 8) ~tasks:15);
      ("12 tasks, seed 37", cache_sensitive_instance ());
    ]

let test_run_parallel_valid_schedule_and_trace () =
  let rng = Rng.create 13 in
  let inst = Suite.instance rng ~tasks:20 in
  let cache = Fp_cache.create () in
  let outcome =
    Pa_random.run_parallel ~jobs:3 ~seed:4 ~min_iterations:9 ~cache
      ~budget_seconds:0.2 inst
  in
  Alcotest.(check bool) "total min iterations honored" true
    (outcome.Pa_random.iterations >= 9);
  (match outcome.Pa_random.schedule with
  | None -> Alcotest.fail "parallel PA-R found no feasible schedule"
  | Some sched -> validate_or_fail sched);
  (* The merged trace must be globally ordered and strictly improving. *)
  let rec ordered = function
    | (a : Pa_random.trace_point) :: (b : Pa_random.trace_point) :: tl ->
      a.Pa_random.elapsed <= b.Pa_random.elapsed
      && a.Pa_random.makespan > b.Pa_random.makespan
      && ordered (b :: tl)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "merged trace ordered and improving" true
    (ordered outcome.Pa_random.trace);
  (* The best schedule's makespan is the trace's last point. *)
  match (outcome.Pa_random.schedule, List.rev outcome.Pa_random.trace) with
  | Some sched, last :: _ ->
    Alcotest.(check int) "trace ends at the best makespan"
      (Schedule.makespan sched) last.Pa_random.makespan
  | _ -> ()

let test_par_min_iterations () =
  (* Even a zero budget must run at least one iteration (and with the
     adaptive scale, usually find something feasible on retries). *)
  let rng = Rng.create 44 in
  let inst = Suite.instance rng ~tasks:12 in
  let outcome = Pa_random.run ~seed:5 ~min_iterations:8 ~budget_seconds:0. inst in
  Alcotest.(check bool) "at least 8 iterations" true
    (outcome.Pa_random.iterations >= 8)

let test_reconf_sched_sequences_all () =
  (* Step 7 must sequence exactly the region-internal reconfigurations
     and keep them disjoint on the controller (checked via validation of
     the final schedule, and structurally here). *)
  let rng = Rng.create 50 in
  let inst = Suite.instance rng ~tasks:25 in
  let impl_of =
    Resched_core.Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch)
  in
  let state = State.create inst ~impl_of () in
  Regions_define.run ~ordering:Regions_define.By_efficiency state;
  Resched_core.Sw_balance.run state;
  ignore (Resched_core.Sw_map.run state ~bound:max_int : bool);
  let open Resched_core.Reconf_sched in
  let plan = run_hot (make_arena ()) state in
  let specs = plan.p_specs in
  let sequence = Array.to_list (Array.sub plan.p_seq 0 plan.p_len) in
  Alcotest.(check int) "sequence covers every reconfiguration"
    (Array.length specs) (List.length sequence);
  let sorted = List.sort compare sequence in
  Alcotest.(check (list int)) "sequence is a permutation"
    (List.init (Array.length specs) (fun i -> i))
    sorted;
  (* Dependency-forced orderings are respected. *)
  let pos = Array.make (Array.length specs) 0 in
  List.iteri (fun p k -> pos.(k) <- p) sequence;
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i <> j && Pa_oracle.must_precede state si sj then
            Alcotest.(check bool)
              (Printf.sprintf "reconf %d before %d" i j)
              true
              (pos.(i) < pos.(j)))
        specs)
    specs

(* Property: PA output on random suite instances always validates and
   never beats the CPM lower bound. *)
let prop_pa_valid =
  QCheck.Test.make ~count:25 ~name:"PA schedules always validate"
    QCheck.(pair int (int_range 5 35))
    (fun (seed, tasks) ->
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks in
      let sched, _ = Pa.run inst in
      match Validate.check sched with
      | Ok () ->
        let m = Metrics.compute sched in
        m.Metrics.makespan >= m.Metrics.critical_path_lower_bound
      | Error _ -> false)

let prop_schedule_once_valid_any_ordering =
  QCheck.Test.make ~count:25
    ~name:"schedule_once validates under every ordering policy"
    QCheck.(pair int (int_range 5 25))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 77) in
      let inst = Suite.instance rng ~tasks in
      List.for_all
        (fun ordering ->
          let config = { Pa.default_config with Pa.ordering } in
          let sched = Pa.schedule_once ~config inst in
          Validate.check sched = Ok ())
        [
          Regions_define.By_efficiency;
          Regions_define.By_cost;
          Regions_define.Topological;
          Regions_define.Random (Rng.create seed);
        ])

(* Property: a cached floorplan verdict agrees with a fresh
   [Floorplanner.check] on the same needs, on first use (miss) and on
   reuse (hit), and hit placements still validate in the caller's region
   order. *)
let prop_cache_matches_fresh_check =
  QCheck.Test.make ~count:50 ~name:"floorplan cache verdict = fresh check"
    QCheck.int
    (fun s ->
      let rng = Rng.create (s lxor 0x0F1C) in
      let device = Device.minifab in
      let count = 1 + Rng.int rng 4 in
      let needs =
        Array.init count (fun _ ->
            Resource.make
              ~clb:(20 + Rng.int rng 300)
              ~bram:(Rng.int rng 6) ~dsp:(Rng.int rng 6))
      in
      let cache = Fp_cache.create () in
      let fresh = Floorplanner.check device needs in
      let miss = Fp_cache.check cache device needs in
      let hit = Fp_cache.check cache device needs in
      let kind = function
        | Floorplanner.Feasible _ -> 0
        | Floorplanner.Infeasible -> 1
        | Floorplanner.Unknown -> 2
      in
      let placements_ok = function
        | Floorplanner.Feasible p ->
          Floorplanner.validate device ~needs p = Ok ()
        | Floorplanner.Infeasible | Floorplanner.Unknown -> true
      in
      let st = Fp_cache.stats cache in
      kind fresh.Floorplanner.verdict = kind miss.Floorplanner.verdict
      && kind miss.Floorplanner.verdict = kind hit.Floorplanner.verdict
      && placements_ok miss.Floorplanner.verdict
      && placements_ok hit.Floorplanner.verdict
      && st.Fp_cache.hits = 1 && st.Fp_cache.misses = 1
      && st.Fp_cache.l1_hits = 0)

(* Task counts from [lo] to 100 whose shrinks stay in that range
   ([QCheck.int_range] shrinks toward 0, and [Suite.instance] rejects a
   count below 1). *)
let tasks_from lo =
  QCheck.(set_shrink Shrink.(filter (fun n -> n >= lo) int) (int_range lo 100))

(* Everything observable about a schedule except the instance pointer:
   structural equality here is what "bit-identical" means below. *)
let schedule_fingerprint (s : Schedule.t) =
  ( s.Schedule.regions,
    s.Schedule.slots,
    s.Schedule.reconfigurations,
    s.Schedule.makespan,
    s.Schedule.resource_scale )

(* Task counts for the identity properties: small graphs, and the
   paper's larger ones. Windows that go wrong only in their tails show
   through step 7's critical flags, which small graphs rarely exercise. *)
let identity_tasks = QCheck.choose QCheck.[ int_range 5 30; int_range 40 100 ]

(* Both fabrics the identity properties draw from: the paper's XC7Z020
   suite, and a saturated XC7Z010 on which the shrink lattice engages. *)
let identity_instance ~saturated seed tasks =
  let rng = Rng.create seed in
  if saturated then
    let params =
      { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }
    in
    Suite.instance ~params ~arch:Arch.microzed rng ~tasks
  else Suite.instance rng ~tasks

(* The configuration of the [i]-th run of a draw: the four orderings in
   turn, with a random order seeded from the draw and [i], so two calls
   give the same configuration. *)
let nth_config ~seed ~module_reuse i =
  let ordering =
    match i mod 4 with
    | 0 -> Regions_define.By_efficiency
    | 1 -> Regions_define.By_cost
    | 2 -> Regions_define.Topological
    | _ -> Regions_define.Random (Rng.create (seed + i))
  in
  { Pa.ordering; module_reuse }

(* [Pa.run]'s shrink chain: the scales of its eight attempts. *)
let shrink_chain =
  let rec chain k scale =
    if k = 0 then [] else scale :: chain (k - 1) (scale *. Pa.shrink_factor)
  in
  chain Pa.max_attempts 1.0

(* Property: a floorplan cache changes how fast a schedule is found,
   never which one. Every scheduler checks its region sets through a
   cache (a private one when the caller passes none), so [Pa.run],
   [List_sched.run], IS-1 and PA-R at a fixed restart count return the
   same schedule, floorplan included, with and without a cache, on both
   fabrics. *)
let prop_cache_never_changes_schedule =
  QCheck.Test.make ~count:100 ~name:"a cache never changes a schedule"
    QCheck.(triple int (tasks_from 12) bool)
    (fun (seed, tasks, saturated) ->
      let inst = identity_instance ~saturated (seed lxor 0xcac4e) tasks in
      let same run =
        let key (s : Schedule.t) =
          (schedule_fingerprint s, s.Schedule.floorplan)
        in
        Option.map key (run None)
        = Option.map key (run (Some (Fp_cache.create ())))
      in
      same (fun cache -> Some (fst (Pa.run ?cache inst)))
      && same (fun cache -> Some (List_sched.run ?cache inst))
      && same (fun cache ->
             let config =
               { (Isk.config ~k:1) with Isk.floorplan_cache = cache }
             in
             Some (fst (Isk.run ~config inst)))
      && same (fun cache ->
             (Pa_random.run ?cache ~seed ~min_iterations:12
                ~budget_seconds:0. inst)
               .Pa_random.schedule))

(* Property: the restart kernel (context arena, incremental timing
   solver, marking-based mappings) produces bit-identical schedules to
   the from-scratch reference, across repeated arena reuse, the
   resource-scale lattice and [Pa.run]'s shrink chain, under every
   ordering, with and without module reuse, on both fabrics — and they
   validate. *)
let prop_incremental_engine_bit_identical =
  QCheck.Test.make ~count:15
    ~name:"incremental engine = from-scratch oracle (bit-identical)"
    QCheck.(quad int identity_tasks bool bool)
    (fun (seed, tasks, saturated, module_reuse) ->
      let inst = identity_instance ~saturated (seed lxor 0x5ca1e) tasks in
      let ctx = Pa.Context.create inst in
      let scales =
        [ 1.0; 0.9; 1.0; 0.81; 0.9 ] @ shrink_chain
        (* revisits exercise the per-scale memo and State.reset *)
      in
      List.for_all
        (fun (i, resource_scale) ->
          let config () = nth_config ~seed ~module_reuse i in
          let fast =
            Pa.schedule_once ~config:(config ()) ~resource_scale ~ctx inst
          in
          let oracle =
            Pa_oracle.schedule_once ~config:(config ()) ~resource_scale inst
          in
          schedule_fingerprint fast = schedule_fingerprint oracle
          && Validate.check fast = Ok ())
        (List.mapi (fun i s -> (i, s)) scales))

(* Property: [Pa.run] takes the reference shrink loop's attempts and
   returns its schedule, floorplan included, for PA and both
   deterministic ablations. *)
let prop_pa_run_equals_reference =
  QCheck.Test.make ~count:10 ~name:"Pa.run = reference shrink loop"
    QCheck.(quad int identity_tasks bool bool)
    (fun (seed, tasks, saturated, module_reuse) ->
      let inst = identity_instance ~saturated (seed lxor 0x5a1e) tasks in
      let ordering =
        match abs seed mod 3 with
        | 0 -> Regions_define.By_efficiency
        | 1 -> Regions_define.By_cost
        | _ -> Regions_define.Topological
      in
      let config = { Pa.ordering; module_reuse } in
      let sched, stats = Pa.run ~config inst in
      let ref_sched, ref_attempts = Pa_oracle.run ~config inst in
      schedule_fingerprint sched = schedule_fingerprint ref_sched
      && sched.Schedule.floorplan = ref_sched.Schedule.floorplan
      && stats.Pa.attempts = ref_attempts
      && Validate.check sched = Ok ())

(* Property: the randomized search's candidate stream matches the
   reference restart loop, which runs every restart to the end — same
   published schedule, floorplan included, same iteration count, same
   improvement trace at a fixed (seed, min_iterations, budget = 0), on
   both fabrics. A restart the incumbent bound stops too early, or
   wrongly, changes which candidates reach the floorplan check. Small
   graphs show that about three times as often as the paper's larger
   ones, at a tenth of the cost (a bound taken before step 4 changed
   the stream in 24 of 200 draws of 5-30 tasks and 4 of 110 of 40-100),
   so the property draws mostly small graphs. *)
let prop_par_stream_identical =
  QCheck.Test.make ~count:60
    ~name:"PA-R stream identical under incremental engine"
    QCheck.(
      triple int
        (frequency [ (4, int_range 5 30); (1, int_range 40 100) ])
        bool)
    (fun (seed, tasks, saturated) ->
      let inst = identity_instance ~saturated (seed lxor 0xbeef) tasks in
      let a =
        Pa_random.run ~seed ~min_iterations:40 ~budget_seconds:0. inst
      in
      let b = Pa_oracle.restart_loop ~seed ~min_iterations:40 inst in
      let published o =
        Option.map
          (fun s -> (schedule_fingerprint s, s.Schedule.floorplan))
          o.Pa_random.schedule
      in
      published a = published b
      && a.Pa_random.iterations = b.Pa_random.iterations
      && List.map (fun p -> (p.Pa_random.iteration, p.Pa_random.makespan))
           a.Pa_random.trace
         = List.map (fun p -> (p.Pa_random.iteration, p.Pa_random.makespan))
             b.Pa_random.trace)

(* Property: the incumbent bound's contract. [schedule_candidate ~bound]
   returns the unbounded candidate exactly when its makespan is below
   [bound], and [None] otherwise: at the makespan itself, one tick above
   it (where a bound tested one tick early stops the restart), below it,
   and at [max_int]; under every ordering, with and without module
   reuse, on both fabrics, across revisited scales. *)
let prop_candidate_bound_contract =
  QCheck.Test.make ~count:60
    ~name:"schedule_candidate ~bound = unbounded candidate iff below bound"
    QCheck.(quad int (tasks_from 10) bool bool)
    (fun (seed, tasks, saturated, module_reuse) ->
      let inst = identity_instance ~saturated (seed lxor 0xb0d) tasks in
      let ctx = Pa.Context.create inst in
      let rng = Rng.create seed in
      List.for_all
        (fun (i, resource_scale) ->
          let config () = nth_config ~seed ~module_reuse i in
          let full =
            Pa.schedule_once ~config:(config ()) ~resource_scale ~ctx inst
          in
          let ms = full.Schedule.makespan in
          List.for_all
            (fun bound ->
              match
                Pa.schedule_candidate ~config:(config ()) ~resource_scale
                  ~bound ~ctx inst
              with
              | Some c ->
                bound > ms
                && schedule_fingerprint (Pa.materialize c)
                   = schedule_fingerprint full
              | None -> bound <= ms)
            [ ms; ms + 1; Rng.int rng (Stdlib.max 1 ms); max_int ])
        (List.mapi (fun i s -> (i, s)) [ 1.0; 0.9; 1.0; 0.81; 0.9; 0.9 ]))

let () =
  Alcotest.run "scheduler"
    [
      ( "steps",
        [
          Alcotest.test_case "implementation selection" `Quick
            test_impl_select_prefers_cheap_hw;
          Alcotest.test_case "efficiency index ordering" `Quick
            test_efficiency_orders_small_impls_higher;
          Alcotest.test_case "totRecTime" `Quick test_tot_rec_time;
          Alcotest.test_case "region compatibility (overlap)" `Quick
            test_region_compatibility_predicates;
          Alcotest.test_case "region compatibility (reconf gap)" `Quick
            test_region_compatibility_with_gap;
        ] );
      ( "pa",
        [
          Alcotest.test_case "fig1-like instance" `Quick test_pa_on_fig1_like;
          Alcotest.test_case "all-software fallback" `Quick
            test_all_software_schedule_valid;
          Alcotest.test_case "suite instances" `Quick test_pa_on_suite_instances;
          Alcotest.test_case "floorplan attached" `Quick
            test_pa_respects_floorplan;
          Alcotest.test_case "chain topology" `Quick test_chain_graph;
          Alcotest.test_case "independent tasks" `Quick test_independent_tasks;
          Alcotest.test_case "software-only instance" `Quick
            test_sw_only_instance;
          Alcotest.test_case "module reuse" `Quick test_module_reuse_never_worse;
        ] );
      ( "pa-r",
        [
          Alcotest.test_case "sane result" `Quick test_par_improves_or_matches_pa;
          Alcotest.test_case "trace improves monotonically" `Quick
            test_par_trace_monotone;
          Alcotest.test_case "min iterations honored" `Quick
            test_par_min_iterations;
          Alcotest.test_case "run_parallel jobs=1 = sequential" `Quick
            test_run_parallel_jobs1_matches_sequential;
          Alcotest.test_case "run_parallel valid schedule and trace" `Quick
            test_run_parallel_valid_schedule_and_trace;
        ] );
      ( "reconf-sched",
        [
          Alcotest.test_case "sequences all reconfigurations" `Quick
            test_reconf_sched_sequences_all;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pa_valid;
          QCheck_alcotest.to_alcotest prop_schedule_once_valid_any_ordering;
          QCheck_alcotest.to_alcotest prop_cache_matches_fresh_check;
          QCheck_alcotest.to_alcotest prop_cache_never_changes_schedule;
          QCheck_alcotest.to_alcotest prop_incremental_engine_bit_identical;
          QCheck_alcotest.to_alcotest prop_pa_run_equals_reference;
          QCheck_alcotest.to_alcotest prop_par_stream_identical;
          QCheck_alcotest.to_alcotest prop_candidate_bound_contract;
        ] );
    ]
