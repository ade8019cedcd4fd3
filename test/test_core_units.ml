(* Unit tests for the core scheduler's support modules: the validator's
   violation detection (by corrupting known-good schedules), the timing
   solver against the from-scratch reference, reconfiguration
   sequencing, the working state, Gantt rendering and metrics. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Generator = Resched_taskgraph.Generator
module Impl = Resched_platform.Impl
module Arch = Resched_platform.Arch
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Pa = Resched_core.Pa
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module State = Resched_core.State
module Timing = Resched_core.Timing
module Gantt = Resched_core.Gantt
module Metrics = Resched_core.Metrics
module Impl_select = Resched_core.Impl_select
module Sw_map = Resched_core.Sw_map

let good_schedule () =
  let rng = Rng.create 2 in
  let inst = Suite.instance rng ~tasks:15 in
  let sched, _ = Pa.run inst in
  (match Validate.check sched with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fixture schedule must be valid");
  sched

let has_code code = List.exists (fun (v : Validate.violation) -> v.code = code)

let expect_violation code sched =
  match Validate.check sched with
  | Ok () -> Alcotest.failf "expected violation %s, got Ok" code
  | Error vs ->
    if not (has_code code vs) then
      Alcotest.failf "expected violation %s, got [%s]" code
        (String.concat "; "
           (List.map (fun (v : Validate.violation) -> v.code) vs))

let test_validate_detects_dep_violation () =
  let sched = good_schedule () in
  (* Pull some dependent task before its predecessor ends. *)
  let u, v =
    match Graph.edges sched.Schedule.instance.Instance.graph with
    | (u, v) :: _ -> (u, v)
    | [] -> Alcotest.fail "fixture has no edge"
  in
  ignore u;
  let slots = Array.copy sched.Schedule.slots in
  let s = slots.(v) in
  slots.(v) <-
    { s with Schedule.start_ = 0; end_ = s.Schedule.end_ - s.Schedule.start_ };
  expect_violation "DEP" { sched with Schedule.slots = slots }

let test_validate_detects_bad_makespan () =
  let sched = good_schedule () in
  expect_violation "SPAN" { sched with Schedule.makespan = 1 }

let test_validate_detects_slot_length_mismatch () =
  let sched = good_schedule () in
  let slots = Array.copy sched.Schedule.slots in
  let s = slots.(0) in
  slots.(0) <- { s with Schedule.end_ = s.Schedule.end_ + 1 };
  expect_violation "TIME" { sched with Schedule.slots = slots }

let test_validate_detects_missing_reconfiguration () =
  (* Find a schedule with at least one reconfiguration and drop it. *)
  let rec find seed =
    if seed > 40 then Alcotest.fail "no fixture with reconfigurations"
    else begin
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks:20 in
      let sched, _ = Pa.run inst in
      if sched.Schedule.reconfigurations <> [] && Validate.check sched = Ok ()
      then sched
      else find (seed + 1)
    end
  in
  let sched = find 1 in
  expect_violation "RECONF" { sched with Schedule.reconfigurations = [] }

let test_validate_detects_controller_overlap () =
  let rec find seed =
    if seed > 60 then Alcotest.fail "no fixture with two reconfigurations"
    else begin
      let rng = Rng.create seed in
      let inst = Suite.instance rng ~tasks:25 in
      let sched, _ = Pa.run inst in
      if List.length sched.Schedule.reconfigurations >= 2
         && Validate.check sched = Ok ()
      then sched
      else find (seed + 1)
    end
  in
  let sched = find 1 in
  (* Shift every reconfiguration to start at the same instant; keep each
     inside its region window by construction? Simply clone the first
     reconfiguration's slot onto the second: controller overlap. *)
  let rcs =
    match sched.Schedule.reconfigurations with
    | a :: b :: tl ->
      { b with Schedule.r_start = a.Schedule.r_start;
        r_end = a.Schedule.r_start + (b.Schedule.r_end - b.Schedule.r_start) }
      :: a :: tl
    | l -> l
  in
  expect_violation "CTRL" { sched with Schedule.reconfigurations = rcs }

let test_validate_detects_overcapacity () =
  let sched = good_schedule () in
  if Array.length sched.Schedule.regions = 0 then
    Alcotest.fail "fixture has no region"
  else begin
    let regions = Array.copy sched.Schedule.regions in
    let r = regions.(0) in
    regions.(0) <-
      { r with Schedule.res = Resource.make ~clb:1_000_000 ~bram:0 ~dsp:0 };
    expect_violation "CAP" { sched with Schedule.regions = regions }
  end

let test_validate_detects_bad_floorplan () =
  let sched = good_schedule () in
  match sched.Schedule.floorplan with
  | Some placements when Array.length placements >= 2 ->
    let p = Array.copy placements in
    p.(1) <- p.(0);
    expect_violation "PLAN" { sched with Schedule.floorplan = Some p }
  | _ -> Alcotest.fail "fixture has fewer than 2 placed regions"

(* An implementation index past either end of the task's list is an
   [IMPL] violation, not an exception, wherever the task is placed; the
   region checks that read implementations (capacity, module reuse) skip
   it. *)
let test_validate_impl_out_of_range () =
  let sched = good_schedule () in
  let first p =
    let i = ref (-1) in
    Array.iteri
      (fun u (s : Schedule.task_slot) ->
        if !i = -1 && p s.Schedule.placement then i := u)
      sched.Schedule.slots;
    if !i = -1 then Alcotest.fail "fixture lacks a placement kind";
    !i
  in
  let on_region = first (function Schedule.On_region _ -> true | _ -> false)
  and on_processor =
    first (function Schedule.On_processor _ -> true | _ -> false)
  in
  List.iter
    (fun (u, idx, module_reuse) ->
      let slots = Array.copy sched.Schedule.slots in
      slots.(u) <- { (slots.(u)) with Schedule.impl_idx = idx };
      expect_violation "IMPL"
        { sched with Schedule.slots = slots; module_reuse })
    [ (on_region, 7, false); (on_region, -1, false); (on_region, 7, true);
      (on_processor, 7, false); (on_processor, -1, false) ]

let test_validate_short_slot_array () =
  let sched = good_schedule () in
  let n = Array.length sched.Schedule.slots in
  expect_violation "STRUCT"
    { sched with Schedule.slots = Array.sub sched.Schedule.slots 0 (n - 1) }

let test_validate_detects_kind_mismatch () =
  let sched = good_schedule () in
  (* Find a HW task and claim it runs on a processor. *)
  let slots = Array.copy sched.Schedule.slots in
  let idx = ref (-1) in
  Array.iteri
    (fun i (s : Schedule.task_slot) ->
      match s.Schedule.placement with
      | Schedule.On_region _ when !idx = -1 -> idx := i
      | _ -> ())
    slots;
  if !idx = -1 then Alcotest.fail "fixture has no HW task"
  else begin
    let s = slots.(!idx) in
    slots.(!idx) <- { s with Schedule.placement = Schedule.On_processor 0 };
    expect_violation "KIND" { sched with Schedule.slots = slots }
  end

(* ---- timing resolver ---- *)

let two_region_state () =
  let graph = Graph.create 4 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:100 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 4 (fun i ->
        [| Impl.sw ~time:10_000; Impl.hw ~time:(100 + (10 * i)) ~res () |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let state = State.create inst ~impl_of:[| 1; 1; 1; 1 |] () in
  state

(* The step-7 timing solver over the state's current augmented graph. *)
let solver state specs =
  let s = Timing.Solver.scratch () in
  Timing.Solver.reload s ~graph:state.State.dep
    ~duration:(State.duration state) ~reconfigs:specs;
  s

(* A resolve of the controller chain [sequence]. *)
let resolve solver sequence =
  let sequence = Array.of_list sequence in
  Timing.Solver.resolve_array solver ~sequence ~len:(Array.length sequence)

let test_timing_resolve_respects_sequence () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  let r1 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  State.assign_to_region state ~task:0 r0;
  State.assign_to_region state ~task:1 r0;
  State.assign_to_region state ~task:2 r1;
  State.assign_to_region state ~task:3 r1;
  let specs = Timing.reconf_specs state in
  Alcotest.(check int) "two reconfigurations" 2 (Array.length specs);
  let solver = solver state specs in
  (* In both orders the controller is exclusive. *)
  List.iter
    (fun sequence ->
      let r = resolve solver sequence in
      let s0, e0 = (r.Timing.rec_start.(0), r.Timing.rec_end.(0)) in
      let s1, e1 = (r.Timing.rec_start.(1), r.Timing.rec_end.(1)) in
      Alcotest.(check bool) "no controller overlap" true (e0 <= s1 || e1 <= s0))
    [ [ 0; 1 ]; [ 1; 0 ] ]

let check_resolved name (a : Timing.resolved) (b : Timing.resolved) =
  Alcotest.(check (array int))
    (name ^ ": task_start")
    a.Timing.task_start b.Timing.task_start;
  Alcotest.(check (array int))
    (name ^ ": task_end")
    a.Timing.task_end b.Timing.task_end;
  Alcotest.(check (array int))
    (name ^ ": rec_start")
    a.Timing.rec_start b.Timing.rec_start;
  Alcotest.(check (array int))
    (name ^ ": rec_end")
    a.Timing.rec_end b.Timing.rec_end;
  Alcotest.(check int) (name ^ ": makespan") a.Timing.makespan b.Timing.makespan

let test_solver_matches_from_scratch_resolve () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  let r1 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  State.assign_to_region state ~task:0 r0;
  State.assign_to_region state ~task:1 r0;
  State.assign_to_region state ~task:2 r1;
  State.assign_to_region state ~task:3 r1;
  let specs = Timing.reconf_specs state in
  let solver = solver state specs in
  (* The solver's scratch arrays are rewound by every resolve: replaying
     a sequence after another one must reproduce the from-scratch answer
     bit for bit. *)
  List.iter
    (fun sequence ->
      let name =
        String.concat "," (List.map string_of_int sequence) |> ( ^ ) "seq "
      in
      check_resolved name
        (Pa_oracle.resolve state ~reconfigs:specs ~sequence)
        (resolve solver sequence))
    [ [ 0; 1 ]; [ 1; 0 ]; [ 0; 1 ] ]

let test_solver_matches_resolve_on_pipeline_state () =
  (* A state shaped by the real pipeline (region + processor ordering
     edges, software switches) instead of a hand-built fixture. *)
  let rng = Rng.create 50 in
  let inst = Suite.instance rng ~tasks:25 in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch) in
  let state = State.create inst ~impl_of () in
  Resched_core.Regions_define.run
    ~ordering:Resched_core.Regions_define.By_efficiency state;
  Resched_core.Sw_balance.run state;
  ignore (Sw_map.run state ~bound:max_int : bool);
  let open Resched_core.Reconf_sched in
  let plan = run_hot (make_arena ()) state in
  let specs = plan.p_specs in
  let sequence = Array.to_list (Array.sub plan.p_seq 0 plan.p_len) in
  let reference = Pa_oracle.resolve state ~reconfigs:specs ~sequence in
  check_resolved "pipeline sequence" reference
    (resolve (solver state specs) sequence);
  check_resolved "step-7 final times" reference plan.p_times

let test_timing_reuse_skips_pairs () =
  let graph = Graph.create 2 in
  Graph.add_edge graph 0 1;
  let res = Resource.make ~clb:80 ~bram:0 ~dsp:0 in
  let impls =
    Array.init 2 (fun _ ->
        [| Impl.sw ~time:9_000; Impl.hw ~module_id:3 ~time:100 ~res () |])
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let state = State.create inst ~impl_of:[| 1; 1 |] () in
  let r = State.new_region state res in
  State.assign_to_region state ~task:0 r;
  State.assign_to_region state ~task:1 r;
  Alcotest.(check int) "reconfiguration without reuse" 1
    (Array.length (Timing.reconf_specs state));
  Alcotest.(check int) "no reconfiguration with reuse" 0
    (Array.length (Timing.reconf_specs ~module_reuse:true state))

(* A finished plan over four independent tasks: region 0 runs 0 then 1
   behind a 5-tick reconfiguration, region 1 runs 2 then 3 with none
   (module reuse), so only a direct edge orders them. *)
let time_plan ?release ?(edges = []) ~reconfigs ~controller () =
  let graph = Graph.create 4 in
  List.iter (fun (u, v) -> Graph.add_edge graph u v) edges;
  Timing.time_plan ?release ~durations:[| 10; 20; 30; 40 |]
    ~region_chains:[| [ 0; 1 ]; [ 2; 3 ] |] ~processor_chains:[||]
    ~reconfigs ~controller graph

let reconf region t_in t_out =
  { Timing.region_id = region; t_in; t_out; dur = 5; critical = false }

let test_time_plan_chains () =
  let r = time_plan ~reconfigs:[| reconf 0 0 1 |] ~controller:[| 0 |] () in
  Alcotest.(check (array int)) "starts" [| 0; 15; 0; 30 |] r.Timing.task_start;
  Alcotest.(check int) "reconfiguration after its ingoing task" 10
    r.Timing.rec_start.(0);
  Alcotest.(check int) "makespan" 70 r.Timing.makespan;
  (* A release time holds its activity back and pushes its successors. *)
  let release = [| 0; 0; 7; 0; 12 |] in
  let r =
    time_plan ~release ~reconfigs:[| reconf 0 0 1 |] ~controller:[| 0 |] ()
  in
  Alcotest.(check (array int)) "released starts" [| 0; 17; 7; 37 |]
    r.Timing.task_start;
  Alcotest.(check int) "released reconfiguration" 12 r.Timing.rec_start.(0)

let test_time_plan_cycle () =
  (* With a data edge 1 -> 2, the load into 1 must precede the load into
     3 (behind 2): the reverse controller order closes a cycle. *)
  let reconfigs = [| reconf 0 0 1; reconf 1 2 3 |] in
  let r =
    time_plan ~edges:[ (1, 2) ] ~reconfigs ~controller:[| 0; 1 |] ()
  in
  Alcotest.(check int) "consistent order" 110 r.Timing.makespan;
  match time_plan ~edges:[ (1, 2) ] ~reconfigs ~controller:[| 1; 0 |] () with
  | _ -> Alcotest.fail "a controller order against the data edges timed"
  | exception Graph.Cycle _ -> ()

(* ---- state ---- *)

let test_state_switch_to_sw () =
  let state = two_region_state () in
  Alcotest.(check bool) "starts hw" true (State.is_hw state 0);
  State.switch_to_sw state ~task:0;
  Alcotest.(check bool) "now sw" false (State.is_hw state 0);
  Alcotest.(check int) "duration updated" 10_000 (State.duration state 0)

let test_state_region_accounting () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  Alcotest.(check bool) "fits second region" true
    (State.fits_on_fpga state (Resource.make ~clb:100 ~bram:0 ~dsp:0));
  Alcotest.(check bool) "does not fit oversized" false
    (State.fits_on_fpga state (Resource.make ~clb:10_000 ~bram:0 ~dsp:0));
  State.assign_to_region state ~task:2 r0;
  Alcotest.(check (list int)) "hosted" [ 2 ] r0.State.tasks;
  (* reconf time for 100 CLB at default ICAP: 73 ticks. *)
  Alcotest.(check int) "region reconf" 73 r0.State.reconf

let test_state_region_edges_ordered () =
  let state = two_region_state () in
  let r0 = State.new_region state (Resource.make ~clb:100 ~bram:0 ~dsp:0) in
  (* Tasks 2 and 3 are independent; assigning both to one region must
     insert an ordering edge. *)
  State.assign_to_region state ~task:2 r0;
  State.assign_to_region state ~task:3 r0;
  let dep = state.State.dep in
  Alcotest.(check bool) "ordering edge exists" true
    (Graph.has_edge dep 2 3 || Graph.has_edge dep 3 2)

(* ---- incremental windows and the step-7 splice ---- *)

(* A random instance over one of the generator's shapes, 2-100 tasks.
   Every task has a software implementation and up to three hardware
   ones, all with short durations, so equal starts, ties on the critical
   path and zero-slack chains are common. *)
let window_instance rng =
  let tasks = 2 + Rng.int rng 99 in
  let graph =
    match Rng.int rng 5 with
    | 0 ->
      Generator.layered rng ~tasks ~width:(2 + (tasks / 12))
        ~edge_probability:0.07
    | 1 -> Generator.series_parallel rng ~tasks
    | 2 -> Generator.chain tasks
    | 3 -> Generator.independent tasks
    | _ ->
      let branches = 1 + Rng.int rng 4 in
      let depth = Stdlib.max 1 ((tasks - 2) / branches) in
      Generator.fork_join ~branches ~depth
  in
  let res = Resource.make ~clb:50 ~bram:0 ~dsp:0 in
  let impls =
    Array.init (Graph.size graph) (fun _ ->
        Array.init (1 + Rng.int rng 4) (fun j ->
            let time = 1 + Rng.int rng 12 in
            if j = 0 then Impl.sw ~time else Impl.hw ~time ~res ()))
  in
  Instance.make ~arch:Arch.mini ~graph ~impls ()

(* The state's windows against a from-scratch CPM of its current graph
   and implementations. *)
let windows_match state =
  let n = Instance.size state.State.inst in
  let durations = Array.init n (fun u -> (State.impl state u).Impl.time) in
  let cpm = Cpm.compute state.State.dep ~durations in
  let ok = ref (State.makespan state = cpm.Cpm.makespan) in
  for u = 0 to n - 1 do
    if
      State.duration state u <> durations.(u)
      || State.t_min state u <> cpm.Cpm.t_min.(u)
      || State.t_max state u <> cpm.Cpm.t_max.(u)
      || State.critical state u <> cpm.Cpm.critical.(u)
    then ok := false
  done;
  !ok

(* The state's starts, and the makespan a start-only settle returned,
   against a from-scratch CPM of its current graph and
   implementations. *)
let starts_match state makespan =
  let n = Instance.size state.State.inst in
  let durations = Array.init n (fun u -> (State.impl state u).Impl.time) in
  let cpm = Cpm.compute state.State.dep ~durations in
  makespan = cpm.Cpm.makespan
  && State.makespan state = cpm.Cpm.makespan
  && Array.for_all2 ( = ) (Array.init n (State.t_min state)) cpm.Cpm.t_min

(* Property: after every propagation, whatever mix of changes it
   settles, the incrementally maintained windows are the from-scratch
   CPM's: ordering edges in and against window order, several edges
   queued before one propagation, duration rises and falls, and
   tentative implementation changes rolled back. Some settles are
   start-only, as step 6's are: after one, the starts and the returned
   makespan are the CPM's, and the tails it left queued (with those of
   any start-only settles before it) are the CPM's after the next full
   propagation. *)
let prop_windows_equal_cpm =
  QCheck.Test.make ~count:60 ~name:"State windows = from-scratch CPM"
    QCheck.int
    (fun seed ->
      let rng = Rng.create (seed lxor 0x3d1c) in
      let inst = window_instance rng in
      let n = Instance.size inst in
      let state = State.create inst ~impl_of:(Array.make n 0) () in
      let ok = ref (windows_match state) in
      let settle () =
        if Rng.int rng 3 = 0 then begin
          if not (starts_match state (State.settle_starts state)) then
            ok := false
        end
        else begin
          State.propagate state;
          if not (windows_match state) then ok := false
        end
      in
      (* An acyclic edge between two random tasks, oriented along the
         window order or against it; none when the pair is ordered the
         other way already. *)
      let add_edge () =
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then begin
          let along = State.t_min state a <= State.t_min state b in
          let u, v = if along = Rng.bool rng then (a, b) else (b, a) in
          if not (Graph.reachable state.State.dep v).(u) then
            State.add_edge state u v
        end
      in
      let change_impl () =
        let u = Rng.int rng n in
        State.set_impl state ~task:u
          (Rng.int rng (Array.length inst.Instance.impls.(u)))
      in
      for _ = 1 to 50 + Rng.int rng 30 do
        match Rng.int rng 5 with
        | 0 ->
          add_edge ();
          settle ()
        | 1 ->
          for _ = 1 to 2 + Rng.int rng 4 do
            add_edge ()
          done;
          settle ()
        | 2 ->
          change_impl ();
          settle ()
        | 3 ->
          let u = Rng.int rng n in
          let saved = state.State.impl_of.(u) in
          State.set_impl state ~task:u
            (Rng.int rng (Array.length inst.Instance.impls.(u)));
          settle ();
          State.set_impl state ~task:u saved;
          settle ()
        | _ ->
          for _ = 1 to 1 + Rng.int rng 3 do
            if Rng.bool rng then add_edge () else change_impl ()
          done;
          settle ()
      done;
      State.propagate state;
      !ok && windows_match state)

(* Property: splicing each reconfiguration into the controller chain
   gives, after every splice, the times a full resolve of the same chain
   gives. Suite instances of 10-100 tasks go through steps 3-6, and the
   specs are spliced in a random order at random legal positions. *)
let prop_splice_equals_full_resolve =
  QCheck.Test.make ~count:25 ~name:"splice = full resolve"
    QCheck.(pair int (int_range 10 100))
    (fun (seed, tasks) ->
      let tasks = 10 + (abs tasks mod 91) in
      let rng = Rng.create (seed lxor 0x5b1ce) in
      let inst = Suite.instance rng ~tasks in
      let ctx = Pa.Context.create inst in
      let state = Pa.Context.state ctx ~resource_scale:1.0 in
      Resched_core.Regions_define.run
        ~ordering:(Resched_core.Regions_define.Random (Rng.split rng)) state;
      Resched_core.Sw_balance.run state;
      ignore (Sw_map.run state ~bound:max_int : bool);
      let specs = Timing.reconf_specs state in
      let nr = Array.length specs in
      let closure =
        Graph.closure_with (Graph.make_closure_buf ()) state.State.dep
      in
      let spliced = solver state specs in
      let full = solver state specs in
      let seq = Array.make (Stdlib.max 1 nr) 0 in
      ignore (Timing.Solver.resolve_array spliced ~sequence:seq ~len:0);
      let n = Instance.size inst in
      let same (a : Timing.resolved) (b : Timing.resolved) =
        Array.sub a.Timing.task_start 0 n = Array.sub b.Timing.task_start 0 n
        && Array.sub a.Timing.task_end 0 n = Array.sub b.Timing.task_end 0 n
        && Array.sub a.Timing.rec_start 0 nr = Array.sub b.Timing.rec_start 0 nr
        && Array.sub a.Timing.rec_end 0 nr = Array.sub b.Timing.rec_end 0 nr
        && a.Timing.makespan = b.Timing.makespan
      in
      let order = Array.init nr Fun.id in
      Rng.shuffle_in_place rng order;
      let ok = ref true in
      Array.iteri
        (fun len k ->
          let lo = ref 0 and hi = ref len in
          for pos = 0 to len - 1 do
            let j = seq.(pos) in
            if Timing.must_precede_closure closure specs.(j) specs.(k) then
              lo := Stdlib.max !lo (pos + 1);
            if Timing.must_precede_closure closure specs.(k) specs.(j) then
              hi := Stdlib.min !hi pos
          done;
          let pos = !lo + Rng.int rng (!hi - !lo + 1) in
          Array.blit seq pos seq (pos + 1) (len - pos);
          seq.(pos) <- k;
          let a =
            Timing.Solver.splice spliced ~sequence:seq ~len:(len + 1) ~pos
          in
          let b =
            Timing.Solver.resolve_array full ~sequence:seq ~len:(len + 1)
          in
          if not (same a b) then ok := false)
        order;
      !ok)

(* ---- impl_select / sw_map ---- *)

let test_impl_select_falls_back_to_sw () =
  (* HW implementation slower than SW: SW must be selected. *)
  let graph = Graph.create 1 in
  let impls =
    [|
      [| Impl.sw ~time:50;
         Impl.hw ~time:500 ~res:(Resource.make ~clb:10 ~bram:0 ~dsp:0) () |];
    |]
  in
  let inst = Instance.make ~arch:Arch.mini ~graph ~impls () in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res Arch.mini) in
  Alcotest.(check int) "sw selected" 0 impl_of.(0)

let test_sw_map_balances_processors () =
  (* Four independent SW tasks on two processors: each processor gets
     two, and the makespan is two task lengths, not four. *)
  let graph = Graph.create 4 in
  let impls = Array.init 4 (fun _ -> [| Impl.sw ~time:100 |]) in
  let inst = Instance.make ~arch:Arch.zedboard ~graph ~impls () in
  let sched, _ = Pa.run inst in
  Validate.check_exn sched;
  Alcotest.(check int) "two rounds" 200 (Schedule.makespan sched)

let test_sw_map_incremental_matches_oracle () =
  (* The marking-based pair sequencing must insert exactly the edges the
     pairwise-DFS oracle inserts, hence produce the same assignment and
     windows. *)
  let rng = Rng.create 61 in
  for _ = 1 to 5 do
    let inst = Suite.instance rng ~tasks:(10 + Rng.int rng 30) in
    let impl_of =
      Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch)
    in
    let build sw_map =
      let state = State.create inst ~impl_of () in
      Resched_core.Regions_define.run
        ~ordering:Resched_core.Regions_define.By_efficiency state;
      Resched_core.Sw_balance.run state;
      sw_map state;
      state
    in
    let a = build (fun s -> assert (Sw_map.run s ~bound:max_int))
    and b = build Pa_oracle.sw_map in
    Alcotest.(check (array int))
      "processor assignment" b.State.processor_of a.State.processor_of;
    Alcotest.(check (list (pair int int)))
      "augmented edges" (Graph.edges b.State.dep) (Graph.edges a.State.dep);
    let n = Instance.size inst in
    Alcotest.(check (array int)) "t_min"
      (Array.init n (State.t_min b))
      (Array.init n (State.t_min a))
  done

let test_sw_map_delay_formula () =
  let state = two_region_state () in
  Alcotest.(check int) "no delay when free early" 0
    (Sw_map.delay state ~task:2 ~last_end:0);
  Alcotest.(check int) "delay equals busy overlap" 50
    (Sw_map.delay state ~task:2 ~last_end:(State.t_min state 2 + 50))

(* ---- gantt / metrics / schedule ---- *)

let test_gantt_renders_all_lanes () =
  let sched = good_schedule () in
  let s = Gantt.render ~width:60 sched in
  let lines = String.split_on_char '\n' s in
  (* 1 header + cpus + regions (+ icap when reconfigurations exist). *)
  let expected =
    1 + 2
    + Array.length sched.Schedule.regions
    + (if sched.Schedule.reconfigurations <> [] then 1 else 0)
  in
  Alcotest.(check int) "lane count" expected
    (List.length (List.filter (fun l -> l <> "") lines))

let test_metrics_bounds () =
  let sched = good_schedule () in
  let m = Metrics.compute sched in
  Alcotest.(check bool) "utilizations in [0,1]" true
    (m.Metrics.fpga_utilization >= 0.
    && m.Metrics.fpga_utilization <= 1.
    && m.Metrics.processor_utilization >= 0.
    && m.Metrics.processor_utilization <= 1.);
  Alcotest.(check bool) "overhead in [0,1]" true
    (m.Metrics.reconfiguration_overhead >= 0.
    && m.Metrics.reconfiguration_overhead <= 1.);
  Alcotest.(check int) "task partition" 15 (m.Metrics.hw_tasks + m.Metrics.sw_tasks)

let test_schedule_accessors () =
  let sched = good_schedule () in
  Alcotest.(check int) "task counts partition" 15
    (Schedule.hw_task_count sched + Schedule.sw_task_count sched);
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      Alcotest.(check (list int)) "tasks already ordered" r.Schedule.tasks
        (Schedule.region_tasks_in_order sched ridx))
    sched.Schedule.regions

let test_pa_deterministic () =
  let rng1 = Rng.create 123 and rng2 = Rng.create 123 in
  let i1 = Suite.instance rng1 ~tasks:18 in
  let i2 = Suite.instance rng2 ~tasks:18 in
  let s1, _ = Pa.run i1 and s2, _ = Pa.run i2 in
  Alcotest.(check int) "same makespan" (Schedule.makespan s1)
    (Schedule.makespan s2);
  Alcotest.(check int) "same region count"
    (Array.length s1.Schedule.regions)
    (Array.length s2.Schedule.regions)

(* ---- schedule serialization ---- *)

module Schedule_io = Resched_core.Schedule_io

let test_schedule_io_roundtrip () =
  let sched = good_schedule () in
  let text = Schedule_io.to_string sched in
  match Schedule_io.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok sched' ->
    (* The reloaded schedule must be semantically identical: it validates
       and reserializes to the same text. *)
    (match Validate.check sched' with
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "reloaded schedule invalid: %s"
        (String.concat "; "
           (List.map (fun (v : Validate.violation) -> v.message) vs)));
    Alcotest.(check string) "stable round-trip" text
      (Schedule_io.to_string sched');
    Alcotest.(check int) "same makespan" (Schedule.makespan sched)
      (Schedule.makespan sched')

let test_schedule_io_save_load () =
  let sched = good_schedule () in
  let path = Filename.temp_file "resched" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule_io.save path sched;
      match Schedule_io.load path with
      | Ok sched' ->
        Alcotest.(check int) "same makespan" (Schedule.makespan sched)
          (Schedule.makespan sched')
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let test_schedule_io_rejects_garbage () =
  (match Schedule_io.of_string "not a schedule" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let sched = good_schedule () in
  let text = Schedule_io.to_string sched in
  (* Drop the slot lines: the parser must notice the missing tasks. *)
  let broken =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.length l >= 4 && String.sub l 0 4 = "slot"))
    |> String.concat "\n"
  in
  match Schedule_io.of_string broken with
  | Ok _ -> Alcotest.fail "schedule without slots accepted"
  | Error _ -> ()

(* Property: the validator rejects every systematic corruption of a valid
   schedule — slot stretching, makespan tampering and (when present)
   dropped reconfigurations. *)
let prop_validator_catches_corruption =
  QCheck.Test.make ~count:25 ~name:"validator catches corruption"
    QCheck.(pair int (int_range 8 25))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0xC0DE) in
      let inst = Suite.instance rng ~tasks in
      let sched, _ = Pa.run inst in
      Validate.check sched = Ok ()
      && begin
           (* Stretch a random slot by one tick. *)
           let slots = Array.copy sched.Schedule.slots in
           let t = Rng.int rng tasks in
           let s = slots.(t) in
           slots.(t) <- { s with Schedule.end_ = s.Schedule.end_ + 1 };
           Validate.check { sched with Schedule.slots = slots } <> Ok ()
         end
      && Validate.check { sched with Schedule.makespan = sched.Schedule.makespan + 1 }
         <> Ok ()
      && (sched.Schedule.reconfigurations = []
         || Validate.check { sched with Schedule.reconfigurations = [] }
            <> Ok ()))

let () =
  Alcotest.run "core-units"
    [
      ( "validator",
        [
          Alcotest.test_case "dependency violation" `Quick
            test_validate_detects_dep_violation;
          Alcotest.test_case "bad makespan" `Quick
            test_validate_detects_bad_makespan;
          Alcotest.test_case "slot length" `Quick
            test_validate_detects_slot_length_mismatch;
          Alcotest.test_case "missing reconfiguration" `Quick
            test_validate_detects_missing_reconfiguration;
          Alcotest.test_case "controller overlap" `Quick
            test_validate_detects_controller_overlap;
          Alcotest.test_case "over capacity" `Quick
            test_validate_detects_overcapacity;
          Alcotest.test_case "bad floorplan" `Quick
            test_validate_detects_bad_floorplan;
          Alcotest.test_case "kind mismatch" `Quick
            test_validate_detects_kind_mismatch;
          Alcotest.test_case "implementation out of range" `Quick
            test_validate_impl_out_of_range;
          Alcotest.test_case "short slot array" `Quick
            test_validate_short_slot_array;
        ] );
      ( "timing",
        [
          Alcotest.test_case "controller sequence" `Quick
            test_timing_resolve_respects_sequence;
          Alcotest.test_case "solver = from-scratch resolve" `Quick
            test_solver_matches_from_scratch_resolve;
          Alcotest.test_case "solver on pipeline state" `Quick
            test_solver_matches_resolve_on_pipeline_state;
          Alcotest.test_case "module reuse skips pairs" `Quick
            test_timing_reuse_skips_pairs;
          Alcotest.test_case "finished plan chains" `Quick
            test_time_plan_chains;
          Alcotest.test_case "finished plan cycle" `Quick
            test_time_plan_cycle;
        ] );
      ( "state",
        [
          Alcotest.test_case "switch to software" `Quick test_state_switch_to_sw;
          Alcotest.test_case "region accounting" `Quick
            test_state_region_accounting;
          Alcotest.test_case "region ordering edges" `Quick
            test_state_region_edges_ordered;
        ] );
      ( "steps",
        [
          Alcotest.test_case "impl select falls back to sw" `Quick
            test_impl_select_falls_back_to_sw;
          Alcotest.test_case "sw mapping balances processors" `Quick
            test_sw_map_balances_processors;
          Alcotest.test_case "lambda formula" `Quick test_sw_map_delay_formula;
          Alcotest.test_case "sw_map incremental = oracle" `Quick
            test_sw_map_incremental_matches_oracle;
        ] );
      ( "schedule-io",
        [
          Alcotest.test_case "round-trip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "save/load" `Quick test_schedule_io_save_load;
          Alcotest.test_case "rejects garbage" `Quick
            test_schedule_io_rejects_garbage;
        ] );
      ( "output",
        [
          Alcotest.test_case "gantt lanes" `Quick test_gantt_renders_all_lanes;
          Alcotest.test_case "metrics bounds" `Quick test_metrics_bounds;
          Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
          Alcotest.test_case "PA deterministic" `Quick test_pa_deterministic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_validator_catches_corruption;
          QCheck_alcotest.to_alcotest prop_windows_equal_cpm;
          QCheck_alcotest.to_alcotest prop_splice_equals_full_resolve;
        ] );
    ]
