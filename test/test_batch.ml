(* Tests for the batch engine ([Batch.run]), the resumable course
   abstraction it interleaves, and the allocation contract of the SoA
   restart kernel against its boxed oracle. *)

module Rng = Resched_util.Rng
module Fp_cache = Resched_floorplan.Fp_cache
module Suite = Resched_platform.Suite
module Instance = Resched_platform.Instance
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Batch = Resched_core.Batch
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module State = Resched_core.State
module Impl_select = Resched_core.Impl_select
module Regions_define = Resched_core.Regions_define
module Sw_balance = Resched_core.Sw_balance
module Arch = Resched_platform.Arch

(* Everything observable about an outcome except wall-clock artifacts
   (elapsed stamps, allocation counters): equality here is what
   "bit-identical per instance" means. *)
let outcome_fingerprint (o : Pa_random.outcome) =
  ( o.Pa_random.iterations,
    (match o.Pa_random.schedule with
    | Some s -> Some (Schedule.makespan s, s.Schedule.regions, s.Schedule.slots)
    | None -> None),
    List.map
      (fun (p : Pa_random.trace_point) ->
        (p.Pa_random.iteration, p.Pa_random.makespan))
      o.Pa_random.trace )

(* Property: a batch over N instances is bit-identical, per instance, to
   N sequential [Pa_random.run] calls — whatever the worker count and
   slice granularity, and with a shared floorplan cache in the mix. *)
let prop_batch_equals_sequential =
  QCheck.Test.make ~count:12
    ~name:"Batch.run = N sequential Pa_random.run (bit-identical)"
    QCheck.(triple int (int_range 2 5) (int_range 1 3))
    (fun (seed, n, jobs) ->
      (* Re-clamp: QCheck's int_range shrinker can step outside the
         range while minimizing a counterexample. *)
      let n = 2 + (abs n mod 4) and jobs = 1 + (abs jobs mod 3) in
      let rng = Rng.create (seed lxor 0xba7c4) in
      let requests =
        Array.init n (fun i ->
            let tasks = 6 + Rng.int rng 14 in
            let inst = Suite.instance rng ~tasks in
            Batch.request ~seed:(seed + (31 * i)) ~min_iterations:(4 + i)
              inst)
      in
      let slice = if seed land 1 = 0 then Some 1 else Some 3 in
      let outcomes, stats =
        Batch.run ~cache:(Fp_cache.create ()) ~jobs ?slice requests
      in
      let sequential =
        (* A cache answers as a pure function of the query, so a fresh
           one per instance sees the same verdicts the shared one did. *)
        Array.map
          (fun (r : Batch.request) ->
            Pa_random.run
              ~cache:(Fp_cache.create ())
              ~seed:r.Batch.seed ~min_iterations:r.Batch.min_iterations
              ~budget_seconds:0. r.Batch.instance)
          requests
      in
      stats.Batch.jobs = jobs
      && stats.Batch.total_iterations
         = Array.fold_left
             (fun acc (o : Pa_random.outcome) -> acc + o.Pa_random.iterations)
             0 outcomes
      && Array.for_all2
           (fun a b -> outcome_fingerprint a = outcome_fingerprint b)
           outcomes sequential)

(* Property: the flat struct-of-arrays kernel and the boxed legacy
   pipeline produce bit-identical outcomes (S2's reused-scratch sorts
   included); they may only differ in allocation. *)
let prop_soa_kernel_equals_boxed_oracle =
  QCheck.Test.make ~count:12
    ~name:"SoA kernel = boxed oracle (bit-identical outcomes)"
    QCheck.(pair int (int_range 6 28))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0x50abc) in
      let inst = Suite.instance rng ~tasks in
      let run kernel =
        Pa_random.run ~seed ~min_iterations:10 ~kernel ~budget_seconds:0. inst
      in
      let soa = run `Soa and boxed = run `Boxed in
      outcome_fingerprint soa = outcome_fingerprint boxed
      &&
      match soa.Pa_random.schedule with
      | Some s -> Validate.check s = Ok ()
      | None -> true)

(* Slicing invariance: advancing a course in tiny slices (as the batch
   queue does under contention) executes the same stream as one
   uninterrupted run. *)
let test_course_slice_invariance () =
  let rng = Rng.create 21 in
  let inst = Suite.instance rng ~tasks:18 in
  let course =
    Pa_random.Course.create ~seed:7 ~min_iterations:15 ~budget_seconds:0. inst
  in
  let slices = ref 0 in
  while not (Pa_random.Course.finished course) do
    let ran = Pa_random.Course.run_slice course ~max_iterations:2 in
    Alcotest.(check bool) "unfinished course makes progress" true (ran > 0);
    incr slices
  done;
  Alcotest.(check int) "no work after finish" 0
    (Pa_random.Course.run_slice course ~max_iterations:2);
  Alcotest.(check bool) "stream was actually sliced" true (!slices >= 8);
  let whole =
    Pa_random.run ~seed:7 ~min_iterations:15 ~budget_seconds:0. inst
  in
  Alcotest.(check bool) "sliced outcome = uninterrupted outcome" true
    (outcome_fingerprint (Pa_random.Course.outcome course)
    = outcome_fingerprint whole)

(* Cooperative cancellation: a hook that never fires leaves the stream
   bit-identical to an unhooked run; one that fires stops the course at
   the next slice boundary, keeping the incumbent found so far. This is
   the serve layer's "deadline + one slice" contract at its source. *)
let test_course_cancellation () =
  let rng = Rng.create 77 in
  let inst = Suite.instance rng ~tasks:16 in
  let with_hook =
    let c =
      Pa_random.Course.create
        ~cancel:(fun () -> false)
        ~seed:5 ~min_iterations:12 ~budget_seconds:0. inst
    in
    while not (Pa_random.Course.finished c) do
      ignore (Pa_random.Course.run_slice c ~max_iterations:3)
    done;
    Pa_random.Course.outcome c
  in
  let plain = Pa_random.run ~seed:5 ~min_iterations:12 ~budget_seconds:0. inst in
  Alcotest.(check bool) "never-firing hook is bit-identical" true
    (outcome_fingerprint with_hook = outcome_fingerprint plain);
  let polls = ref 0 in
  let c =
    Pa_random.Course.create
      ~cancel:(fun () ->
        incr polls;
        !polls > 2)
      ~seed:5 ~min_iterations:1_000_000 ~budget_seconds:0. inst
  in
  let total = ref 0 in
  while not (Pa_random.Course.finished c) do
    total := !total + Pa_random.Course.run_slice c ~max_iterations:4
  done;
  Alcotest.(check int) "cancelled after exactly two full slices" 8 !total;
  Alcotest.(check int) "iterations agree" 8 (Pa_random.Course.iterations c);
  Alcotest.(check int) "no work after cancellation" 0
    (Pa_random.Course.run_slice c ~max_iterations:4);
  (* The cancelled outcome is exactly an offline run truncated at the
     boundary: same stream, same incumbent. *)
  let truncated =
    Pa_random.run ~seed:5 ~min_iterations:8 ~budget_seconds:0. inst
  in
  Alcotest.(check bool) "outcome = offline run truncated at the boundary" true
    (outcome_fingerprint (Pa_random.Course.outcome c)
    = outcome_fingerprint truncated)

(* A cancelled request inside a batch retires without perturbing its
   neighbours' streams. *)
let test_batch_cancelled_request () =
  let rng = Rng.create 99 in
  let insts = Array.init 3 (fun _ -> Suite.instance rng ~tasks:12) in
  let requests =
    [|
      Batch.request ~seed:3 ~min_iterations:10 insts.(0);
      Batch.request ~seed:4 ~min_iterations:1_000_000
        ~cancel:(fun () -> true)
        insts.(1);
      Batch.request ~seed:5 ~min_iterations:10 insts.(2);
    |]
  in
  let outcomes, _ =
    Batch.run
      ~cache:(Fp_cache.create ())
      ~jobs:2 ~slice:2 requests
  in
  Alcotest.(check int) "cancelled request ran no iterations" 0
    outcomes.(1).Pa_random.iterations;
  List.iter
    (fun (i, seed) ->
      let offline =
        Pa_random.run
          ~cache:(Fp_cache.create ())
          ~seed ~min_iterations:10 ~budget_seconds:0. insts.(i)
      in
      Alcotest.(check bool)
        (Printf.sprintf "request %d unaffected by its cancelled neighbour" i)
        true
        (outcome_fingerprint outcomes.(i) = outcome_fingerprint offline))
    [ (0, 3); (2, 5) ]

(* Allocation regression guard: the SoA kernel must allocate far less
   than the boxed oracle per restart, and stay under an absolute
   ceiling that a reintroduced per-iteration List.sort/List.map rebuild
   (the bug S2 fixed) would immediately blow through. *)
let test_words_per_iteration () =
  let rng = Rng.create 33 in
  let inst = Suite.instance rng ~tasks:60 in
  let words kernel =
    (* A cache keeps repeated floorplan probes (whose allocation belongs
       to the packer, not the restart kernel) from dominating the
       per-iteration average; enough iterations amortize the cold
       misses both kernels pay identically. *)
    let o =
      Pa_random.run ~seed:5 ~min_iterations:150 ~kernel
        ~cache:(Fp_cache.create ())
        ~budget_seconds:0. inst
    in
    o.Pa_random.minor_words /. float_of_int (max 1 o.Pa_random.iterations)
  in
  let soa = words `Soa and boxed = words `Boxed in
  Alcotest.(check bool)
    (Printf.sprintf "SoA kernel under 100k words/iteration (got %.0f)" soa)
    true (soa < 100_000.);
  Alcotest.(check bool)
    (Printf.sprintf "boxed/SoA allocation ratio >= 5 (got x%.1f)"
       (boxed /. soa))
    true
    (boxed >= 5. *. soa)

(* The per-task hw_impls cache in arena scratch answers exactly what
   [Instance.hw_impls] computes. *)
let test_state_hw_impls_cache () =
  let rng = Rng.create 45 in
  let inst = Suite.instance rng ~tasks:25 in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch) in
  let plain = State.create inst ~impl_of () in
  let arena = State.create inst ~impl_of ~scratch:true () in
  for u = 0 to Instance.size inst - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "task %d cached hw_impls = computed" u)
      true
      (State.hw_impls arena u = State.hw_impls plain u
      && State.hw_impls plain u = Instance.hw_impls inst u)
  done

(* S2, isolated: software balancing over a scratch-equipped state (the
   in-place insertion sort over a borrowed array) must leave the state
   in exactly the configuration the legacy List.sort path produces. *)
let test_sw_balance_scratch_matches_legacy () =
  let rng = Rng.create 57 in
  let inst = Suite.instance rng ~tasks:30 in
  let impl_of = Impl_select.run inst ~max_res:(Arch.max_res inst.Instance.arch) in
  let build scratch =
    let state = State.create inst ~impl_of:(Array.copy impl_of) ~scratch () in
    Regions_define.run ~ordering:Regions_define.By_efficiency state;
    Sw_balance.run state;
    state
  in
  let fast = build true and legacy = build false in
  Alcotest.(check (array int))
    "same implementation selection" legacy.State.impl_of fast.State.impl_of;
  Alcotest.(check (array int))
    "same region assignment" legacy.State.region_of fast.State.region_of;
  Alcotest.(check int) "same region count" (State.region_count legacy)
    (State.region_count fast);
  for i = 0 to State.region_count legacy - 1 do
    let a = State.nth_region legacy i and b = State.nth_region fast i in
    Alcotest.(check (list int))
      (Printf.sprintf "region %d same task list" i)
      a.State.tasks b.State.tasks
  done

let () =
  Alcotest.run "batch"
    [
      ( "course",
        [
          Alcotest.test_case "slice invariance" `Quick
            test_course_slice_invariance;
          Alcotest.test_case "cancellation" `Quick test_course_cancellation;
          Alcotest.test_case "cancelled batch request" `Quick
            test_batch_cancelled_request;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "words per iteration" `Quick
            test_words_per_iteration;
          Alcotest.test_case "hw_impls cache" `Quick test_state_hw_impls_cache;
          Alcotest.test_case "sw_balance scratch = legacy" `Quick
            test_sw_balance_scratch_matches_legacy;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
          QCheck_alcotest.to_alcotest prop_soa_kernel_equals_boxed_oracle;
        ] );
    ]
