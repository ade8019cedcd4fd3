module Rng = Resched_util.Rng
module Domain_pool = Resched_util.Domain_pool
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch

type trace_point = { elapsed : float; iteration : int; makespan : int }

type outcome = {
  schedule : Schedule.t option;
  iterations : int;
  trace : trace_point list;
  minor_words : float;
}

(* ------------------------------------------------------------------ *)
(* Shared search state                                                 *)

(* Workers race on [best_makespan] (the skip bound consulted before every
   floorplan check) and publish the matching schedule under [lock]. A
   worker only publishes after winning the compare-and-set on the
   makespan, so the guard in [publish] merely orders near-simultaneous
   winners. *)
type shared = {
  best_makespan : int Atomic.t;
  lock : Mutex.t;
  mutable best : Schedule.t option;
}

let make_shared () =
  { best_makespan = Atomic.make max_int; lock = Mutex.create (); best = None }

let publish shared sched =
  Domain_pool.with_lock shared.lock (fun () ->
      match shared.best with
      | Some cur when cur.Schedule.makespan <= sched.Schedule.makespan -> ()
      | Some _ | None -> shared.best <- Some sched)

(* Claim an improvement: true iff [ms] strictly lowered the shared bound.
   Losing the race to a better concurrent candidate discards ours. *)
let rec claim shared ms =
  let cur = Atomic.get shared.best_makespan in
  if ms >= cur then false
  else if Atomic.compare_and_set shared.best_makespan cur ms then true
  else claim shared ms

(* ------------------------------------------------------------------ *)
(* One restart stream (Algorithm 1's loop body)                        *)

let check_feasible ~cache device needs =
  if Array.length needs = 0 then Some [||]
  else
    match (Fp_cache.check cache device needs).Floorplanner.verdict with
    | Floorplanner.Feasible placements -> Some placements
    | Floorplanner.Infeasible | Floorplanner.Unknown -> None

(* A caller that passes no cache gets a private one per entry-point
   call, shared by every stream of that call. *)
let resolve_cache = function Some c -> c | None -> Fp_cache.create ()

(* The adaptive virtual scale is quantized onto the [shrink_factor^k]
   lattice (k in [0 .. max_shrink_exp]); only the integer exponent moves.
   The previous continuous policy ([scale /. sqrt shrink] on success)
   drifted through floats that never repeated, so neither the per-scale
   restart memo ({!Pa.Context}) nor the floorplan cache keyed off the
   resulting region sets could ever hit. See DESIGN.md. *)
let max_shrink_exp = 6

(* ------------------------------------------------------------------ *)
(* A course: one restart stream                                        *)

(* Algorithm 1's loop, reified so that [run], each [run_parallel] worker,
   each [Batch.run] worker and each served request drive the same stream
   the same way. A course owns everything its stream touches: its RNG,
   its adaptive shrink exponent, its iteration count, its incumbent and,
   while it runs, its restart arena — built on the first slice and
   dropped when the stream finishes, so no arena outlives its stream. *)
module Course = struct
  type t = {
    crs_inst : Instance.t;
    crs_config : Pa.config;
    crs_cache : Fp_cache.t;
    crs_rng : Rng.t;
    crs_shared : shared;
    crs_start : float;
    crs_deadline : float;
    crs_min_iterations : int;
    crs_cancel : (unit -> bool) option;
    crs_lattice : float array;
    mutable crs_ctx : Pa.Context.t option;
    mutable crs_shrink_exp : int;
    mutable crs_iterations : int;
    mutable crs_trace : trace_point list;  (* newest first *)
    mutable crs_minor_words : float;
    mutable crs_done : bool;
  }

  let poll_every = 16

  let make ?(config = Pa.default_config) ?cancel ~cache ~shared ~rng ~start
      ~min_iterations ~budget_seconds inst =
    {
      crs_inst = inst;
      crs_config = config;
      crs_cache = cache;
      crs_rng = rng;
      crs_shared = shared;
      crs_start = start;
      crs_deadline = start +. budget_seconds;
      crs_min_iterations = min_iterations;
      crs_cancel = cancel;
      (* Virtual FPGA-resource scale for the inner doSchedule. Algorithm
         1 never shrinks, but when the region definition saturates the
         device no random order yields a floorplannable region set;
         adapting the scale on floorplan failures (and probing back up
         on successes) keeps the search inside the packable envelope.
         See DESIGN.md. *)
      crs_lattice =
        Array.init (max_shrink_exp + 1) (fun k ->
            Pa.shrink_factor ** float_of_int k);
      crs_ctx = None;
      crs_shrink_exp = 0;
      crs_iterations = 0;
      crs_trace = [];
      crs_minor_words = 0.;
      crs_done = false;
    }

  let create ?cache ?start ?cancel ~seed ~min_iterations ~budget_seconds
      inst =
    let start =
      match start with Some s -> s | None -> Unix.gettimeofday ()
    in
    make ?cancel ~cache:(resolve_cache cache)
      ~shared:(make_shared ()) ~rng:(Rng.create seed) ~start ~min_iterations
      ~budget_seconds inst

  let iterate c ~ctx ~now =
    let config =
      {
        c.crs_config with
        Pa.ordering = Regions_define.Random (Rng.split c.crs_rng);
      }
    in
    let scale = c.crs_lattice.(c.crs_shrink_exp) in
    let device = c.crs_inst.Instance.arch.Arch.device in
    let shared = c.crs_shared in
    (* The restart stops once it cannot beat the incumbent it started
       against. The shared best only falls, so a stopped restart is one
       the test below would have discarded; that test re-reads the best,
       which another worker may have lowered in the meantime. *)
    match
      Pa.schedule_candidate ~config ~resource_scale:scale
        ~bound:(Atomic.get shared.best_makespan) ~ctx c.crs_inst
    with
    | None -> ()
    | Some cand ->
      let ms = Pa.candidate_makespan cand in
      if ms < Atomic.get shared.best_makespan then
        match
          check_feasible ~cache:c.crs_cache device (Pa.candidate_needs cand)
        with
        | None ->
          c.crs_shrink_exp <- Stdlib.min max_shrink_exp (c.crs_shrink_exp + 1)
        | Some placements ->
          c.crs_shrink_exp <- Stdlib.max 0 (c.crs_shrink_exp - 1);
          if claim shared ms then begin
            publish shared
              { (Pa.materialize cand) with Schedule.floorplan = Some placements };
            c.crs_trace <-
              {
                elapsed = now -. c.crs_start;
                iteration = c.crs_iterations;
                makespan = ms;
              }
              :: c.crs_trace
          end

  let finish c =
    c.crs_done <- true;
    c.crs_ctx <- None

  let run_slice c ~max_iterations =
    (* Cooperative cancellation: polled once per slice, never inside the
       iteration loop, so a cancelled stream stops at the next slice
       boundary while the hot path stays clock-read-only. A course that
       never gets cancelled executes the exact iteration stream of one
       without a cancel hook. *)
    if
      (not c.crs_done)
      && (match c.crs_cancel with Some f -> f () | None -> false)
    then finish c;
    if c.crs_done || max_iterations <= 0 then 0
    else begin
      let ctx =
        match c.crs_ctx with
        | Some ctx -> ctx
        | None ->
          let ctx = Pa.Context.create c.crs_inst in
          c.crs_ctx <- Some ctx;
          ctx
      in
      let words0 = Gc.minor_words () in
      let executed = ref 0 in
      while (not c.crs_done) && !executed < max_iterations do
        (* One clock read per iteration: it decides the deadline and
           stamps any trace point the iteration produces. *)
        let now = Unix.gettimeofday () in
        if c.crs_iterations >= c.crs_min_iterations && now >= c.crs_deadline
        then finish c
        else begin
          incr executed;
          c.crs_iterations <- c.crs_iterations + 1;
          iterate c ~ctx ~now
        end
      done;
      c.crs_minor_words <-
        c.crs_minor_words +. (Gc.minor_words () -. words0);
      !executed
    end

  let run_to_end c =
    let polls = ref 0 in
    while not c.crs_done do
      ignore (run_slice c ~max_iterations:poll_every : int);
      incr polls
    done;
    !polls

  let finished c = c.crs_done

  let outcome c =
    {
      schedule = c.crs_shared.best;
      iterations = c.crs_iterations;
      trace = List.rev c.crs_trace;
      minor_words = c.crs_minor_words;
    }
end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let run ?(config = Pa.default_config) ?(seed = 1) ?(min_iterations = 1) ?cache
    ~budget_seconds inst =
  let course =
    Course.make ~config ~cache:(resolve_cache cache) ~shared:(make_shared ())
      ~rng:(Rng.create seed) ~start:(Unix.gettimeofday ()) ~min_iterations
      ~budget_seconds inst
  in
  ignore (Course.run_to_end course : int);
  Course.outcome course

(* Per-worker trace points already carry globally-improving makespans
   (each passed [claim]); ordering the union by elapsed time and keeping
   the running minimum yields one globally-ordered improving trace even
   when stamps and claims interleave across workers. *)
let merge_traces courses =
  let all =
    List.concat_map (fun c -> c.Course.crs_trace) (Array.to_list courses)
  in
  let by_time =
    List.sort (fun a b -> Float.compare a.elapsed b.elapsed) all
  in
  let _, rev =
    List.fold_left
      (fun (best, acc) p ->
        if p.makespan < best then (p.makespan, p :: acc) else (best, acc))
      (max_int, []) by_time
  in
  List.rev rev

let run_parallel ?(config = Pa.default_config) ?(seed = 1) ?(min_iterations = 1)
    ?jobs ?pool ?cache ~budget_seconds inst =
  let jobs =
    Domain_pool.fan_out_jobs ~caller:"Pa_random.run_parallel" ~jobs ~pool
  in
  if jobs = 1 then
    run ~config ~seed ~min_iterations ?cache ~budget_seconds inst
  else begin
    let start = Unix.gettimeofday () in
    let shared = make_shared () in
    (* Worker 0 replays the sequential stream ([Rng.create seed]); extra
       workers draw independent SplitMix64 streams from a decorrelated
       root so no worker shares worker 0's per-iteration split sequence. *)
    let root = Rng.create (seed lxor 0x2545F491) in
    let min_per_worker = (min_iterations + jobs - 1) / jobs in
    let cache = resolve_cache cache in
    let courses =
      Array.init jobs (fun i ->
          let rng = if i = 0 then Rng.create seed else Rng.split root in
          Course.make ~config ~cache ~shared ~rng ~start
            ~min_iterations:min_per_worker ~budget_seconds inst)
    in
    let job i = ignore (Course.run_to_end courses.(i) : int) in
    ignore
      (match pool with
       | Some p -> Domain_pool.Pool.map p job
       | None -> Domain_pool.run ~jobs job
        : unit array);
    {
      schedule = shared.best;
      iterations =
        Array.fold_left (fun acc c -> acc + c.Course.crs_iterations) 0 courses;
      trace = merge_traces courses;
      minor_words =
        Array.fold_left (fun acc c -> acc +. c.Course.crs_minor_words) 0.
          courses;
    }
  end
