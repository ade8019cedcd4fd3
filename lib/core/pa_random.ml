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

type worker_result = {
  w_iterations : int;
  w_trace : trace_point list;  (** newest first *)
  w_minor_words : float;
}

(* ------------------------------------------------------------------ *)
(* Per-domain restart arenas, reused across calls                      *)

(* A resident pool worker serves a whole batch of PA-R runs; rebuilding
   the restart arena on every call rediscovers the same per-scale memo
   entries from scratch. Each domain keeps its few most recent arenas,
   keyed by physical instance identity (an [Instance.t] is immutable and
   interned by the caller, so [==] is the right notion of "same
   instance"). Arena reuse is bit-identical by construction: the memo
   returns exactly what recomputation would, and [State.reset] clears
   iteration state (property-tested in test_scheduler). The cap bounds
   how much a long-lived domain roots against the GC — it is sized for
   the batch engine, whose slices interleave several instances per
   domain. *)
let context_cache_cap = 16

let context_cache : (Instance.t * Pa.Context.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let get_context inst =
  let cache = Domain.DLS.get context_cache in
  match List.find_opt (fun (i, _) -> i == inst) !cache with
  | Some (_, ctx) ->
    cache := (inst, ctx) :: List.filter (fun (i, _) -> i != inst) !cache;
    ctx
  | None ->
    let ctx = Pa.Context.create inst in
    let kept = List.filteri (fun k _ -> k < context_cache_cap - 1) !cache in
    cache := (inst, ctx) :: kept;
    ctx

(* The adaptive virtual scale is quantized onto the [shrink_factor^k]
   lattice (k in [0 .. max_shrink_exp]); only the integer exponent moves.
   The previous continuous policy ([scale /. sqrt shrink] on success)
   drifted through floats that never repeated, so neither the per-scale
   restart memo ({!Pa.Context}) nor the floorplan cache keyed off the
   resulting region sets could ever hit. See DESIGN.md. *)
let max_shrink_exp = 6

(* ------------------------------------------------------------------ *)
(* A course: one resumable restart stream                              *)

(* The loop body of the old inline worker, reified so the same stream
   can run to completion on one domain (run/run_parallel) or in
   interleaved slices across domains (Batch.run) with bit-identical
   results: everything the stream depends on — its RNG, its adaptive
   shrink exponent, its iteration count — lives here, while the restart
   arena stays domain-local and is re-fetched per slice. *)
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
    mutable crs_shrink_exp : int;
    mutable crs_iterations : int;
    mutable crs_trace : trace_point list;  (* newest first *)
    mutable crs_minor_words : float;
    mutable crs_done : bool;
  }

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

  let run_slice c ~max_iterations =
    (* Cooperative cancellation: polled once per slice, never inside the
       iteration loop, so a cancelled stream stops at the next slice
       boundary (the serve layer's "deadline + one slice" contract) while
       the hot path stays clock-read-only. A course that never gets
       cancelled executes the exact iteration stream of one without a
       cancel hook. *)
    if
      (not c.crs_done)
      && (match c.crs_cancel with Some f -> f () | None -> false)
    then c.crs_done <- true;
    if c.crs_done || max_iterations <= 0 then 0
    else begin
      (* One restart arena per worker domain: contexts are not
         thread-safe, and a domain-private arena also keeps the
         iteration's working set out of the minor heap (OCaml 5 minor
         collections are stop-the-world rendezvous across domains, so
         per-domain allocation churn taxes every other worker). Fetched
         per slice through the domain-local cache, so the stream can
         migrate between domains while each domain reuses warm
         arenas. *)
      let ctx = get_context c.crs_inst in
      let words0 = Gc.minor_words () in
      let executed = ref 0 in
      let running = ref true in
      while !running && !executed < max_iterations do
        (* One clock read per iteration: it decides the deadline and
           stamps any trace point the iteration produces. *)
        let now = Unix.gettimeofday () in
        if
          c.crs_iterations >= c.crs_min_iterations && now >= c.crs_deadline
        then begin
          c.crs_done <- true;
          running := false
        end
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

  let finished c = c.crs_done
  let iterations c = c.crs_iterations

  let outcome c =
    {
      schedule = c.crs_shared.best;
      iterations = c.crs_iterations;
      trace = List.rev c.crs_trace;
      minor_words = c.crs_minor_words;
    }
end

(* Run one course to completion on the calling domain. *)
let exhaust (c : Course.t) =
  while not c.Course.crs_done do
    ignore (Course.run_slice c ~max_iterations:max_int : int)
  done;
  {
    w_iterations = c.Course.crs_iterations;
    w_trace = c.Course.crs_trace;
    w_minor_words = c.Course.crs_minor_words;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let run ?(config = Pa.default_config) ?(seed = 1) ?(min_iterations = 1) ?cache
    ~budget_seconds inst =
  let start = Unix.gettimeofday () in
  let shared = make_shared () in
  let course =
    Course.make ~config ~cache:(resolve_cache cache) ~shared
      ~rng:(Rng.create seed) ~start ~min_iterations ~budget_seconds inst
  in
  let r = exhaust course in
  {
    schedule = shared.best;
    iterations = r.w_iterations;
    trace = List.rev r.w_trace;
    minor_words = r.w_minor_words;
  }

(* Per-worker trace points already carry globally-improving makespans
   (each passed [claim]); ordering the union by elapsed time and keeping
   the running minimum yields one globally-ordered improving trace even
   when stamps and claims interleave across workers. *)
let merge_traces results =
  let all = List.concat_map (fun r -> r.w_trace) (Array.to_list results) in
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
    let rngs =
      Array.init jobs (fun i ->
          if i = 0 then Rng.create seed else Rng.split root)
    in
    let min_per_worker = (min_iterations + jobs - 1) / jobs in
    let cache = resolve_cache cache in
    let job i =
      exhaust
        (Course.make ~config ~cache ~shared ~rng:rngs.(i) ~start
           ~min_iterations:min_per_worker ~budget_seconds inst)
    in
    let results =
      match pool with
      | Some p -> Domain_pool.Pool.map p job
      | None -> Domain_pool.run ~jobs job
    in
    let iterations =
      Array.fold_left (fun acc r -> acc + r.w_iterations) 0 results
    in
    let minor_words =
      Array.fold_left (fun acc r -> acc +. r.w_minor_words) 0. results
    in
    { schedule = shared.best; iterations; trace = merge_traces results;
      minor_words }
  end
