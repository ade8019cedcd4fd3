module Domain_pool = Resched_util.Domain_pool
module Fp_cache = Resched_floorplan.Fp_cache
module Instance = Resched_platform.Instance

type request = {
  instance : Instance.t;
  seed : int;
  min_iterations : int;
  budget_seconds : float;
  cancel : (unit -> bool) option;
}

let request ?(seed = 1) ?(min_iterations = 1) ?(budget_seconds = 0.) ?cancel
    instance =
  { instance; seed; min_iterations; budget_seconds; cancel }

type stats = {
  jobs : int;
  slice : int;
  wall_seconds : float;
  total_iterations : int;
  total_slices : int;
  total_minor_words : float;
}

(* The shared course queue. A worker pops a course, advances it by one
   slice on its own domain, and gives it back: unfinished courses rejoin
   the tail (so every ready course gets serviced before any course gets
   a second slice — round-robin across instances), finished ones retire.
   Workers block on the condition variable rather than spin: a queue
   that is momentarily empty while other workers hold the last
   unfinished courses must not look like termination. *)
type queue = {
  q_lock : Mutex.t;
  q_cond : Condition.t;
  q_ready : Pa_random.Course.t Queue.t;
  mutable q_remaining : int;  (* unfinished courses, guarded by q_lock *)
}

let pop q =
  Mutex.lock q.q_lock;
  let rec wait () =
    if q.q_remaining = 0 then None
    else if Queue.is_empty q.q_ready then begin
      Condition.wait q.q_cond q.q_lock;
      wait ()
    end
    else Some (Queue.pop q.q_ready)
  in
  let r = wait () in
  Mutex.unlock q.q_lock;
  r

let give_back q course =
  Mutex.lock q.q_lock;
  if Pa_random.Course.finished course then begin
    q.q_remaining <- q.q_remaining - 1;
    if q.q_remaining = 0 then Condition.broadcast q.q_cond
  end
  else begin
    Queue.push course q.q_ready;
    Condition.signal q.q_cond
  end;
  Mutex.unlock q.q_lock

type worker_stats = { ws_slices : int }

let worker_loop queue ~slice =
  let slices = ref 0 in
  let rec loop () =
    match pop queue with
    | None -> ()
    | Some course ->
      ignore (Pa_random.Course.run_slice course ~max_iterations:slice : int);
      incr slices;
      give_back queue course;
      loop ()
  in
  loop ();
  { ws_slices = !slices }

let default_slice ~jobs requests =
  (* Small enough that a short batch still interleaves across every
     worker, large enough to amortize the per-slice arena fetch and
     clock reads. With N total requested iterations over [jobs] workers,
     ~4 slices per worker-share keeps the tail balanced. *)
  let total =
    Array.fold_left (fun acc r -> acc + r.min_iterations) 0 requests
  in
  Stdlib.max 1 (Stdlib.min 32 (total / (4 * jobs) + 1))

let run ?config ?cache ?jobs ?pool ?slice requests =
  let jobs =
    match (pool, jobs) with
    | Some p, Some j ->
      if j <> Domain_pool.Pool.jobs p then
        invalid_arg
          (Printf.sprintf
             "Batch.run: jobs=%d but the pool has %d worker(s)" j
             (Domain_pool.Pool.jobs p));
      j
    | Some p, None -> Domain_pool.Pool.jobs p
    | None, Some j when j >= 1 -> j
    | None, Some j -> invalid_arg (Printf.sprintf "Batch.run: jobs=%d" j)
    | None, None -> Domain_pool.available_cores ()
  in
  let slice =
    match slice with
    | Some s when s >= 1 -> s
    | Some s -> invalid_arg (Printf.sprintf "Batch.run: slice=%d" s)
    | None -> default_slice ~jobs requests
  in
  (* One cache for every course: a caller that passes none still gets
     verdicts shared across the batch. *)
  let cache = match cache with Some c -> c | None -> Fp_cache.create () in
  let start = Unix.gettimeofday () in
  (* One course per request, each with its own RNG and its own incumbent:
     whatever slice interleaving the queue produces, every instance's
     stream consumes exactly the draws a sequential [Pa_random.run] with
     the same seed would, and never sees another instance's incumbent —
     per-instance results are bit-identical by construction. The common
     [start] anchors every course's wall-clock budget at batch launch. *)
  let courses =
    Array.map
      (fun r ->
        Pa_random.Course.create ?config ~cache ~start
          ?cancel:r.cancel ~seed:r.seed ~min_iterations:r.min_iterations
          ~budget_seconds:r.budget_seconds r.instance)
      requests
  in
  let queue =
    {
      q_lock = Mutex.create ();
      q_cond = Condition.create ();
      q_ready = Queue.create ();
      q_remaining = Array.length courses;
    }
  in
  Array.iter (fun c -> Queue.push c queue.q_ready) courses;
  let worker _i = worker_loop queue ~slice in
  let worker_stats =
    if Array.length courses = 0 then [||]
    else if jobs = 1 then [| worker 0 |]
    else
      match pool with
      | Some p -> Domain_pool.Pool.map p worker
      | None -> Domain_pool.run ~jobs worker
  in
  let wall_seconds = Unix.gettimeofday () -. start in
  let outcomes = Array.map Pa_random.Course.outcome courses in
  let total_iterations =
    Array.fold_left
      (fun acc (o : Pa_random.outcome) -> acc + o.Pa_random.iterations)
      0 outcomes
  in
  let total_minor_words =
    Array.fold_left
      (fun acc (o : Pa_random.outcome) -> acc +. o.Pa_random.minor_words)
      0. outcomes
  in
  let total_slices =
    Array.fold_left (fun acc w -> acc + w.ws_slices) 0 worker_stats
  in
  ( outcomes,
    {
      jobs;
      slice;
      wall_seconds;
      total_iterations;
      total_slices;
      total_minor_words;
    } )
