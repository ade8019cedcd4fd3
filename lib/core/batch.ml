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
  wall_seconds : float;
  total_iterations : int;
  total_slices : int;
  total_minor_words : float;
}

(* Largest course first, by restarts times task count, ties in request
   order: a course starts only once a worker is free, so the longest ones
   should not be left for last. *)
let largest_first requests =
  let work r = r.min_iterations * Instance.size r.instance in
  let order = Array.init (Array.length requests) Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare (work requests.(b)) (work requests.(a)))
    order;
  order

let run ?cache ?jobs ?pool requests =
  let jobs = Domain_pool.fan_out_jobs ~caller:"Batch.run" ~jobs ~pool in
  (* One cache for every course: a caller that passes none still gets
     verdicts shared across the batch. *)
  let cache = match cache with Some c -> c | None -> Fp_cache.create () in
  let start = Unix.gettimeofday () in
  (* One course per request, each with its own RNG and its own incumbent:
     whichever worker runs it, every instance's stream consumes exactly
     the draws a sequential [Pa_random.run] with the same seed would, and
     never sees another instance's incumbent — per-instance results are
     bit-identical by construction. The common [start] anchors every
     course's wall-clock budget at batch launch. *)
  let courses =
    Array.map
      (fun r ->
        Pa_random.Course.create ~cache ~start
          ?cancel:r.cancel ~seed:r.seed ~min_iterations:r.min_iterations
          ~budget_seconds:r.budget_seconds r.instance)
      requests
  in
  let order = largest_first requests in
  let next = Atomic.make 0 in
  (* Each worker takes the next course off the shared cursor and runs it
     to its end; it returns the cancel polls it made. *)
  let worker _i =
    let rec loop polls =
      let k = Atomic.fetch_and_add next 1 in
      if k >= Array.length order then polls
      else loop (polls + Pa_random.Course.run_to_end courses.(order.(k)))
    in
    loop 0
  in
  let polls =
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
  ( outcomes,
    {
      jobs;
      wall_seconds;
      total_iterations;
      total_slices = Array.fold_left ( + ) 0 polls;
      total_minor_words;
    } )
