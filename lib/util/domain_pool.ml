let available_cores () = Domain.recommended_domain_count ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Honest parallelism planning                                         *)

type plan = { requested : int; effective : int; cores : int }

let plan_jobs ~requested () =
  if requested < 1 then
    invalid_arg "Domain_pool.plan_jobs: requested must be >= 1";
  let cores = available_cores () in
  { requested; effective = Stdlib.max 1 (Stdlib.min requested cores); cores }

let downgraded p = p.effective < p.requested

let warn_downgrade ?(out = stderr) ~label p =
  if downgraded p then begin
    Printf.fprintf out
      "\n\
       !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\
       !! PARALLELISM DOWNGRADED: %s\n\
       !! requested jobs=%d but only %d core(s) are available;\n\
       !! running with jobs=%d instead.\n\
       !! This is NOT a parallel run of the requested width — do not\n\
       !! report its numbers as a jobs=%d comparison.\n\
       !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\
       %!"
      label p.requested p.cores p.effective p.requested
  end

(* ------------------------------------------------------------------ *)
(* Persistent pool                                                     *)

module Pool = struct
  type state = Idle | Dispatched of (int -> unit) | Stopping

  type t = {
    p_jobs : int;
    lock : Mutex.t;
    start : Condition.t;  (* new task or shutdown *)
    finished : Condition.t;  (* a worker completed the current task *)
    mutable state : state;
    mutable generation : int;  (* bumped per dispatch *)
    mutable pending : int;  (* resident workers still on the current task *)
    mutable busy : bool;  (* a map is in flight (reentrancy guard) *)
    mutable shut : bool;
    mutable domains : unit Domain.t array;
  }

  let worker_loop t i =
    let rec wait_for_work seen_gen =
      Mutex.lock t.lock;
      while
        (match t.state with Stopping -> false | Idle | Dispatched _ -> true)
        && t.generation = seen_gen
      do
        Condition.wait t.start t.lock
      done;
      match t.state with
      | Stopping ->
        Mutex.unlock t.lock;
        ()
      | Idle ->
        (* generation moved but the task is already gone: a spurious
           wake-up after completion; keep waiting on the new generation. *)
        let gen = t.generation in
        Mutex.unlock t.lock;
        wait_for_work gen
      | Dispatched task ->
        let gen = t.generation in
        Mutex.unlock t.lock;
        (* [task] never raises: [map] wraps the job in a result cell. *)
        task i;
        Mutex.lock t.lock;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.finished;
        Mutex.unlock t.lock;
        wait_for_work gen
    in
    wait_for_work 0

  let create ~jobs () =
    if jobs < 1 then invalid_arg "Domain_pool.Pool.create: jobs must be >= 1";
    let t =
      {
        p_jobs = jobs;
        lock = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        state = Idle;
        generation = 0;
        pending = 0;
        busy = false;
        shut = false;
        domains = [||];
      }
    in
    t.domains <-
      Array.init (jobs - 1) (fun k ->
          Domain.spawn (fun () -> worker_loop t (k + 1)));
    t

  let jobs t = t.p_jobs

  let map t f =
    with_lock t.lock (fun () ->
        if t.shut then invalid_arg "Domain_pool.Pool.map: pool is shut down";
        if t.busy then invalid_arg "Domain_pool.Pool.map: pool is busy";
        t.busy <- true);
    let results = Array.make t.p_jobs None in
    let task i = results.(i) <- Some (try Ok (f i) with e -> Error e) in
    if t.p_jobs > 1 then
      with_lock t.lock (fun () ->
          t.state <- Dispatched task;
          t.pending <- t.p_jobs - 1;
          t.generation <- t.generation + 1;
          Condition.broadcast t.start);
    (* The caller is always worker 0 (like [run]): sequential replays
       behave identically whether or not a pool is in use. *)
    task 0;
    if t.p_jobs > 1 then
      with_lock t.lock (fun () ->
          while t.pending > 0 do
            Condition.wait t.finished t.lock
          done;
          t.state <- Idle);
    with_lock t.lock (fun () -> t.busy <- false);
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every index ran *))
      results

  let run_chunked t ?chunk ~n body =
    if n < 0 then invalid_arg "Domain_pool.Pool.run_chunked: n must be >= 0";
    if n > 0 then begin
      let chunk =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ -> invalid_arg "Domain_pool.Pool.run_chunked: chunk must be >= 1"
        | None -> Stdlib.max 1 (n / (t.p_jobs * 8))
      in
      let cursor = Atomic.make 0 in
      ignore
        (map t (fun _ ->
             let continue = ref true in
             while !continue do
               let lo = Atomic.fetch_and_add cursor chunk in
               if lo >= n then continue := false
               else
                 for i = lo to Stdlib.min (lo + chunk) n - 1 do
                   body i
                 done
             done))
    end

  let shutdown t =
    let joinable =
      with_lock t.lock (fun () ->
          if t.shut then false
          else begin
            t.shut <- true;
            t.state <- Stopping;
            t.generation <- t.generation + 1;
            Condition.broadcast t.start;
            true
          end)
    in
    if joinable then Array.iter Domain.join t.domains
end

(* ------------------------------------------------------------------ *)
(* One-shot fan-outs                                                   *)

let run ~jobs f =
  if jobs < 1 then invalid_arg "Domain_pool.run: jobs must be >= 1";
  let pool = Pool.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> Pool.map pool f)

let fan_out_jobs ~caller ~jobs ~pool =
  match (pool, jobs) with
  | Some p, Some j when j <> Pool.jobs p ->
    invalid_arg
      (Printf.sprintf "%s: jobs=%d but the pool has %d worker(s)" caller j
         (Pool.jobs p))
  | Some p, _ -> Pool.jobs p
  | None, Some j when j >= 1 -> j
  | None, Some j -> invalid_arg (Printf.sprintf "%s: jobs=%d" caller j)
  | None, None -> available_cores ()
