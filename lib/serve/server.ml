module Json = Resched_util.Json
module Fp_cache = Resched_floorplan.Fp_cache
module Instance = Resched_platform.Instance
module Io = Resched_platform.Io
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module List_sched = Resched_baseline.List_sched

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  capacity : int;
  tenant_quota : int;
  degrade_low : int;
  degrade_high : int;
  degrade_factor : int;
  max_retries : int;
  backoff_s : float;
  default_seed : int;
  default_min_iterations : int;
  default_budget_s : float;
  default_deadline_s : float option;
  allow_fault_injection : bool;
}

let config ?(capacity = 64) ?tenant_quota ?degrade_low ?degrade_high
    ?(degrade_factor = 8) ?(max_retries = 2)
    ?(backoff_s = 0.05) ?(default_seed = 1) ?(default_min_iterations = 200)
    ?(default_budget_s = 0.) ?default_deadline_s
    ?(allow_fault_injection = false) () =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Server.config: capacity=%d" capacity);
  if degrade_factor < 1 then
    invalid_arg
      (Printf.sprintf "Server.config: degrade_factor=%d" degrade_factor);
  let tenant_quota =
    match tenant_quota with Some q -> Stdlib.max 1 q | None -> capacity
  in
  let degrade_low =
    match degrade_low with
    | Some v -> Stdlib.max 1 v
    | None -> Stdlib.max 1 (capacity / 4)
  in
  let degrade_high =
    match degrade_high with
    | Some v -> Stdlib.max degrade_low v
    | None -> Stdlib.max degrade_low (3 * capacity / 4)
  in
  {
    capacity;
    tenant_quota;
    degrade_low;
    degrade_high;
    degrade_factor;
    max_retries;
    backoff_s = Float.max 0. backoff_s;
    default_seed;
    default_min_iterations = Stdlib.max 1 default_min_iterations;
    default_budget_s = Float.max 0. default_budget_s;
    default_deadline_s;
    allow_fault_injection;
  }

(* ------------------------------------------------------------------ *)
(* State                                                               *)

(* One admitted schedule request. [e_attempt] is the attempt about to
   run (1-based); [e_not_before] gates a retry behind its backoff.
   [e_respond] is the responder the answer must go back through — with
   a multiplexing transport, the connection that submitted it. *)
type entry = {
  e_id : string;
  e_tenant : string;
  e_inst : Instance.t;
  e_seed : int;
  e_min_iterations : int;
  e_budget_s : float;
  e_deadline : float option;  (* absolute, server clock *)
  e_submitted : float;
  e_fail_attempts : int;
  e_emit : bool;
  e_respond : Protocol.response -> unit;
  mutable e_attempt : int;
  mutable e_not_before : float;
}

(* One dispatch source (a connection, or a tenant when the caller does
   not distinguish connections). Admitted entries queue per-source;
   [take_locked] serves the sources round robin so no single flooding
   source can head-of-line-block the rest. [s_in_rotation] means the
   source is in [rotation]. *)
type src = {
  s_key : string;
  s_q : entry Queue.t;
  mutable s_in_rotation : bool;
  mutable s_enqueued : int;  (* admitted, cumulative *)
  mutable s_dispatched : int;  (* handed to a worker, cumulative *)
}

type t = {
  cfg : config;
  clock : unit -> float;
  cache : Fp_cache.t;
  respond : Protocol.response -> unit;  (* default responder *)
  lock : Mutex.t;
  work : Condition.t;
  sources : (string, src) Hashtbl.t;
  rotation : src Queue.t;  (* active sources, round-robin order *)
  mutable pending_total : int;  (* admitted entries across sources *)
  mutable retrying : entry list;  (* backed-off retries, outside the bound *)
  tenants : (string, int) Hashtbl.t;  (* in-flight count per tenant *)
  mutable running : int;
  mutable is_closed : bool;
  mutable conn_stats : (unit -> Json.t) option;
  (* counters, all guarded by [lock] *)
  mutable submitted : int;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable parse_errors : int;
  mutable oversized_lines : int;
  mutable shed_queue_full : int;
  mutable shed_quota : int;
  mutable shed_expired : int;
  mutable shed_shutdown : int;
  degrade_counts : int array;  (* per rung 0..2, counted at completion *)
  mutable retries : int;
  mutable deadline_hits : int;
  mutable invalid_schedules : int;
  mutable max_depth : int;
  latency : Histogram.t;  (* completed requests only *)
  resp_lock : Mutex.t;
}

let create ?clock ~respond cfg =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    cfg;
    clock;
    cache = Fp_cache.create ();
    respond;
    lock = Mutex.create ();
    work = Condition.create ();
    sources = Hashtbl.create 16;
    rotation = Queue.create ();
    pending_total = 0;
    retrying = [];
    tenants = Hashtbl.create 16;
    running = 0;
    is_closed = false;
    conn_stats = None;
    submitted = 0;
    accepted = 0;
    completed = 0;
    failed = 0;
    parse_errors = 0;
    oversized_lines = 0;
    shed_queue_full = 0;
    shed_quota = 0;
    shed_expired = 0;
    shed_shutdown = 0;
    degrade_counts = Array.make 3 0;
    retries = 0;
    deadline_hits = 0;
    invalid_schedules = 0;
    max_depth = 0;
    latency = Histogram.create ();
    resp_lock = Mutex.create ();
  }

(* Responses are serialized under their own lock so lines never
   interleave, and delivery failures (a client that hung up) never
   poison the request that produced them. *)
let deliver t ~via resp =
  Mutex.lock t.resp_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.resp_lock)
    (fun () -> try via resp with _ -> ())

let tenant_inflight t tenant =
  Option.value (Hashtbl.find_opt t.tenants tenant) ~default:0

let tenant_add t tenant d =
  let v = tenant_inflight t tenant + d in
  if v <= 0 then Hashtbl.remove t.tenants tenant
  else Hashtbl.replace t.tenants tenant v

let depth_locked t = t.pending_total + List.length t.retrying

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let queue_depth t = with_lock t (fun () -> depth_locked t)

let max_queue_depth t = with_lock t (fun () -> t.max_depth)

let closed t = with_lock t (fun () -> t.is_closed)

let drained t =
  with_lock t (fun () ->
      t.is_closed && t.pending_total = 0 && t.retrying = [] && t.running = 0)

let close t =
  with_lock t (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.work)

let set_connection_stats t f =
  with_lock t (fun () -> t.conn_stats <- Some f)

(* ------------------------------------------------------------------ *)
(* Dispatch sources                                                    *)

let source_of_locked t key =
  match Hashtbl.find_opt t.sources key with
  | Some s -> s
  | None ->
    let s =
      {
        s_key = key;
        s_q = Queue.create ();
        s_in_rotation = false;
        s_enqueued = 0;
        s_dispatched = 0;
      }
    in
    Hashtbl.add t.sources key s;
    s

(* Idle sources keep their cumulative fairness counters in the table
   (the metrics endpoint reports them); only past this many known
   sources does connection churn start evicting empty idle ones, so a
   long-lived daemon stays bounded. *)
let max_idle_sources = 1024

let maybe_prune_locked t src =
  if
    Hashtbl.length t.sources > max_idle_sources
    && Queue.is_empty src.s_q
    && not src.s_in_rotation
  then Hashtbl.remove t.sources src.s_key

let enqueue_locked t src e =
  Queue.push e src.s_q;
  src.s_enqueued <- src.s_enqueued + 1;
  t.pending_total <- t.pending_total + 1;
  if not src.s_in_rotation then begin
    src.s_in_rotation <- true;
    Queue.push src t.rotation
  end

let deactivate_locked t src =
  src.s_in_rotation <- false;
  maybe_prune_locked t src

(* Round robin over the active sources: serve one request of the next
   source, and re-queue the source if it still has work. A source the
   expiry sweeper emptied is dropped from the rotation when its turn
   comes. Only called when [pending_total > 0], which guarantees the
   rotation holds a non-empty source. *)
let rec take_locked t =
  let src = Queue.pop t.rotation in
  if Queue.is_empty src.s_q then begin
    deactivate_locked t src;
    take_locked t
  end
  else begin
    let e = Queue.pop src.s_q in
    src.s_dispatched <- src.s_dispatched + 1;
    t.pending_total <- t.pending_total - 1;
    if Queue.is_empty src.s_q then deactivate_locked t src
    else Queue.push src t.rotation;
    e
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let cache_json c =
  let s = Fp_cache.stats c in
  Json.Obj
    [
      ("hits", Json.Int s.Fp_cache.hits);
      ("misses", Json.Int s.Fp_cache.misses);
      ("inserts", Json.Int s.Fp_cache.inserts);
      ("hit_rate", Json.float (Fp_cache.hit_rate s));
    ]

let dispatch_json_locked t =
  let srcs = Hashtbl.fold (fun _ s acc -> s :: acc) t.sources [] in
  let srcs = List.sort (fun a b -> compare a.s_key b.s_key) srcs in
  let served = List.filter (fun s -> s.s_dispatched > 0) srcs in
  let dmax = List.fold_left (fun m s -> Stdlib.max m s.s_dispatched) 0 served in
  let dmin =
    match served with
    | [] -> 0
    | _ -> List.fold_left (fun m s -> Stdlib.min m s.s_dispatched) max_int served
  in
  Json.Obj
    [
      ( "active_sources",
        Json.Int (List.length (List.filter (fun s -> s.s_in_rotation) srcs)) );
      ("known_sources", Json.Int (List.length srcs));
      ("dispatched_max", Json.Int dmax);
      ("dispatched_min", Json.Int dmin);
      ( "sources",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("source", Json.String s.s_key);
                   ("queued", Json.Int (Queue.length s.s_q));
                   ("enqueued", Json.Int s.s_enqueued);
                   ("dispatched", Json.Int s.s_dispatched);
                 ])
             srcs) );
    ]

let metrics t =
  with_lock t (fun () ->
      Json.Obj
        ([
           ("schema", Json.String "resched-serve-metrics/4");
           ( "queue",
             Json.Obj
               [
                 ("depth", Json.Int (depth_locked t));
                 ("pending", Json.Int t.pending_total);
                 ("retrying", Json.Int (List.length t.retrying));
                 ("running", Json.Int t.running);
                 ("capacity", Json.Int t.cfg.capacity);
                 ("max_depth", Json.Int t.max_depth);
               ] );
           ( "requests",
             Json.Obj
               [
                 ("submitted", Json.Int t.submitted);
                 ("accepted", Json.Int t.accepted);
                 ("completed", Json.Int t.completed);
                 ("failed", Json.Int t.failed);
                 ("parse_errors", Json.Int t.parse_errors);
                 ("oversized_lines", Json.Int t.oversized_lines);
               ] );
           ( "shed",
             Json.Obj
               [
                 ("queue_full", Json.Int t.shed_queue_full);
                 ("tenant_quota", Json.Int t.shed_quota);
                 ("expired", Json.Int t.shed_expired);
                 ("shutting_down", Json.Int t.shed_shutdown);
               ] );
           ( "degrade",
             Json.Obj
               [
                 ("full", Json.Int t.degrade_counts.(0));
                 ("reduced", Json.Int t.degrade_counts.(1));
                 ("heuristic", Json.Int t.degrade_counts.(2));
               ] );
           ("dispatch", dispatch_json_locked t);
           ( "tenants",
             Json.Obj
               (List.sort compare
                  (Hashtbl.fold
                     (fun k v acc -> (k, Json.Int v) :: acc)
                     t.tenants [])) );
           ("deadline_hits", Json.Int t.deadline_hits);
           ("retries", Json.Int t.retries);
           ("invalid_schedules", Json.Int t.invalid_schedules);
           ("latency", Histogram.to_json t.latency);
           ("fp_cache", cache_json t.cache);
         ]
        @
        match t.conn_stats with
        | Some f -> [ ("connections", (try f () with _ -> Json.Null)) ]
        | None -> []))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let load_instance source =
  try
    match source with
    | Protocol.Inline s -> Io.of_string s
    | Protocol.Path p -> Io.load p
  with Sys_error m -> Error m

let reject t ~via ~id ~reason ~depth =
  deliver t ~via (Protocol.Rejected { id; reason; queue_depth = depth })

(* [submit] with the responder [via] for every response the request
   produces. *)
let admit ~via ?source t (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Metrics ->
    deliver t ~via
      (Protocol.Metrics_reply { id = req.Protocol.id; body = metrics t })
  | Protocol.Shutdown ->
    close t;
    deliver t ~via (Protocol.Shutdown_ack { id = req.Protocol.id })
  | Protocol.Schedule (src_spec, p) -> (
    (* Parse/load the instance before touching server state, so a
       malformed request costs admission nothing. *)
    match load_instance src_spec with
    | Error e ->
      with_lock t (fun () ->
          t.submitted <- t.submitted + 1;
          t.parse_errors <- t.parse_errors + 1);
      deliver t ~via
        (Protocol.Failed
           {
             id = req.Protocol.id;
             message = "instance: " ^ e;
             attempts = 0;
           })
    | Ok inst ->
      let now = t.clock () in
      let skey =
        match source with
        | Some s -> s
        | None -> "tenant:" ^ p.Protocol.tenant
      in
      let verdict =
        with_lock t (fun () ->
            t.submitted <- t.submitted + 1;
            if t.is_closed then begin
              t.shed_shutdown <- t.shed_shutdown + 1;
              `Reject (Protocol.Shutting_down, depth_locked t)
            end
            else if t.pending_total >= t.cfg.capacity then begin
              t.shed_queue_full <- t.shed_queue_full + 1;
              `Reject (Protocol.Queue_full, depth_locked t)
            end
            else if tenant_inflight t p.Protocol.tenant >= t.cfg.tenant_quota
            then begin
              t.shed_quota <- t.shed_quota + 1;
              `Reject (Protocol.Tenant_quota, depth_locked t)
            end
            else begin
              let e =
                {
                  e_id = req.Protocol.id;
                  e_tenant = p.Protocol.tenant;
                  e_inst = inst;
                  e_seed =
                    Option.value p.Protocol.seed ~default:t.cfg.default_seed;
                  e_min_iterations =
                    Stdlib.max 1
                      (Option.value p.Protocol.min_iterations
                         ~default:t.cfg.default_min_iterations);
                  e_budget_s =
                    (match p.Protocol.budget_ms with
                    | Some b -> Float.max 0. (float_of_int b /. 1000.)
                    | None -> t.cfg.default_budget_s);
                  e_deadline =
                    (match p.Protocol.deadline_ms with
                    | Some d -> Some (now +. (float_of_int d /. 1000.))
                    | None ->
                      Option.map (fun d -> now +. d) t.cfg.default_deadline_s);
                  e_submitted = now;
                  e_fail_attempts =
                    (if t.cfg.allow_fault_injection then
                       p.Protocol.fail_attempts
                     else 0);
                  e_emit = p.Protocol.emit_schedule;
                  e_respond = via;
                  e_attempt = 1;
                  e_not_before = 0.;
                }
              in
              t.accepted <- t.accepted + 1;
              tenant_add t p.Protocol.tenant 1;
              enqueue_locked t (source_of_locked t skey) e;
              let d = depth_locked t in
              if d > t.max_depth then t.max_depth <- d;
              Condition.signal t.work;
              `Accepted
            end)
      in
      (match verdict with
      | `Accepted -> ()
      | `Reject (reason, depth) ->
        reject t ~via ~id:req.Protocol.id ~reason ~depth))

let submit t req = admit ~via:t.respond t req

let submit_line ?respond ?source t line =
  let via = match respond with Some r -> r | None -> t.respond in
  match Protocol.parse_request line with
  | Ok req -> admit ~via ?source t req
  | Error _ ->
    let depth =
      with_lock t (fun () ->
          t.parse_errors <- t.parse_errors + 1;
          depth_locked t)
    in
    reject t ~via ~id:"" ~reason:Protocol.Parse_error ~depth

(* Transport hook: a line exceeded the framing limit and was discarded
   before it could even be parsed — answer with a structured rejection
   on the connection that sent it, keeping the connection alive. *)
let reject_oversized ?respond t =
  let via = match respond with Some r -> r | None -> t.respond in
  let depth =
    with_lock t (fun () ->
        t.oversized_lines <- t.oversized_lines + 1;
        depth_locked t)
  in
  reject t ~via ~id:"" ~reason:Protocol.Line_too_long ~depth

(* ------------------------------------------------------------------ *)
(* Deadline sweeping                                                   *)

(* Requests whose deadline passed while still queued are shed here, not
   at dispatch, so their [rejected]/[expired] line goes out as soon as a
   sweeper notices — workers sweep before picking work, and the
   transport sweeps on every poll tick. Sources left empty by the sweep
   are deactivated lazily by the next [take_locked] scan. *)
let sweep_expired t =
  let expired =
    with_lock t (fun () ->
        let now = t.clock () in
        let live e =
          match e.e_deadline with Some d -> now < d | None -> true
        in
        let dead = ref [] in
        Hashtbl.iter
          (fun _ src ->
            if not (Queue.is_empty src.s_q) then begin
              let before = Queue.length src.s_q in
              let keep = Queue.create () in
              Queue.iter
                (fun e ->
                  if live e then Queue.push e keep else dead := e :: !dead)
                src.s_q;
              if Queue.length keep <> before then begin
                t.pending_total <-
                  t.pending_total - (before - Queue.length keep);
                Queue.clear src.s_q;
                Queue.transfer keep src.s_q
              end
            end)
          t.sources;
        let keep_r, dead_r = List.partition live t.retrying in
        t.retrying <- keep_r;
        let dead = List.rev !dead @ dead_r in
        List.iter
          (fun e ->
            tenant_add t e.e_tenant (-1);
            t.shed_expired <- t.shed_expired + 1)
          dead;
        List.map (fun e -> (e, depth_locked t)) dead)
  in
  List.iter
    (fun (e, depth) ->
      reject t ~via:e.e_respond ~id:e.e_id ~reason:Protocol.Expired ~depth)
    expired;
  List.length expired

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* The degradation rung is chosen from the queue depth left behind at
   dispatch: a deep backlog means every queued request is burning its
   deadline budget waiting, so the one being served gets a cheaper
   recipe. The rung (and the effective budget it implies) is reported
   in the response — a degraded answer is never silent. *)
let degrade_level cfg ~depth =
  if depth >= cfg.degrade_high then 2
  else if depth >= cfg.degrade_low then 1
  else 0

let effective_budget cfg e ~level =
  match level with
  | 2 -> (0, 0.)
  | 1 ->
    ( Stdlib.max 1 (e.e_min_iterations / cfg.degrade_factor),
      e.e_budget_s /. float_of_int cfg.degrade_factor )
  | _ -> (e.e_min_iterations, e.e_budget_s)

(* One execution attempt. Returns the completion to deliver; raises on
   worker failure (injected faults and real ones alike) — the caller
   owns retry policy. *)
let run_attempt t e ~level ~eff_iters ~eff_budget =
  if t.cfg.allow_fault_injection && e.e_attempt <= e.e_fail_attempts then
    failwith (Printf.sprintf "injected fault (attempt %d)" e.e_attempt);
  let deadline_hit = ref false in
  let schedule, iterations =
    if level = 2 then (Some (List_sched.run ~cache:t.cache e.e_inst), 0)
    else begin
      let cancel =
        Option.map
          (fun d () ->
            if t.clock () >= d then begin
              deadline_hit := true;
              true
            end
            else false)
          e.e_deadline
      in
      let course =
        Pa_random.Course.create ~cache:t.cache ?cancel ~seed:e.e_seed
          ~min_iterations:eff_iters ~budget_seconds:eff_budget e.e_inst
      in
      ignore (Pa_random.Course.run_to_end course : int);
      let o = Pa_random.Course.outcome course in
      (o.Pa_random.schedule, o.Pa_random.iterations)
    end
  in
  let makespan, sched_text =
    match schedule with
    | None -> (None, None)
    | Some s -> (
      (* Independent re-check of every schedule that leaves the service:
         an invalid one becomes a structured failure, never an "ok". *)
      match Validate.check s with
      | Ok () ->
        ( Some s.Schedule.makespan,
          if e.e_emit then Some (Schedule_io.to_string s) else None )
      | Error violations ->
        with_lock t (fun () ->
            t.invalid_schedules <- t.invalid_schedules + 1);
        raise (Validate.Invalid violations))
  in
  (makespan, iterations, sched_text, !deadline_hit)

let complete t e ~level ~eff_iters (makespan, iterations, sched_text, hit) =
  let latency =
    with_lock t (fun () ->
        tenant_add t e.e_tenant (-1);
        t.completed <- t.completed + 1;
        t.degrade_counts.(level) <- t.degrade_counts.(level) + 1;
        if hit then t.deadline_hits <- t.deadline_hits + 1;
        let lat = t.clock () -. e.e_submitted in
        Histogram.add t.latency lat;
        lat)
  in
  deliver t ~via:e.e_respond
    (Protocol.Completed
       {
         Protocol.c_id = e.e_id;
         c_tenant = e.e_tenant;
         c_makespan = makespan;
         c_iterations = iterations;
         c_degrade = level;
         c_effective_min_iterations = eff_iters;
         c_attempts = e.e_attempt;
         c_latency_s = latency;
         c_deadline_hit = hit;
         c_schedule = sched_text;
       })

(* Crash containment: any exception out of an attempt is caught here —
   the worker survives, the request alone retries (exponential backoff,
   through the unbounded [retrying] side-queue so a storm of retries
   can never evict fresh admissions) or fails with a structured error
   once its retry budget or deadline is spent. *)
let handle_failure t e exn =
  let msg = Printexc.to_string exn in
  let now = t.clock () in
  let deadline_ok =
    match e.e_deadline with None -> true | Some d -> now < d
  in
  let retry =
    with_lock t (fun () ->
        if e.e_attempt <= t.cfg.max_retries && deadline_ok then begin
          t.retries <- t.retries + 1;
          e.e_attempt <- e.e_attempt + 1;
          e.e_not_before <-
            now +. (t.cfg.backoff_s *. (2. ** float_of_int (e.e_attempt - 2)));
          t.retrying <- t.retrying @ [ e ];
          Condition.signal t.work;
          true
        end
        else begin
          tenant_add t e.e_tenant (-1);
          t.failed <- t.failed + 1;
          false
        end)
  in
  if not retry then
    deliver t ~via:e.e_respond
      (Protocol.Failed { id = e.e_id; message = msg; attempts = e.e_attempt })

let process_entry t e ~depth =
  let now = t.clock () in
  match e.e_deadline with
  | Some d when now >= d ->
    (* Expired while queued and missed by the sweepers: still a
       structured rejection, never silently dropped. *)
    with_lock t (fun () ->
        tenant_add t e.e_tenant (-1);
        t.shed_expired <- t.shed_expired + 1);
    reject t ~via:e.e_respond ~id:e.e_id ~reason:Protocol.Expired ~depth
  | _ -> (
    let level = degrade_level t.cfg ~depth in
    let eff_iters, eff_budget = effective_budget t.cfg e ~level in
    match run_attempt t e ~level ~eff_iters ~eff_budget with
    | result -> complete t e ~level ~eff_iters result
    | exception exn -> handle_failure t e exn)

(* ------------------------------------------------------------------ *)
(* Work loops                                                          *)

type picked =
  | P_entry of entry * int
  | P_backoff of float
  | P_idle
  | P_drained

let pick_locked t =
  let now = t.clock () in
  let ready, waiting =
    List.partition (fun e -> e.e_not_before <= now) t.retrying
  in
  (* Dispatch depth is measured before removing the entry: the rung a
     request is served at reflects the load it was part of, and the
     choice is explicit rather than left to argument evaluation
     order. *)
  match ready with
  | e :: rest ->
    let depth = depth_locked t in
    t.retrying <- rest @ waiting;
    P_entry (e, depth)
  | [] ->
    if t.pending_total > 0 then begin
      let depth = depth_locked t in
      P_entry (take_locked t, depth)
    end
    else if waiting <> [] then
      P_backoff
        (List.fold_left
           (fun acc e -> Float.min acc (e.e_not_before -. now))
           infinity waiting)
    else if t.is_closed && t.running = 0 then P_drained
    else P_idle

type step_result = Did_work | Backoff of float | Idle | Drained

let step t =
  ignore (sweep_expired t : int);
  Mutex.lock t.lock;
  match pick_locked t with
  | P_drained ->
    Mutex.unlock t.lock;
    Drained
  | P_idle ->
    Mutex.unlock t.lock;
    Idle
  | P_backoff d ->
    Mutex.unlock t.lock;
    Backoff d
  | P_entry (e, depth) ->
    t.running <- t.running + 1;
    Mutex.unlock t.lock;
    Fun.protect
      ~finally:(fun () ->
        with_lock t (fun () ->
            t.running <- t.running - 1;
            Condition.broadcast t.work))
      (fun () -> process_entry t e ~depth);
    Did_work

let work_loop t =
  let rec loop () =
    ignore (sweep_expired t : int);
    Mutex.lock t.lock;
    let rec decide () =
      match pick_locked t with
      | P_drained ->
        (* Wake siblings blocked in P_idle so they observe the drain. *)
        Condition.broadcast t.work;
        Mutex.unlock t.lock;
        `Stop
      | P_idle ->
        Condition.wait t.work t.lock;
        decide ()
      | P_backoff d ->
        Mutex.unlock t.lock;
        `Sleep d
      | P_entry (e, depth) ->
        t.running <- t.running + 1;
        Mutex.unlock t.lock;
        `Work (e, depth)
    in
    match decide () with
    | `Stop -> ()
    | `Sleep d ->
      (* Capped nap: a fresh submission or close must be noticed soon
         even though sleepers do not sit on the condition variable. *)
      Unix.sleepf (Float.max 0.001 (Float.min d 0.05));
      loop ()
    | `Work (e, depth) ->
      Fun.protect
        ~finally:(fun () ->
          with_lock t (fun () ->
              t.running <- t.running - 1;
              Condition.broadcast t.work))
        (fun () -> process_entry t e ~depth);
      loop ()
  in
  loop ()
