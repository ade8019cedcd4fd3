(** The scheduling service engine behind [fpga_sched serve].

    A thread-safe request broker wrapping the solver stack
    ({!Resched_core.Pa_random} courses, {!Resched_baseline.List_sched}
    as the last degradation rung) behind bounded admission, per-tenant
    quotas, per-request deadline budgets and bounded retries. The
    engine is transport-agnostic: {!submit} feeds it parsed
    {!Protocol.request}s from any thread, completed
    {!Protocol.response}s come back through the [respond] callback, and
    the actual solving happens in whichever domains run {!work_loop}
    (e.g. the workers of one persistent
    {!Resched_util.Domain_pool.Pool}) — or cooperatively via {!step} on
    a single domain.

    {b Robustness contract.}
    - Every submitted request gets exactly one response; shedding is a
      structured [Rejected] line, never a silent drop.
    - The admission queue never holds more than [capacity] entries;
      beyond it (or a tenant's quota) requests are shed at submission.
    - A request past its deadline is shed if still queued, and an
      in-flight one is cancelled at the next {!Pa_random.Course} slice
      boundary — a worker is never hung by an expired request.
    - Worker failures are contained per request: the attempt is retried
      with exponential backoff (up to [max_retries], through a side
      queue that cannot evict fresh admissions) and then reported as a
      structured [Failed] response. The worker and its pool survive.
    - Degradation under load is explicit: the rung (0 full budget, 1
      restarts cut by [degrade_factor], 2 heuristic-only) is picked
      from the queue depth at dispatch — counting the request being
      dispatched — and reported in the response.
    - Dispatch is fair across sources: admitted requests queue per
      [source] (per connection under the multiplexing transport,
      per tenant otherwise) and workers drain the sources
      deficit-round-robin, so a source flooding the admission queue
      delays its own requests, not everyone else's.

    {b Determinism.} The engine shares one
    {!Resched_floorplan.Fp_cache} across requests, so a completed
    request at degradation rung 0 or 1 is bit-identical to an offline
    [Pa_random.run ~seed ~min_iterations:effective ~budget_seconds:0.]
    of the same instance whenever its budget is iteration-bounded
    (tested). An injectable [clock] makes deadline/backoff behaviour
    replayable in tests. *)

type config = {
  capacity : int;  (** admission-queue bound *)
  tenant_quota : int;  (** max in-flight requests per tenant *)
  degrade_low : int;  (** queue depth where rung 1 starts *)
  degrade_high : int;  (** queue depth where rung 2 starts *)
  degrade_factor : int;  (** restart-budget divisor at rung 1 *)
  slice : int;  (** course iterations between cancellation checks *)
  max_retries : int;  (** retries after the first failed attempt *)
  backoff_s : float;  (** base retry backoff, doubling per attempt *)
  default_seed : int;
  default_min_iterations : int;
  default_budget_s : float;
  default_deadline_s : float option;
      (** deadline for requests that do not carry one; [None] = none *)
  allow_fault_injection : bool;
      (** honor the protocol's [fail_attempts] test hook *)
  drr_quantum : int;
      (** deficit-round-robin units granted per source visit (requests
          are unit cost, so 1 = exact per-source round robin) *)
}

val config :
  ?capacity:int ->
  ?tenant_quota:int ->
  ?degrade_low:int ->
  ?degrade_high:int ->
  ?degrade_factor:int ->
  ?slice:int ->
  ?max_retries:int ->
  ?backoff_s:float ->
  ?default_seed:int ->
  ?default_min_iterations:int ->
  ?default_budget_s:float ->
  ?default_deadline_s:float ->
  ?allow_fault_injection:bool ->
  ?drr_quantum:int ->
  unit ->
  config
(** Defaults: capacity 64, quota = capacity (no per-tenant limit),
    rungs at capacity/4 and 3*capacity/4, factor 8, slice 16, 2
    retries from 50 ms backoff, seed 1, 200 restarts, no wall-clock
    budget, no default deadline, fault injection off, DRR quantum 1.
    Out-of-range values are clamped ([degrade_high >= degrade_low >=
    1]); [capacity < 1], [slice < 1], [degrade_factor < 1] and
    [drr_quantum < 1] raise [Invalid_argument]. *)

val default_config : config

type t

val create :
  ?clock:(unit -> float) ->
  ?cache:Resched_floorplan.Fp_cache.t ->
  respond:(Protocol.response -> unit) ->
  config ->
  t
(** [clock] (default [Unix.gettimeofday]) is the only time source the
    engine consults — deadlines, backoffs and latency stamps all read
    it, so tests drive a virtual clock. [cache] defaults to a fresh
    {!Resched_floorplan.Fp_cache}. [respond] is invoked exactly once
    per request, serialized under an internal lock, from whichever
    domain finished the request; it must not call back into this
    module, and exceptions it raises are swallowed. *)

val cache : t -> Resched_floorplan.Fp_cache.t

val submit :
  ?respond:(Protocol.response -> unit) ->
  ?source:string ->
  t ->
  Protocol.request ->
  unit
(** Admit (or shed) one request. [Metrics] and [Shutdown] are answered
    inline on the calling thread; [Schedule] requests are parsed,
    admission-checked and either enqueued or answered with a
    structured rejection immediately. Thread-safe.

    [respond] overrides the server-wide responder for every response
    this request produces — a multiplexing transport passes the
    submitting connection's writer. [source] names the
    deficit-round-robin dispatch queue the request joins (default
    ["tenant:<tenant>"]); a transport passes a per-connection key so
    one flooding connection cannot head-of-line-block the others. *)

val submit_line :
  ?respond:(Protocol.response -> unit) -> ?source:string -> t -> string -> unit
(** {!Protocol.parse_request} + {!submit}; malformed lines get a
    structured [Rejected] response with reason [parse_error] and an
    empty id (the connection stays usable). *)

val reject_oversized : ?respond:(Protocol.response -> unit) -> t -> unit
(** Transport hook: count and answer (reason [line_too_long], empty
    id) a request line that exceeded the framing limit and was
    discarded unread. *)

val close : t -> unit
(** Stop admitting [Schedule] requests (they shed as [Shutting_down]);
    already-accepted work still runs to a response. {!work_loop}s
    return once closed {e and} drained. *)

val closed : t -> bool

val drained : t -> bool
(** Closed, with every accepted request answered and no worker mid-
    request — the condition under which {!work_loop}s return and a
    transport may stop flushing. *)

val set_connection_stats : t -> (unit -> Resched_util.Json.t) -> unit
(** Register a transport's connection-stats provider; its result is
    embedded as the ["connections"] object of {!metrics}. The callback
    runs on whatever thread serves the metrics request and must not
    call back into this module. *)

val work_loop : t -> unit
(** Blocking worker body: repeatedly sweep expired queue entries, pick
    work (ready retries first, then the admission queue) and process
    it. Run it on any number of domains. Returns when the server is
    closed and every accepted request has been answered. *)

type step_result =
  | Did_work  (** one request was processed to its response *)
  | Backoff of float  (** only backed-off retries remain; seconds left *)
  | Idle  (** nothing to do right now *)
  | Drained  (** closed and everything answered *)

val step : t -> step_result
(** Non-blocking, single-request alternative to {!work_loop} for
    event-loop embedding (the CLI's [--jobs 1] mode) and for
    deterministic tests, which advance a virtual clock between
    steps. *)

val drain : t -> unit
(** Drive {!step} (sleeping through backoffs) until [Drained].
    Call after {!close}. *)

val sweep_expired : t -> int
(** Shed every queued request whose deadline has passed (structured
    [Expired] rejections); returns how many. Workers and {!step} sweep
    automatically; a transport loop should also call this on its poll
    tick so expirations are noticed while all workers are busy. *)

val metrics : t -> Resched_util.Json.t
(** The [metrics] response body: queue gauges, request/shed/degrade
    counters, retry and deadline counts, the completed-request latency
    histogram ({!Histogram.to_json}), the floorplan cache's hit, miss
    and insert counts, the DRR dispatch table (per-source queued/enqueued/
    dispatched fairness counters and their max/min), per-tenant
    in-flight occupancy, and — when a transport registered
    {!set_connection_stats} — per-connection transport counters. *)

val queue_depth : t -> int

val max_queue_depth : t -> int
(** High-water mark of the admission queue (including retries). *)
