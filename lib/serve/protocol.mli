(** The jsonl wire protocol of [fpga_sched serve].

    One JSON object per line in both directions. Requests:
    {v
    {"op": "schedule", "id": "r1", "tenant": "teamA",
     "path": "inst.txt" | "instance": "arch processors 2 ...",
     "seed": 7, "min_iterations": 400, "budget_ms": 0,
     "deadline_ms": 2000, "emit_schedule": false}
    {"op": "metrics", "id": "m1"}
    {"op": "shutdown", "id": "q1"}
    v}
    Responses (one line each, in completion order — not submission
    order):
    {v
    {"id": "r1", "status": "ok", "tenant": "teamA", "makespan": 63,
     "iterations": 400, "degrade": 0, "effective_min_iterations": 400,
     "attempts": 1, "latency_ms": 12.4, "deadline_hit": false}
    {"id": "r2", "status": "rejected", "reason": "queue_full",
     "queue_depth": 64}
    {"id": "r3", "status": "error", "message": "...", "attempts": 3}
    {"id": "m1", "status": "metrics", "metrics": {...}}
    {"id": "q1", "status": "shutdown"}
    v}
    Every request gets exactly one response; load shedding is always a
    structured ["rejected"] line, never a silent drop. [degrade] is the
    graceful-degradation rung the request was served at (0 full PA-R
    budget, 1 reduced restarts, 2 [List_sched] heuristic only).
    [effective_min_iterations] [E] plus the request's [seed] [S] is the
    exact recipe to reproduce a rung-0 or rung-1 schedule of a request
    without [budget_ms] offline: [fpga_sched batch --out-dir DIR] on the
    one-line manifest
    [{"path": ..., "seed": S, "min_iterations": E, "budget_ms": 0}]
    writes the bytes of the response's ["schedule"] text. ([fpga_sched
    schedule] cannot: it has no restart count and runs to a wall-clock
    budget.) *)

type schedule_params = {
  tenant : string;  (** admission-quota bucket; default ["default"] *)
  seed : int option;
  min_iterations : int option;
  budget_ms : int option;
  deadline_ms : int option;
      (** response deadline relative to submission; past it the request
          is shed ([rejected]/[expired]) or its course cancelled at its
          next poll *)
  fail_attempts : int;
      (** test hook: fail the first N execution attempts (honored only
          when the server enables fault injection) *)
  emit_schedule : bool;
      (** include the full {!Resched_core.Schedule_io} text in the
          response *)
}

type source =
  | Inline of string  (** instance text embedded in the request *)
  | Path of string  (** instance file on the server's filesystem *)

type op =
  | Schedule of source * schedule_params
  | Metrics
  | Shutdown

type request = { id : string; op : op }

val parse_request : string -> (request, string) result
(** Parse one request line. [id] may be a JSON string or integer and
    defaults to [""]; unknown fields are ignored. *)

type reject_reason =
  | Queue_full
  | Tenant_quota
  | Expired
  | Shutting_down
  | Parse_error  (** the request line was not a valid request *)
  | Line_too_long
      (** the request line exceeded the transport's maximum line
          length; the oversized line is discarded but the connection
          stays open *)

val reject_reason_name : reject_reason -> string

type completion = {
  c_id : string;
  c_tenant : string;
  c_makespan : int option;
      (** [None] when no floorplannable schedule was found *)
  c_iterations : int;
  c_degrade : int;  (** 0 full, 1 reduced, 2 heuristic-only *)
  c_effective_min_iterations : int;
  c_attempts : int;
  c_latency_s : float;
  c_deadline_hit : bool;
      (** the course was cancelled at a poll by the deadline *)
  c_schedule : string option;
}

type response =
  | Completed of completion
  | Rejected of {
      id : string;
      reason : reject_reason;
      queue_depth : int;  (** admission-queue depth at the decision *)
    }
  | Failed of { id : string; message : string; attempts : int }
  | Metrics_reply of { id : string; body : Resched_util.Json.t }
  | Shutdown_ack of { id : string }

val response_to_line : response -> string
(** Compact single-line JSON, no trailing newline. *)
