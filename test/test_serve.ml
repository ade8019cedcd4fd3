(* Tests for the serve layer (lib/serve): wire protocol, latency
   histogram, admission control with per-tenant quotas, deadline
   budgets (queued and mid-run), the graceful-degradation ladder,
   retry-with-backoff with crash containment, and a PipelineKit-style
   deterministic overload script asserting the ISSUE 9 acceptance
   criteria — queue bound never exceeded, shedding structured and
   quota-respecting, accepted requests bit-identical to offline
   [Pa_random.run] at the same seed and effective budget.

   Everything here is single-threaded and clock-virtualized: the server
   is driven by [Server.step] and reads time only through the injected
   clock, so arrival times, expirations and backoffs replay exactly. *)

module Json = Resched_util.Json
module Rng = Resched_util.Rng
module Fp_cache = Resched_floorplan.Fp_cache
module Suite = Resched_platform.Suite
module Io = Resched_platform.Io
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module List_sched = Resched_baseline.List_sched
module Histogram = Resched_serve.Histogram
module Protocol = Resched_serve.Protocol
module Server = Resched_serve.Server

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

type sim = {
  srv : Server.t;
  clock : float ref;
  responses : Protocol.response list ref;  (* newest first *)
}

(* A server over a manual clock: time moves only when the test says so. *)
let make_sim cfg =
  let clock = ref 0. in
  let responses = ref [] in
  let srv =
    Server.create
      ~clock:(fun () -> !clock)
      ~respond:(fun r -> responses := r :: !responses)
      cfg
  in
  { srv; clock; responses }

(* A server over a self-advancing clock: every read ticks [dt] forward,
   so an in-flight course observes time passing between its polls and
   mid-run deadline cancellation becomes reproducible. *)
let make_ticking_sim ~dt cfg =
  let clock = ref 0. in
  let responses = ref [] in
  let srv =
    Server.create
      ~clock:(fun () ->
        clock := !clock +. dt;
        !clock)
      ~respond:(fun r -> responses := r :: !responses)
      cfg
  in
  { srv; clock; responses }

let params ?(tenant = "default") ?seed ?min_iterations ?budget_ms
    ?deadline_ms ?(fail_attempts = 0) ?(emit = true) () =
  {
    Protocol.tenant;
    seed;
    min_iterations;
    budget_ms;
    deadline_ms;
    fail_attempts;
    emit_schedule = emit;
  }

let submit_inst sim ~id inst p =
  Server.submit sim.srv
    {
      Protocol.id;
      op = Protocol.Schedule (Protocol.Inline (Io.to_string inst), p);
    }

(* Close and step until drained, advancing the virtual clock through
   retry backoffs. *)
let drain_sim sim =
  Server.close sim.srv;
  let rec go guard =
    if guard = 0 then Alcotest.fail "drain did not converge";
    match Server.step sim.srv with
    | Server.Drained -> ()
    | Server.Did_work -> go (guard - 1)
    | Server.Backoff d ->
      sim.clock := !(sim.clock) +. d +. 1e-6;
      go (guard - 1)
    | Server.Idle -> Alcotest.fail "idle while draining a closed server"
  in
  go 10_000

let response_id = function
  | Protocol.Completed c -> c.Protocol.c_id
  | Protocol.Rejected { id; _ }
  | Protocol.Failed { id; _ }
  | Protocol.Metrics_reply { id; _ }
  | Protocol.Shutdown_ack { id } ->
    id

let find_response sim id =
  match
    List.find_opt (fun r -> response_id r = id) !(sim.responses)
  with
  | Some r -> r
  | None -> Alcotest.failf "no response for %s" id

let completion sim id =
  match find_response sim id with
  | Protocol.Completed c -> c
  | r -> Alcotest.failf "%s: expected ok, got %s" id (Protocol.response_to_line r)

let rejection sim id =
  match find_response sim id with
  | Protocol.Rejected { reason; queue_depth; _ } -> (reason, queue_depth)
  | r ->
    Alcotest.failf "%s: expected rejected, got %s" id
      (Protocol.response_to_line r)

(* The offline oracle at the effective budget the server reports: same
   seed, effective_min_iterations restarts, no wall-clock budget, a
   fresh cache (bit-identical to the server's shared one by the
   Batch/Fp_cache contract). *)
let offline inst ~seed ~min_iterations =
  Pa_random.run ~cache:(Fp_cache.create ()) ~seed ~min_iterations
    ~budget_seconds:0. inst

let check_identity ~what inst ~seed (c : Protocol.completion) =
  if c.Protocol.c_degrade = 2 then begin
    let s = List_sched.run ~cache:(Fp_cache.create ()) inst in
    Alcotest.(check (option int))
      (what ^ ": heuristic-rung makespan = offline List_sched")
      (Some (Schedule.makespan s))
      c.Protocol.c_makespan;
    match c.Protocol.c_schedule with
    | Some text ->
      Alcotest.(check string)
        (what ^ ": heuristic-rung schedule text bit-identical")
        (Schedule_io.to_string s) text
    | None -> ()
  end
  else begin
    let o =
      offline inst ~seed ~min_iterations:c.Protocol.c_effective_min_iterations
    in
    Alcotest.(check int)
      (what ^ ": iterations = offline")
      o.Pa_random.iterations c.Protocol.c_iterations;
    match (o.Pa_random.schedule, c.Protocol.c_makespan, c.Protocol.c_schedule)
    with
    | Some s, Some m, Some text ->
      Alcotest.(check int)
        (what ^ ": makespan = offline")
        (Schedule.makespan s) m;
      Alcotest.(check string)
        (what ^ ": schedule text bit-identical to offline")
        (Schedule_io.to_string s) text;
      (match Schedule_io.of_string text with
      | Ok parsed ->
        Alcotest.(check bool)
          (what ^ ": served schedule passes Validate.check")
          true
          (Validate.check parsed = Ok ())
      | Error e -> Alcotest.failf "%s: served schedule unparseable: %s" what e)
    | None, None, None -> ()
    | _ -> Alcotest.failf "%s: schedule presence mismatch vs offline" what
  end

let instance k ~tasks = Suite.instance (Rng.create k) ~tasks

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_parse () =
  (match
     Protocol.parse_request
       {|{"op":"schedule","id":"r1","tenant":"teamA","path":"x.inst","seed":7,"min_iterations":40,"budget_ms":250,"deadline_ms":2000,"fail_attempts":2,"emit_schedule":true}|}
   with
  | Ok { Protocol.id = "r1"; op = Protocol.Schedule (Protocol.Path "x.inst", p) }
    ->
    Alcotest.(check string) "tenant" "teamA" p.Protocol.tenant;
    Alcotest.(check (option int)) "seed" (Some 7) p.Protocol.seed;
    Alcotest.(check (option int)) "min_iterations" (Some 40)
      p.Protocol.min_iterations;
    Alcotest.(check (option int)) "budget_ms" (Some 250) p.Protocol.budget_ms;
    Alcotest.(check (option int)) "deadline_ms" (Some 2000)
      p.Protocol.deadline_ms;
    Alcotest.(check int) "fail_attempts" 2 p.Protocol.fail_attempts;
    Alcotest.(check bool) "emit_schedule" true p.Protocol.emit_schedule
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_request {|{"op":"schedule","id":3,"instance":"x"}|} with
  | Ok { Protocol.id = "3"; op = Protocol.Schedule (Protocol.Inline "x", p) } ->
    Alcotest.(check string) "default tenant" "default" p.Protocol.tenant;
    Alcotest.(check (option int)) "no seed" None p.Protocol.seed;
    Alcotest.(check bool) "no schedule emission" false p.Protocol.emit_schedule
  | Ok _ -> Alcotest.fail "wrong shape for integer id"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_request {|{"op":"metrics","id":"m"}|} with
  | Ok { Protocol.id = "m"; op = Protocol.Metrics } -> ()
  | _ -> Alcotest.fail "metrics");
  (match Protocol.parse_request {|{"op":"shutdown"}|} with
  | Ok { Protocol.id = ""; op = Protocol.Shutdown } -> ()
  | _ -> Alcotest.fail "shutdown with defaulted id");
  let is_error s =
    match Protocol.parse_request s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "garbage rejected" true (is_error "not json");
  Alcotest.(check bool) "missing op rejected" true (is_error {|{"id":"x"}|});
  Alcotest.(check bool) "unknown op rejected" true (is_error {|{"op":"dance"}|});
  Alcotest.(check bool) "schedule without source rejected" true
    (is_error {|{"op":"schedule","id":"x"}|})

let test_protocol_responses () =
  let field name r =
    match Json.parse (Protocol.response_to_line r) with
    | Ok j -> Option.bind (Json.member name j) Json.get_string
    | Error e -> Alcotest.fail e
  in
  let status = field "status" in
  let completed =
    Protocol.Completed
      {
        Protocol.c_id = "a";
        c_tenant = "t";
        c_makespan = Some 5;
        c_iterations = 10;
        c_degrade = 1;
        c_effective_min_iterations = 2;
        c_attempts = 1;
        c_latency_s = 0.25;
        c_deadline_hit = false;
        c_schedule = Some "line1\nline2";
      }
  in
  Alcotest.(check (option string)) "ok" (Some "ok") (status completed);
  Alcotest.(check bool) "single line even with embedded newlines" true
    (not (String.contains (Protocol.response_to_line completed) '\n'));
  Alcotest.(check (option string)) "rejected" (Some "rejected")
    (status
       (Protocol.Rejected
          { id = "b"; reason = Protocol.Queue_full; queue_depth = 4 }));
  Alcotest.(check (option string)) "error" (Some "error")
    (status (Protocol.Failed { id = "c"; message = "boom"; attempts = 3 }));
  Alcotest.(check (option string)) "metrics" (Some "metrics")
    (status (Protocol.Metrics_reply { id = "d"; body = Json.Obj [] }));
  Alcotest.(check (option string)) "shutdown" (Some "shutdown")
    (status (Protocol.Shutdown_ack { id = "e" }));
  Alcotest.(check (option string)) "id" (Some "b")
    (field "id"
       (Protocol.Rejected
          { id = "b"; reason = Protocol.Expired; queue_depth = 0 }))

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty quantile" true (Histogram.quantile h 0.5 = 0.);
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.quantile h 0.5
  and p95 = Histogram.quantile h 0.95
  and p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p95 && p95 <= p99);
  (* Geometric buckets: each quantile is an upper bound within one
     doubling of the true value. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 in [0.5, 1.024] (got %g)" p50)
    true
    (p50 >= 0.5 && p50 <= 1.024);
  Alcotest.(check bool) "p99 bounded by max" true
    (p99 <= Histogram.max_seconds h +. 1e-9);
  Alcotest.(check bool) "max" true (Histogram.max_seconds h = 1.);
  match Histogram.to_json h with
  | Json.Obj fields ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("json has " ^ k) true (List.mem_assoc k fields))
      [ "count"; "mean_ms"; "max_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "buckets" ]
  | _ -> Alcotest.fail "histogram json shape"

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let test_queue_bound () =
  let inst = instance 11 ~tasks:10 in
  let sim =
    make_sim
      (Server.config ~capacity:3 ~degrade_low:50 ~degrade_high:60
         ~default_min_iterations:6 ())
  in
  for i = 0 to 5 do
    submit_inst sim ~id:(Printf.sprintf "r%d" i) inst
      (params ~seed:(100 + i) ~min_iterations:6 ())
  done;
  Alcotest.(check int) "queue holds exactly capacity" 3
    (Server.queue_depth sim.srv);
  Alcotest.(check int) "bound never exceeded" 3
    (Server.max_queue_depth sim.srv);
  for i = 3 to 5 do
    let reason, depth = rejection sim (Printf.sprintf "r%d" i) in
    Alcotest.(check string)
      (Printf.sprintf "r%d shed as queue_full" i)
      "queue_full"
      (Protocol.reject_reason_name reason);
    Alcotest.(check int) "rejection reports the full queue" 3 depth
  done;
  drain_sim sim;
  for i = 0 to 2 do
    let id = Printf.sprintf "r%d" i in
    check_identity ~what:id inst ~seed:(100 + i) (completion sim id)
  done;
  Alcotest.(check int) "exactly one response per request" 6
    (List.length !(sim.responses))

let test_tenant_quota () =
  let inst = instance 12 ~tasks:10 in
  let sim =
    make_sim
      (Server.config ~capacity:10 ~tenant_quota:2 ~degrade_low:50
         ~degrade_high:60 ~default_min_iterations:5 ())
  in
  submit_inst sim ~id:"a1" inst (params ~tenant:"A" ~seed:1 ());
  submit_inst sim ~id:"a2" inst (params ~tenant:"A" ~seed:2 ());
  submit_inst sim ~id:"a3" inst (params ~tenant:"A" ~seed:3 ());
  submit_inst sim ~id:"b1" inst (params ~tenant:"B" ~seed:4 ());
  let reason, _ = rejection sim "a3" in
  Alcotest.(check string) "tenant A over quota" "tenant_quota"
    (Protocol.reject_reason_name reason);
  Alcotest.(check bool) "tenant B unaffected by A's quota" true
    (List.for_all
       (fun r -> response_id r <> "b1")
       !(sim.responses));
  (* Completing A's work frees its quota. *)
  Alcotest.(check bool) "step works" true (Server.step sim.srv = Server.Did_work);
  submit_inst sim ~id:"a4" inst (params ~tenant:"A" ~seed:5 ());
  Alcotest.(check bool) "quota slot freed by completion" true
    (List.for_all
       (fun r -> response_id r <> "a4")
       !(sim.responses));
  drain_sim sim;
  List.iter
    (fun (id, seed) ->
      check_identity ~what:id inst ~seed (completion sim id))
    [ ("a1", 1); ("a2", 2); ("b1", 4); ("a4", 5) ]

let test_shutdown_sheds () =
  let inst = instance 13 ~tasks:8 in
  let sim = make_sim (Server.config ~capacity:4 ()) in
  Server.close sim.srv;
  submit_inst sim ~id:"late" inst (params ());
  let reason, _ = rejection sim "late" in
  Alcotest.(check string) "closed server sheds as shutting_down"
    "shutting_down"
    (Protocol.reject_reason_name reason);
  drain_sim sim

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)

let test_degrade_ladder () =
  let inst = instance 14 ~tasks:12 in
  let sim =
    make_sim
      (Server.config ~capacity:12 ~degrade_low:2 ~degrade_high:4
         ~degrade_factor:8 ())
  in
  for i = 0 to 5 do
    submit_inst sim ~id:(Printf.sprintf "r%d" i) inst
      (params ~seed:(200 + i) ~min_iterations:16 ())
  done;
  drain_sim sim;
  (* Dispatch depth counts the request being dispatched: r0 is served
     at depth 6, r5 at depth 1 — so the ladder reads 2,2,2,1,1,0. *)
  List.iteri
    (fun i (expected_level, expected_eff) ->
      let id = Printf.sprintf "r%d" i in
      let c = completion sim id in
      Alcotest.(check int) (id ^ " degradation rung") expected_level
        c.Protocol.c_degrade;
      Alcotest.(check int)
        (id ^ " effective restart budget")
        expected_eff c.Protocol.c_effective_min_iterations;
      check_identity ~what:id inst ~seed:(200 + i) c)
    [ (2, 0); (2, 0); (2, 0); (1, 2); (1, 2); (0, 16) ];
  match Json.path [ "degrade" ] (Server.metrics sim.srv) with
  | Some d ->
    List.iter
      (fun (k, v) ->
        Alcotest.(check (option int)) ("metrics degrade." ^ k) (Some v)
          (Option.bind (Json.member k d) Json.get_int))
      [ ("full", 1); ("reduced", 2); ("heuristic", 3) ]
  | None -> Alcotest.fail "metrics missing degrade counters"

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_deadline_sheds_queued () =
  let inst = instance 15 ~tasks:10 in
  let sim =
    make_sim (Server.config ~capacity:8 ~default_min_iterations:5 ()) in
  submit_inst sim ~id:"d1" inst (params ~seed:1 ~deadline_ms:1000 ());
  submit_inst sim ~id:"d2" inst (params ~seed:2 ());
  sim.clock := 2.0;
  (* The sweep (run by every step / poll tick) sheds d1 before any
     worker wastes a restart on it. *)
  Alcotest.(check int) "one expiration swept" 1
    (Server.sweep_expired sim.srv);
  let reason, _ = rejection sim "d1" in
  Alcotest.(check string) "expired while queued" "expired"
    (Protocol.reject_reason_name reason);
  drain_sim sim;
  check_identity ~what:"d2" inst ~seed:2 (completion sim "d2");
  match Json.path [ "shed"; "expired" ] (Server.metrics sim.srv) with
  | Some v -> Alcotest.(check (option int)) "shed.expired" (Some 1)
                (Json.get_int v)
  | None -> Alcotest.fail "metrics missing shed.expired"

let test_deadline_cancels_midrun () =
  let inst = instance 16 ~tasks:10 in
  let poll = Pa_random.Course.poll_every and dt = 0.01 in
  (* Self-advancing clock: each read ticks 10 ms, so the course's
     cancellation poll crosses the 1 s deadline after ~100 polls — long
     before the absurd restart budget is met. *)
  let sim =
    make_ticking_sim ~dt
      (Server.config ~capacity:4 ~degrade_low:50 ~degrade_high:60 ())
  in
  submit_inst sim ~id:"dl" inst
    (params ~seed:3 ~min_iterations:100_000 ~deadline_ms:1000 ());
  drain_sim sim;
  let c = completion sim "dl" in
  Alcotest.(check bool) "deadline hit mid-run" true c.Protocol.c_deadline_hit;
  Alcotest.(check bool)
    (Printf.sprintf "stopped far short of the budget (ran %d)"
       c.Protocol.c_iterations)
    true
    (c.Protocol.c_iterations > 0 && c.Protocol.c_iterations < 100_000);
  Alcotest.(check int) "stopped exactly at a poll boundary" 0
    (c.Protocol.c_iterations mod poll);
  (* "No response after deadline plus one poll": each poll reads the
     clock once, so at most 1 s / dt polls pass before the deadline, and
     the course runs no more than one poll of restarts past them; the
     only clock reads after the poll that fired are the completion
     stamps. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d restarts within deadline + one poll"
       c.Protocol.c_iterations)
    true
    (c.Protocol.c_iterations <= (int_of_float (1.0 /. dt) + 1) * poll);
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3fs within deadline + one poll"
       c.Protocol.c_latency_s)
    true
    (c.Protocol.c_latency_s < 1.0 +. 0.1)

(* The latency a completion reports, which its deadline is judged
   against, runs from the request's submission to its completion on the
   server's clock, however late in the clock's life the request came. *)
let test_latency_from_submission () =
  let inst = instance 18 ~tasks:8 in
  let sim =
    make_sim (Server.config ~capacity:4 ~default_min_iterations:4 ())
  in
  sim.clock := 100.;
  submit_inst sim ~id:"late" inst (params ~seed:5 ~deadline_ms:60_000 ());
  sim.clock := 100.25;
  drain_sim sim;
  let c = completion sim "late" in
  Alcotest.(check (float 1e-9)) "latency = completion - submission" 0.25
    c.Protocol.c_latency_s;
  Alcotest.(check bool) "well inside its deadline" false
    c.Protocol.c_deadline_hit

(* ------------------------------------------------------------------ *)
(* Retries and crash containment                                       *)

let test_retry_and_containment () =
  let inst = instance 17 ~tasks:10 in
  let sim =
    make_sim
      (Server.config ~capacity:8 ~max_retries:2 ~backoff_s:0.05
         ~degrade_low:50 ~degrade_high:60 ~allow_fault_injection:true ())
  in
  submit_inst sim ~id:"flaky" inst
    (params ~seed:4 ~min_iterations:6 ~fail_attempts:2 ());
  submit_inst sim ~id:"poison" inst
    (params ~seed:5 ~min_iterations:6 ~fail_attempts:99 ());
  submit_inst sim ~id:"healthy" inst (params ~seed:6 ~min_iterations:6 ());
  drain_sim sim;
  let flaky = completion sim "flaky" in
  Alcotest.(check int) "flaky recovered on the third attempt" 3
    flaky.Protocol.c_attempts;
  (* Each retry restarts the course from scratch, so the recovered
     response is still bit-identical to the offline run. *)
  check_identity ~what:"flaky" inst ~seed:4 flaky;
  (match find_response sim "poison" with
  | Protocol.Failed { message; attempts; _ } ->
    Alcotest.(check int) "poison exhausted its retry budget" 3 attempts;
    Alcotest.(check bool) "failure message carries the fault" true
      (let sub = "injected" in
       let rec search i =
         i + String.length sub <= String.length message
         && (String.sub message i (String.length sub) = sub || search (i + 1))
       in
       search 0)
  | r ->
    Alcotest.failf "poison: expected error, got %s"
      (Protocol.response_to_line r));
  (* One poisoned request fails alone: the healthy one is untouched. *)
  check_identity ~what:"healthy" inst ~seed:6 (completion sim "healthy");
  match Json.path [ "retries" ] (Server.metrics sim.srv) with
  | Some v ->
    Alcotest.(check (option int)) "2 + 2 retries recorded" (Some 4)
      (Json.get_int v)
  | None -> Alcotest.fail "metrics missing retries"

let test_fault_injection_gated () =
  let inst = instance 18 ~tasks:8 in
  (* Default config: the fail_attempts hook is inert unless the server
     explicitly enables fault injection. *)
  let sim = make_sim (Server.config ~capacity:4 ()) in
  submit_inst sim ~id:"x" inst
    (params ~seed:7 ~min_iterations:5 ~fail_attempts:5 ());
  drain_sim sim;
  let c = completion sim "x" in
  Alcotest.(check int) "fault hook ignored without the gate" 1
    c.Protocol.c_attempts

(* ------------------------------------------------------------------ *)
(* Scripted overload (the ISSUE 9 acceptance scenario)                 *)

(* Deterministic 4x-overload burst against capacity 4 / quota 2, seeded
   and clock-virtualized: every admission decision below is forced by
   the script, so the expected response of every request is exact. *)
let test_overload_script () =
  let inst = instance 19 ~tasks:12 in
  let sim =
    make_sim
      (Server.config ~capacity:4 ~tenant_quota:2 ~degrade_low:50
         ~degrade_high:60 ~max_retries:1 ~allow_fault_injection:true ())
  in
  let submit i ~id ~tenant ?(fail_attempts = 0) () =
    sim.clock := float_of_int i *. 0.01;
    submit_inst sim ~id inst
      (params ~tenant ~seed:(300 + i) ~min_iterations:6 ~deadline_ms:60_000
         ~fail_attempts ())
  in
  (* Burst of 8 arrivals, no service in between (the 4x condition:
     arrivals outpace the single stepping worker fourfold). *)
  submit 0 ~id:"a0" ~tenant:"A" ();
  submit 1 ~id:"a1" ~tenant:"A" ~fail_attempts:1 ();
  submit 2 ~id:"a2" ~tenant:"A" ();  (* quota: A already has 2 in flight *)
  submit 3 ~id:"b0" ~tenant:"B" ();
  submit 4 ~id:"b1" ~tenant:"B" ();
  submit 5 ~id:"b2" ~tenant:"B" ();  (* queue full at 4 *)
  submit 6 ~id:"a3" ~tenant:"A" ();  (* queue full *)
  submit 7 ~id:"b3" ~tenant:"B" ();  (* queue full *)
  (* Shedding order respects tenant quotas: a2 was shed by quota while
     the queue still had room... *)
  let a2_reason, a2_depth = rejection sim "a2" in
  Alcotest.(check string) "a2 shed by tenant quota" "tenant_quota"
    (Protocol.reject_reason_name a2_reason);
  Alcotest.(check bool) "a2 shed with queue room to spare" true (a2_depth < 4);
  (* ...and only the genuinely-full queue sheds as queue_full. *)
  List.iter
    (fun id ->
      let reason, depth = rejection sim id in
      Alcotest.(check string) (id ^ " shed by queue bound") "queue_full"
        (Protocol.reject_reason_name reason);
      Alcotest.(check int) (id ^ " at the bound") 4 depth)
    [ "b2"; "a3"; "b3" ];
  (* The queue bound was never exceeded. *)
  Alcotest.(check int) "queue bound held through the burst" 4
    (Server.max_queue_depth sim.srv);
  (* Service drains the backlog; a freed quota slot admits new work. *)
  Alcotest.(check bool) "served one" true
    (Server.step sim.srv = Server.Did_work);
  sim.clock := 1.0;
  submit_inst sim ~id:"a4" inst
    (params ~tenant:"A" ~seed:400 ~min_iterations:6 ~deadline_ms:60_000 ());
  drain_sim sim;
  (* Exactly one response per request, none silent. *)
  Alcotest.(check int) "one response per request" 9
    (List.length !(sim.responses));
  let ids =
    List.sort_uniq compare
      (List.map response_id !(sim.responses))
  in
  Alcotest.(check int) "all ids answered" 9 (List.length ids);
  (* Every accepted request: Validate-passing schedule, bit-identical
     to the offline run at its seed and effective budget, response
     within its deadline. The flaky one recovered via retry. *)
  List.iter
    (fun (id, seed) ->
      let c = completion sim id in
      check_identity ~what:id inst ~seed c;
      Alcotest.(check bool) (id ^ " answered within its deadline") true
        (c.Protocol.c_latency_s <= 60.))
    [ ("a0", 300); ("a1", 301); ("b0", 303); ("b1", 304); ("a4", 400) ];
  Alcotest.(check int) "a1 recovered from its injected fault" 2
    (completion sim "a1").Protocol.c_attempts;
  (* The shared cache accelerated later requests without perturbing
     their results (identity above); its counters are exposed. *)
  match Json.path [ "fp_cache"; "hit_rate" ] (Server.metrics sim.srv) with
  | Some v -> Alcotest.(check bool) "cache hit rate present" true
                (Json.get_float v <> None)
  | None -> Alcotest.fail "metrics missing fp_cache"

(* ------------------------------------------------------------------ *)
(* Metrics and parse errors                                            *)

let test_metrics_and_parse_errors () =
  let inst = instance 20 ~tasks:8 in
  let sim = make_sim (Server.config ~capacity:4 ()) in
  Server.submit_line sim.srv "this is not json";
  (match find_response sim "" with
  | Protocol.Rejected { reason = Protocol.Parse_error; _ } -> ()
  | r ->
    Alcotest.failf "expected parse_error rejection, got %s"
      (Protocol.response_to_line r));
  submit_inst sim ~id:"ok" inst (params ~seed:9 ~min_iterations:5 ());
  Server.submit sim.srv { Protocol.id = "m"; op = Protocol.Metrics };
  (match find_response sim "m" with
  | Protocol.Metrics_reply { body; _ } ->
    let keys = function
      | Some (Json.Obj kvs) -> Some (List.map fst kvs)
      | Some _ | None -> None
    in
    Alcotest.(check (option string)) "metrics schema"
      (Some "resched-serve-metrics/4")
      (Option.bind (Json.member "schema" body) Json.get_string);
    Alcotest.(check (option (list string))) "fp_cache keys"
      (Some [ "hits"; "misses"; "inserts"; "hit_rate" ])
      (keys (Json.member "fp_cache" body));
    Alcotest.(check (option (list string))) "dispatch keys"
      (Some
         [ "active_sources"; "known_sources"; "dispatched_max";
           "dispatched_min"; "sources" ])
      (keys (Json.member "dispatch" body));
    Alcotest.(check (option (list string))) "source keys"
      (Some [ "source"; "queued"; "enqueued"; "dispatched" ])
      (keys
         (Option.bind (Json.path [ "dispatch"; "sources" ] body) (fun l ->
              Option.bind (Json.to_list l) (fun l -> List.nth_opt l 0))));
    Alcotest.(check (option int)) "parse error counted" (Some 1)
      (Option.bind (Json.path [ "requests"; "parse_errors" ] body)
         Json.get_int)
  | r ->
    Alcotest.failf "expected metrics, got %s" (Protocol.response_to_line r));
  drain_sim sim;
  let c = completion sim "ok" in
  check_identity ~what:"ok" inst ~seed:9 c;
  match Json.path [ "latency"; "count" ] (Server.metrics sim.srv) with
  | Some v ->
    Alcotest.(check (option int)) "latency histogram counts completions"
      (Some 1) (Json.get_int v)
  | None -> Alcotest.fail "metrics missing latency histogram"

(* Malformed input ends in one structured response and the next
   request is served: a bad [\u] escape is a JSON parse error, and an
   inline instance the parser rejects (a zero software time, a cyclic
   edge set, a second 'tasks' line, a task count larger than the text)
   fails at once, with no attempt run. *)
let test_malformed_input_keeps_serving () =
  let inst = instance 21 ~tasks:8 in
  let sim = make_sim (Server.config ~capacity:4 ()) in
  Server.submit_line sim.srv
    {|{"op": "schedule", "id": "u1", "path": "/x\uzzzz"}|};
  (match find_response sim "" with
  | Protocol.Rejected { reason = Protocol.Parse_error; _ } -> ()
  | r ->
    Alcotest.failf "expected parse_error rejection, got %s"
      (Protocol.response_to_line r));
  let arch = "arch processors 1 recfreq 3200 device minifab\n" in
  let header = arch ^ "tasks 2\ntask 0\nimpl sw time 3\ntask 1\n" in
  List.iter
    (fun (id, text) ->
      Server.submit sim.srv
        {
          Protocol.id;
          op =
            Protocol.Schedule
              (Protocol.Inline text, params ~seed:1 ~min_iterations:3 ());
        };
      match find_response sim id with
      | Protocol.Failed { attempts; _ } ->
        Alcotest.(check int) (id ^ ": no attempt run") 0 attempts
      | r ->
        Alcotest.failf "%s: expected error, got %s" id
          (Protocol.response_to_line r))
    [
      ("sw-time-0", header ^ "impl sw time 0\n");
      ("cycle", header ^ "impl sw time 4\nedge 0 1\nedge 1 0\n");
      ("tasks-twice", arch ^ "tasks 5\ntask 4\ntasks 2\nimpl sw time 3\n");
      ("tasks-huge", arch ^ "tasks 99999999999999999\n");
    ];
  submit_inst sim ~id:"ok" inst (params ~seed:9 ~min_iterations:5 ());
  drain_sim sim;
  check_identity ~what:"ok" inst ~seed:9 (completion sim "ok")

(* ------------------------------------------------------------------ *)
(* Multiplexing transport: concurrent clients over socketpairs         *)

module Transport = Resched_serve.Transport

(* A transport-backed sim: the server's default responder must never
   fire (every request belongs to a connection), so it records strays
   for the final assertion. Polls run with a zero timeout and work is
   advanced by [Server.step] — fully deterministic, virtual clock. *)
type tsim = {
  tsrv : Server.t;
  tr : Transport.t;
  tclock : float ref;
  strays : Protocol.response list ref;
}

let make_tsim ?(max_line_bytes = 1 lsl 20) cfg =
  let tclock = ref 0. in
  let strays = ref [] in
  let tsrv =
    Server.create
      ~clock:(fun () -> !tclock)
      ~respond:(fun r -> strays := r :: !strays)
      cfg
  in
  let tr = Transport.create ~max_line_bytes tsrv in
  { tsrv; tr; tclock; strays }

(* One connected client: the far end of a socketpair whose near end the
   transport multiplexes. *)
type tclient = { fd : Unix.file_descr; rbuf : Buffer.t }

let add_client sim =
  let near, far = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Transport.add_socket sim.tr near;
  Unix.set_nonblock far;
  { fd = far; rbuf = Buffer.create 256 }

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Unix.write c.fd b 0 (Bytes.length b) in
  Alcotest.(check int) "request fully written" (Bytes.length b) n

(* Drain whatever responses have been flushed to this client, returning
   complete lines (partials stay buffered). *)
let recv c =
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read c.fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      slurp ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  slurp ();
  let s = Buffer.contents c.rbuf in
  let rec split start acc =
    match String.index_from_opt s start '\n' with
    | None ->
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf s start (String.length s - start);
      List.rev acc
    | Some i -> split (i + 1) (String.sub s start (i - start) :: acc)
  in
  split 0 []

let response_of_line line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.get_string in
    ( Option.value (str "id") ~default:"",
      Option.value (str "status") ~default:"",
      j )

let poll_until sim ~what pred =
  let rec go n =
    if not (pred ()) then
      if n = 0 then Alcotest.failf "%s: polling did not converge" what
      else begin
        Transport.poll sim.tr ~timeout_s:0.;
        go (n - 1)
      end
  in
  go 500

let sched_line ~id ~seed ~iters ?deadline_ms inst =
  String.trim
  @@ Json.to_string ~indent:0
    (Json.Obj
       ([
          ("op", Json.String "schedule");
          ("id", Json.String id);
          ("instance", Json.String (Io.to_string inst));
          ("seed", Json.Int seed);
          ("min_iterations", Json.Int iters);
          ("emit_schedule", Json.Bool true);
        ]
       @
       match deadline_ms with
       | Some d -> [ ("deadline_ms", Json.Int d) ]
       | None -> []))

(* Step the server [n] times, flushing responses between steps. *)
let step_n sim n =
  for _ = 1 to n do
    (match Server.step sim.tsrv with
    | Server.Did_work -> ()
    | r ->
      Alcotest.failf "expected Did_work, got %s"
        (match r with
        | Server.Backoff _ -> "Backoff"
        | Server.Idle -> "Idle"
        | Server.Drained -> "Drained"
        | Server.Did_work -> assert false));
    Transport.poll sim.tr ~timeout_s:0.
  done

(* Two interleaved clients, scripted bursts, virtual clock. Asserts the
   ISSUE 10 trio: no head-of-line blocking (a flooding client's backlog
   does not delay the sparse client), per-request results identical to
   the offline sequential oracle, and the queue bound respected. *)
let test_transport_concurrent_clients () =
  let inst_a = instance 31 ~tasks:8 in
  let inst_b = instance 32 ~tasks:8 in
  let sim =
    make_tsim
      (Server.config ~capacity:16 ~degrade_low:50 ~degrade_high:60 ())
  in
  let a = add_client sim in
  let b = add_client sim in
  (* Burst 1: A floods four requests, then B sends one. *)
  for j = 0 to 3 do
    send a (sched_line ~id:(Printf.sprintf "a%d" j) ~seed:(100 + j) ~iters:4 inst_a)
  done;
  send b (sched_line ~id:"b0" ~seed:200 ~iters:4 inst_b);
  poll_until sim ~what:"burst 1 admitted" (fun () ->
      Server.queue_depth sim.tsrv = 5);
  (* Round robin: the first two dispatches must serve both sources — B's lone
     request completes after at most two steps despite A's backlog. *)
  step_n sim 2;
  let b_lines = recv b in
  Alcotest.(check int) "sparse client answered within 2 dispatches" 1
    (List.length b_lines);
  let a_lines_early = recv a in
  Alcotest.(check bool) "flood client got at most one of its four" true
    (List.length a_lines_early <= 1);
  step_n sim 3;
  let a_lines = a_lines_early @ recv a in
  Alcotest.(check int) "flood client fully answered" 4 (List.length a_lines);
  (* Every completion is bit-identical to the offline oracle. *)
  let verify inst lines =
    List.iter
      (fun line ->
        let id, status, j = response_of_line line in
        Alcotest.(check string) (id ^ ": ok") "ok" status;
        let seed =
          match id.[0] with
          | 'a' -> 100 + int_of_string (String.sub id 1 (String.length id - 1))
          | _ -> 200
        in
        let iters =
          Option.get (Option.bind (Json.member "iterations" j) Json.get_int)
        in
        let o = offline inst ~seed ~min_iterations:4 in
        Alcotest.(check int) (id ^ ": iterations = offline")
          o.Pa_random.iterations iters;
        let mk = Option.bind (Json.member "makespan" j) Json.get_int in
        let text = Option.bind (Json.member "schedule" j) Json.get_string in
        match (o.Pa_random.schedule, mk, text) with
        | Some s, Some m, Some text ->
          Alcotest.(check int) (id ^ ": makespan = offline")
            (Schedule.makespan s) m;
          Alcotest.(check string) (id ^ ": schedule bit-identical")
            (Schedule_io.to_string s) text
        | None, None, None -> ()
        | _ -> Alcotest.failf "%s: schedule presence mismatch" id)
      lines
  in
  verify inst_a a_lines;
  verify inst_b b_lines;
  (* Burst 2: deadlines are per-request even across connections — A's
     two expire while queued, B's (no deadline) survives the same
     virtual-clock jump. *)
  send a (sched_line ~id:"a4" ~seed:110 ~iters:4 ~deadline_ms:1000 inst_a);
  send a (sched_line ~id:"a5" ~seed:111 ~iters:4 ~deadline_ms:1000 inst_a);
  send b (sched_line ~id:"b1" ~seed:201 ~iters:4 inst_b);
  poll_until sim ~what:"burst 2 admitted" (fun () ->
      Server.queue_depth sim.tsrv = 3);
  sim.tclock := !(sim.tclock) +. 2.;
  (* The sweep on the next poll sheds the expired pair. *)
  poll_until sim ~what:"expiry swept" (fun () ->
      Server.queue_depth sim.tsrv = 1);
  step_n sim 1;
  let a_tail = recv a in
  Alcotest.(check int) "both deadlined requests answered" 2
    (List.length a_tail);
  List.iter
    (fun line ->
      let id, status, j = response_of_line line in
      Alcotest.(check string) (id ^ ": rejected") "rejected" status;
      Alcotest.(check (option string)) (id ^ ": expired") (Some "expired")
        (Option.bind (Json.member "reason" j) Json.get_string))
    a_tail;
  (match recv b with
  | [ line ] ->
    let id, status, _ = response_of_line line in
    Alcotest.(check string) "b1 survived the clock jump" "ok" status;
    Alcotest.(check string) "b1 id" "b1" id
  | ls -> Alcotest.failf "expected one b response, got %d" (List.length ls));
  Alcotest.(check bool) "queue bound respected" true
    (Server.max_queue_depth sim.tsrv <= 16);
  Alcotest.(check int) "no responses leaked to the default responder" 0
    (List.length !(sim.strays))

(* Framing guards: an oversized line and a malformed line are both
   answered with structured rejections and the connection keeps
   serving; connection + dispatch counters surface in metrics. *)
let test_transport_framing_guards () =
  let inst = instance 33 ~tasks:8 in
  let sim = make_tsim ~max_line_bytes:8192 (Server.config ~capacity:8 ()) in
  let c = add_client sim in
  send c (String.make 20_000 'x');
  send c "this is not json";
  (* Both guard responses arrive; then the connection still works. *)
  let collected = ref [] in
  poll_until sim ~what:"framing rejections flushed" (fun () ->
      collected := !collected @ recv c;
      List.length !collected >= 2);
  let guard_lines = !collected in
  let reasons =
    List.map
      (fun l ->
        let _, status, j = response_of_line l in
        Alcotest.(check string) "rejected" "rejected" status;
        Option.value
          (Option.bind (Json.member "reason" j) Json.get_string)
          ~default:"?")
      guard_lines
  in
  Alcotest.(check (list string)) "guard reasons in arrival order"
    [ "line_too_long"; "parse_error" ] reasons;
  send c (sched_line ~id:"ok" ~seed:7 ~iters:3 inst);
  poll_until sim ~what:"valid request admitted" (fun () ->
      Server.queue_depth sim.tsrv = 1);
  step_n sim 1;
  (match recv c with
  | [ line ] ->
    let id, status, _ = response_of_line line in
    Alcotest.(check string) "connection survived the bad lines" "ok" status;
    Alcotest.(check string) "id" "ok" id
  | ls -> Alcotest.failf "expected one completion, got %d" (List.length ls));
  (* Connection and dispatch counters in the metrics body. *)
  let m = Server.metrics sim.tsrv in
  let get_int path = Option.bind (Json.path path m) Json.get_int in
  Alcotest.(check (option int)) "one active connection" (Some 1)
    (get_int [ "connections"; "active" ]);
  Alcotest.(check (option int)) "accepted connections" (Some 1)
    (get_int [ "connections"; "accepted" ]);
  Alcotest.(check (option int)) "oversized lines counted (transport)"
    (Some 1)
    (get_int [ "connections"; "oversized_lines" ]);
  Alcotest.(check (option int)) "oversized lines counted (server)" (Some 1)
    (get_int [ "requests"; "oversized_lines" ]);
  Alcotest.(check bool) "bytes flowed both ways" true
    (match
       (get_int [ "connections"; "bytes_in" ],
        get_int [ "connections"; "bytes_out" ])
     with
    | Some i, Some o -> i > 0 && o > 0
    | _ -> false);
  Alcotest.(check (option int)) "dispatch served this connection" (Some 1)
    (match Json.path [ "dispatch"; "sources" ] m with
    | Some (Json.List (Json.Obj _ :: _ as srcs)) ->
      List.find_map
        (fun s ->
          match Json.member "source" s with
          | Some (Json.String "conn:0") ->
            Option.bind (Json.member "dispatched" s) Json.get_int
          | _ -> None)
        srcs
    | _ -> None);
  Alcotest.(check int) "no stray responses" 0 (List.length !(sim.strays))

(* Dispatch is round robin: two sources (here two tenants) with four
   queued requests each are served alternately, one request per turn. *)
let test_round_robin () =
  let inst = instance 34 ~tasks:6 in
  let sim =
    make_sim (Server.config ~capacity:16 ~degrade_low:50 ~degrade_high:60 ())
  in
  List.iter
    (fun (tenant, id, seed) ->
      submit_inst sim ~id inst
        (params ~tenant ~seed ~min_iterations:2 ~emit:false ()))
    [
      ("A", "a0", 1); ("A", "a1", 2); ("A", "a2", 3); ("A", "a3", 4);
      ("B", "b0", 5); ("B", "b1", 6); ("B", "b2", 7); ("B", "b3", 8);
    ];
  for _ = 1 to 8 do
    match Server.step sim.srv with
    | Server.Did_work -> ()
    | _ -> Alcotest.fail "expected work"
  done;
  Alcotest.(check (list string)) "sources alternate"
    [ "a0"; "b0"; "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev
       (List.filter_map
          (function Protocol.Completed c -> Some c.Protocol.c_id | _ -> None)
          !(sim.responses)))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
          Alcotest.test_case "response shapes" `Quick test_protocol_responses;
        ] );
      ("histogram", [ Alcotest.test_case "quantiles" `Quick test_histogram ]);
      ( "admission",
        [
          Alcotest.test_case "queue bound" `Quick test_queue_bound;
          Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
          Alcotest.test_case "shutdown sheds" `Quick test_shutdown_sheds;
        ] );
      ( "degradation",
        [ Alcotest.test_case "ladder by depth" `Quick test_degrade_ladder ] );
      ( "deadlines",
        [
          Alcotest.test_case "queued expiry sheds" `Quick
            test_deadline_sheds_queued;
          Alcotest.test_case "mid-run cancellation" `Quick
            test_deadline_cancels_midrun;
          Alcotest.test_case "latency counts from submission" `Quick
            test_latency_from_submission;
        ] );
      ( "failures",
        [
          Alcotest.test_case "retry with backoff" `Quick
            test_retry_and_containment;
          Alcotest.test_case "fault hook gated" `Quick
            test_fault_injection_gated;
        ] );
      ( "overload",
        [ Alcotest.test_case "scripted 4x burst" `Quick test_overload_script ]
      );
      ( "metrics",
        [
          Alcotest.test_case "counters and parse errors" `Quick
            test_metrics_and_parse_errors;
          Alcotest.test_case "malformed input keeps serving" `Quick
            test_malformed_input_keeps_serving;
        ] );
      ( "transport",
        [
          Alcotest.test_case "concurrent clients, no HOLB, oracle identity"
            `Quick test_transport_concurrent_clients;
          Alcotest.test_case "framing guards keep the connection" `Quick
            test_transport_framing_guards;
          Alcotest.test_case "round robin" `Quick test_round_robin;
        ] );
    ]
