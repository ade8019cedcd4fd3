(* Shared bench configuration: every knob is an environment variable so
   CI and local runs stay reproducible without flag plumbing. Defaults in
   brackets:

     RESCHED_SEED                [42]    suite seed
     RESCHED_GRAPHS_PER_GROUP    [4]     instances per task-count group
     RESCHED_GROUPS              [10,20,...,100] comma-separated task counts
     RESCHED_ISK_NODE_CAP        [50000] IS-k branch&bound nodes per chunk
     RESCHED_PAR_BUDGET_CAP_MS   [1500]  cap on the PA-R budget (otherwise
                                         the measured IS-5 time, as in the
                                         paper)
     RESCHED_JOBS                [4]     requested worker domains for the
                                         parallel PA-R comparison; the
                                         effective width is clamped to the
                                         core count and both are recorded
     RESCHED_SCALE_JOBS          [1,2,4] widths of the PA-R scaling curve
     RESCHED_PIN                 [unset] set to 1 to pin pool workers to
                                         cores (Linux only)
     RESCHED_FIG6_BUDGET_MS      [4000]  PA-R budget for the Fig. 6 traces
     RESCHED_ITER_MIN            [1000]  iterations per loop for the
                                         kernel-vs-reference-loop
                                         throughput comparison (also used
                                         by its saturated-fabric cache
                                         batch)
     RESCHED_FP_CHECKS           [120]   oracle checks per group in the
                                         floorplan v1-vs-v2 comparison
     RESCHED_FP_E2E_ITERS        [40]    PA-R iterations per engine in the
                                         floorplan end-to-end makespan check
     RESCHED_MILP_TIME_LIMIT_MS  [5000]  per-solve budget for the MILP
                                         engine comparison (tableau vs
                                         revised simplex)
     RESCHED_MILP_LP_REPEATS     [30]    timed repetitions per model in
                                         the LP kernel comparison
     RESCHED_FAULT_TRIALS        [100]   Monte-Carlo trials per (schedule,
                                         policy) in the fault campaign
     RESCHED_MOVES_PER_INSTANCE  [400]   timed move applications per
                                         instance in the delta-kernel
                                         moves/s comparison
     RESCHED_LNS_BUDGET_MS       [1000]  total wall budget per instance for
                                         the LNS-vs-PA-R equal-budget
                                         comparison (PA-R gets all of it;
                                         the LNS arm splits it half
                                         seeding, half polishing)
     RESCHED_SERVE_REQUESTS      [24]    requests per offered-load level in
                                         the serve section
     RESCHED_SERVE_ITER          [200]   restart budget per serve request
     RESCHED_SERVE_TASKS         [30]    task count of the serve section's
                                         instances
     RESCHED_SERVE_CAPACITY      [8]     admission-queue capacity of the
                                         bench server
     RESCHED_SERVE_CONC_REQUESTS [16]    requests per client in the
                                         serve_concurrency sweep
     RESCHED_SERVE_CONC_ITER     [120]   restart budget per request in the
                                         serve_concurrency sweep
     RESCHED_SERVE_CONC_TASKS    [24]    task count of the
                                         serve_concurrency instances
     RESCHED_OUT_DIR             [bench_out] where CSV series and run
                                         directories are written
     RESCHED_BECHAMEL            [unset] set to 1 to also run the Bechamel
                                         micro-benchmarks
*)

module Csv = Resched_util.Csv
module Domain_pool = Resched_util.Domain_pool

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let env_set name = Sys.getenv_opt name = Some "1"

let env_int_list name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s ->
    let vs =
      String.split_on_char ',' s
      |> List.filter_map int_of_string_opt
      |> List.filter (fun v -> v > 0)
    in
    if vs = [] then default else vs

(* Provenance for a committed artifact: the RESCHED_* variables set when
   it was recorded (an empty object means every default) and the host
   that recorded it, as two JSON members. *)
let provenance () =
  let module Json = Resched_util.Json in
  (* [line] as a trimmed (key, value) split at its first [sep], when it
     starts with [prefix]. *)
  let field ~prefix ~sep line =
    match String.index_opt line sep with
    | Some i when String.starts_with ~prefix line ->
      let part p l = String.trim (String.sub line p l) in
      Some (part 0 i, part (i + 1) (String.length line - i - 1))
    | _ -> None
  in
  let settings =
    Array.to_list (Unix.environment ())
    |> List.filter_map (field ~prefix:"RESCHED_" ~sep:'=')
    |> List.sort compare
    |> List.map (fun (k, v) -> (k, Json.String v))
  in
  let cpu =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines with
    | lines ->
      List.find_map (field ~prefix:"model name" ~sep:':') lines
      |> Option.fold ~none:"unknown" ~some:snd
    | exception Sys_error _ -> "unknown"
  in
  let host =
    Json.Obj
      [
        ("cpu", Json.String cpu);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("os", Json.String Sys.os_type);
        ("ocaml", Json.String Sys.ocaml_version);
      ]
  in
  [ ("settings", Json.Obj settings); ("host", host) ]

(* The provenance members, for a section that prints its JSON by hand. *)
let bprint_provenance buf =
  List.iter
    (fun (key, v) ->
      Printf.bprintf buf "  \"%s\": %s,\n" key
        (Resched_util.Json.to_string ~indent:0 v))
    (provenance ())

let seed = env_int "RESCHED_SEED" 42

let par_jobs_requested = Stdlib.max 2 (env_int "RESCHED_JOBS" 4)

(* Requested-vs-effective fan-out for the parallel comparison. Domains
   beyond the core count don't just timeshare under OCaml 5, they stall
   each other on minor-GC barriers, so the effective width is clamped;
   every JSON record carries both numbers plus the core count
   (satellite: no bench output may silently present a clamped run as the
   requested width). *)
let par_plan = Domain_pool.plan_jobs ~requested:par_jobs_requested ()

let par_jobs = par_plan.Domain_pool.effective

(* Widths of the scaling-curve table (requested; each is re-planned
   against the core count when it runs). The requested comparison width
   is always included. *)
let scale_widths =
  env_int_list "RESCHED_SCALE_JOBS" [ 1; 2; 4 ]
  |> List.cons par_jobs_requested |> List.cons 1 |> List.sort_uniq compare

let graphs_per_group = env_int "RESCHED_GRAPHS_PER_GROUP" 4
let isk_node_cap = env_int "RESCHED_ISK_NODE_CAP" 50_000

let par_budget_cap =
  float_of_int (env_int "RESCHED_PAR_BUDGET_CAP_MS" 1500) /. 1000.

let fig6_budget = float_of_int (env_int "RESCHED_FIG6_BUDGET_MS" 4000) /. 1000.
let iter_min = Stdlib.max 1 (env_int "RESCHED_ITER_MIN" 1000)

let milp_time_limit =
  float_of_int (env_int "RESCHED_MILP_TIME_LIMIT_MS" 5000) /. 1000.

let milp_lp_repeats = Stdlib.max 1 (env_int "RESCHED_MILP_LP_REPEATS" 30)
let fault_trials = Stdlib.max 1 (env_int "RESCHED_FAULT_TRIALS" 100)
let moves_per_instance = Stdlib.max 50 (env_int "RESCHED_MOVES_PER_INSTANCE" 400)
let lns_budget = float_of_int (env_int "RESCHED_LNS_BUDGET_MS" 1000) /. 1000.
let serve_requests = Stdlib.max 4 (env_int "RESCHED_SERVE_REQUESTS" 24)
let serve_iter = Stdlib.max 1 (env_int "RESCHED_SERVE_ITER" 200)
let serve_tasks = Stdlib.max 5 (env_int "RESCHED_SERVE_TASKS" 30)
let serve_capacity = Stdlib.max 2 (env_int "RESCHED_SERVE_CAPACITY" 8)

let serve_conc_requests =
  Stdlib.max 4 (env_int "RESCHED_SERVE_CONC_REQUESTS" 16)

let serve_conc_iter = Stdlib.max 1 (env_int "RESCHED_SERVE_CONC_ITER" 120)
let serve_conc_tasks = Stdlib.max 5 (env_int "RESCHED_SERVE_CONC_TASKS" 24)

let out_dir =
  match Sys.getenv_opt "RESCHED_OUT_DIR" with Some d -> d | None -> "bench_out"

let groups =
  env_int_list "RESCHED_GROUPS" [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]

(* mkdir -p, tolerating concurrent creation: RESCHED_OUT_DIR may be
   nested (a/b/c) and several writers may race on the same suffix. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_out_dir () = mkdir_p out_dir

let write_csv name rows =
  ensure_out_dir ();
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Csv.write oc rows);
  Printf.printf "  [csv] %s\n%!" path

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)
