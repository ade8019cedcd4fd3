(* Bench profiles: every value that steers a bench run, as one typed
   record, and its two checked-in values. [ci] is the smoke scale CI
   runs at, with the bounds its `bench check` applies; [full] is the
   scale the committed BENCH_*.json artifacts are recorded at, checked
   by the unconditional gates only. A run records its profile in its
   manifest and in every section log; `bench check` takes its bounds
   from the audited run's profile, and `bench ab` compares only runs
   recorded under the same one. *)

type t = {
  name : string;
  seed : int;  (* suite seed *)
  groups : int list;  (* task counts, one group each *)
  graphs_per_group : int;  (* instances per group in the paper section *)
  isk_node_cap : int;  (* IS-k branch-and-bound nodes per chunk *)
  par_budget_cap_s : float;
      (* cap on PA-R's budget, which is otherwise the measured IS-5
         time as in the paper; also the parallel section's budget *)
  jobs : int;
      (* requested width of the parallel comparison; the effective
         width is clamped to the core count and both are recorded *)
  scale_jobs : int list;  (* widths of the PA-R scaling curve *)
  fig6_budget_s : float;  (* PA-R budget per Fig. 6 trace *)
  iter_min : int;  (* restarts per loop in the iteration section *)
  fp_checks : int;  (* oracle checks per group in the floorplan section *)
  fp_e2e_iters : int;
      (* PA-R restarts per packer in the floorplan end-to-end check *)
  milp_node_budget : int;
      (* branch-and-bound nodes per solve in the milp section *)
  milp_lp_repeats : int;  (* timed repetitions per model, LP kernel *)
  fault_trials : int;  (* Monte-Carlo trials per (schedule, policy) *)
  moves_per_instance : int;  (* timed proposals per group, moves section *)
  lns_restarts : int;
      (* R: the moves section's PA-R arm runs R restarts, and its LNS
         arm seeds at 0.7 R *)
  lns_moves : int;  (* M: the LNS arm's polish proposals after its seed *)
  (* Bounds of `bench check`; [None] leaves the gate off. *)
  min_cores : int option;
      (* recorded cores and effective parallel width at least this *)
  min_speedup : float option;  (* parallel large-group iteration speedup *)
  max_minor_words_per_iter : float option;  (* restart kernel allocation *)
  min_move_speedup : float option;  (* move kernel over the full pipeline *)
}

let full =
  {
    name = "full";
    seed = 42;
    groups = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
    graphs_per_group = 4;
    isk_node_cap = 50_000;
    par_budget_cap_s = 1.5;
    jobs = 4;
    scale_jobs = [ 1; 2; 4 ];
    fig6_budget_s = 4.0;
    iter_min = 1000;
    fp_checks = 120;
    fp_e2e_iters = 40;
    milp_node_budget = 70;
    milp_lp_repeats = 30;
    fault_trials = 100;
    moves_per_instance = 3000;
    lns_restarts = 1000;
    lns_moves = 1500;
    min_cores = None;
    min_speedup = None;
    max_minor_words_per_iter = None;
    min_move_speedup = None;
  }

let ci =
  {
    full with
    name = "ci";
    groups = [ 10 ];
    graphs_per_group = 1;
    par_budget_cap_s = 0.2;
    jobs = 2;
    scale_jobs = [ 1; 2 ];
    iter_min = 200;
    fp_checks = 40;
    fp_e2e_iters = 20;
    fault_trials = 40;
    moves_per_instance = 200;
    min_cores = Some 2;
    min_speedup = Some 1.05;
    max_minor_words_per_iter = Some 60_000.;
    min_move_speedup = Some 5.;
  }

let all = [ ci; full ]

let of_name name = List.find_opt (fun p -> p.name = name) all

let to_json p =
  let module Json = Resched_util.Json in
  let ints l = Json.List (List.map (fun v -> Json.Int v) l) in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("name", Json.String p.name);
      ("seed", Json.Int p.seed);
      ("groups", ints p.groups);
      ("graphs_per_group", Json.Int p.graphs_per_group);
      ("isk_node_cap", Json.Int p.isk_node_cap);
      ("par_budget_cap_s", Json.float p.par_budget_cap_s);
      ("jobs", Json.Int p.jobs);
      ("scale_jobs", ints p.scale_jobs);
      ("fig6_budget_s", Json.float p.fig6_budget_s);
      ("iter_min", Json.Int p.iter_min);
      ("fp_checks", Json.Int p.fp_checks);
      ("fp_e2e_iters", Json.Int p.fp_e2e_iters);
      ("milp_node_budget", Json.Int p.milp_node_budget);
      ("milp_lp_repeats", Json.Int p.milp_lp_repeats);
      ("fault_trials", Json.Int p.fault_trials);
      ("moves_per_instance", Json.Int p.moves_per_instance);
      ("lns_restarts", Json.Int p.lns_restarts);
      ("lns_moves", Json.Int p.lns_moves);
      ("min_cores", opt (fun v -> Json.Int v) p.min_cores);
      ("min_speedup", opt Json.float p.min_speedup);
      ("max_minor_words_per_iter", opt Json.float p.max_minor_words_per_iter);
      ("min_move_speedup", opt Json.float p.min_move_speedup);
    ]
