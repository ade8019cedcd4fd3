(* Benchmark sections: regenerates every table and figure of the paper's
   evaluation (Sec. VII) plus the ablations listed in DESIGN.md. Each
   section takes the run's profile (profile.ml), which holds every value
   that steers it; the CLI in main.ml selects which sections run and
   wraps them in a run directory (see run_store.ml). *)

module Rng = Resched_util.Rng
module Stats = Resched_util.Stats
module Table = Resched_util.Table
module Json = Resched_util.Json
module Resource = Resched_fabric.Resource
module Cpm = Resched_taskgraph.Cpm
module Generator = Resched_taskgraph.Generator
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Arch = Resched_platform.Arch
module Lp = Resched_milp.Lp
module Simplex = Milp_oracle.Simplex
module Tableau = Milp_oracle.Tableau
module Revised = Resched_milp.Revised
module Branch_bound = Resched_milp.Branch_bound
module Ilp_exact = Resched_baseline.Ilp_exact
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Domain_pool = Resched_util.Domain_pool
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Regions_define = Resched_core.Regions_define
module State = Resched_core.State
module Impl_select = Resched_core.Impl_select
module Sw_balance = Resched_core.Sw_balance
module Sw_map = Resched_core.Sw_map
module Reconf_sched = Resched_core.Reconf_sched
module Timing = Resched_core.Timing
module Isk = Resched_baseline.Isk
module List_sched = Resched_baseline.List_sched
module Repair = Resched_core.Repair
module Delta = Resched_core.Delta
module Lns = Resched_core.Lns
module Campaign = Resched_sim.Campaign

open Bench_env

let must_validate label sched =
  match Validate.check sched with
  | Ok () -> ()
  | Error vs ->
    List.iter
      (fun (v : Validate.violation) ->
        Printf.eprintf "VALIDATION [%s] %s\n" label v.Validate.message)
      vs;
    failwith (label ^ ": invalid schedule")

(* ------------------------------------------------------------------ *)
(* Per-instance measurements                                           *)

type run = {
  tasks : int;
  pa_makespan : float;
  pa_sched_s : float;
  pa_plan_s : float;
  par_makespan : float;
  par_budget_s : float;
  is1_makespan : float;
  is1_s : float;
  is5_makespan : float;
  is5_s : float;
  heft_makespan : float;
}

let evaluate_instance (p : Profile.t) ~tasks ~idx inst =
  let pa, pa_stats = Pa.run inst in
  must_validate "PA" pa;
  let (is1, _), is1_s =
    timed (fun () ->
        Isk.run
          ~config:
            { (Isk.config ~k:1) with Isk.chunk_node_limit = p.isk_node_cap }
          inst)
  in
  must_validate "IS-1" is1;
  let (is5, _), is5_s =
    timed (fun () ->
        Isk.run
          ~config:
            { (Isk.config ~k:5) with Isk.chunk_node_limit = p.isk_node_cap }
          inst)
  in
  must_validate "IS-5" is5;
  (* As in the paper, PA-R gets the same budget as IS-5 (here capped so a
     full sweep stays laptop-sized). *)
  let par_budget_s = Float.min p.par_budget_cap_s is5_s in
  let outcome =
    Pa_random.run ~seed:(p.seed + (1000 * tasks) + idx)
      ~budget_seconds:par_budget_s inst
  in
  let par_makespan =
    match outcome.Pa_random.schedule with
    | Some sched ->
      must_validate "PA-R" sched;
      float_of_int (Schedule.makespan sched)
    | None ->
      (* No floorplannable candidate within the budget: the designer
         would fall back to PA's result. *)
      float_of_int (Schedule.makespan pa)
  in
  let heft = List_sched.run inst in
  must_validate "HEFT" heft;
  {
    tasks;
    pa_makespan = float_of_int (Schedule.makespan pa);
    pa_sched_s = pa_stats.Pa.scheduling_seconds;
    pa_plan_s = pa_stats.Pa.floorplanning_seconds;
    par_makespan;
    par_budget_s;
    is1_makespan = float_of_int (Schedule.makespan is1);
    is1_s;
    is5_makespan = float_of_int (Schedule.makespan is5);
    is5_s;
    heft_makespan = float_of_int (Schedule.makespan heft);
  }

let collect_group (p : Profile.t) tasks =
  let insts = Suite.group ~seed:p.seed ~tasks ~count:p.graphs_per_group () in
  List.mapi (fun idx inst -> evaluate_instance p ~tasks ~idx inst) insts

(* ------------------------------------------------------------------ *)
(* Table I and Figures 2-5                                             *)

let arr f runs = Array.of_list (List.map f runs)

let print_table1 all =
  print_endline "";
  print_endline
    "== Table I: algorithm execution times [s] (means per group) ==";
  print_endline
    "   (PA split into scheduling and floorplanning; the PA-R column is";
  print_endline
    "    its time budget, i.e. the capped IS-5 time, as in the paper)";
  let t =
    Table.create
      [ "# Tasks"; "PA sched"; "PA floorplan"; "PA total"; "IS-1"; "PA-R / IS-5" ]
  in
  let csv = ref [ [ "tasks"; "pa_sched"; "pa_floorplan"; "pa_total"; "is1"; "is5" ] ] in
  List.iter
    (fun (tasks, runs) ->
      let sched = Stats.mean (arr (fun r -> r.pa_sched_s) runs) in
      let plan = Stats.mean (arr (fun r -> r.pa_plan_s) runs) in
      let is1 = Stats.mean (arr (fun r -> r.is1_s) runs) in
      let is5 = Stats.mean (arr (fun r -> r.is5_s) runs) in
      let cells =
        [
          string_of_int tasks;
          Table.cell_f sched;
          Table.cell_f plan;
          Table.cell_f (sched +. plan);
          Table.cell_f is1;
          Table.cell_f is5;
        ]
      in
      Table.add_row t cells;
      csv := cells :: !csv)
    all;
  Table.print t;
  write_csv "table1.csv" (List.rev !csv)

let print_fig2 all =
  print_endline "";
  print_endline
    "== Figure 2: average schedule execution time [ticks] per group ==";
  let t =
    Table.create [ "# Tasks"; "PA"; "PA-R"; "IS-1"; "IS-5"; "HEFT (extra)" ]
  in
  let csv = ref [ [ "tasks"; "pa"; "par"; "is1"; "is5"; "heft" ] ] in
  List.iter
    (fun (tasks, runs) ->
      let m f = Stats.mean (arr f runs) in
      let cells =
        [
          string_of_int tasks;
          Table.cell_f ~decimals:0 (m (fun r -> r.pa_makespan));
          Table.cell_f ~decimals:0 (m (fun r -> r.par_makespan));
          Table.cell_f ~decimals:0 (m (fun r -> r.is1_makespan));
          Table.cell_f ~decimals:0 (m (fun r -> r.is5_makespan));
          Table.cell_f ~decimals:0 (m (fun r -> r.heft_makespan));
        ]
      in
      Table.add_row t cells;
      csv := cells :: !csv)
    all;
  Table.print t;
  write_csv "fig2.csv" (List.rev !csv)

let improvement_figure ~title ~csv_name ~baseline ~value all =
  print_endline "";
  Printf.printf "== %s ==\n" title;
  let t = Table.create [ "# Tasks"; "improvement"; "stddev" ] in
  let csv = ref [ [ "tasks"; "improvement_pct"; "stddev_pct" ] ] in
  let overall = ref [] in
  List.iter
    (fun (tasks, runs) ->
      let per_instance =
        Array.of_list
          (List.map
             (fun r ->
               Stats.improvement_pct ~baseline:(baseline r) ~value:(value r))
             runs)
      in
      overall := Array.to_list per_instance @ !overall;
      let cells =
        [
          string_of_int tasks;
          Table.cell_pct (Stats.mean per_instance);
          Table.cell_f ~decimals:1 (Stats.stddev per_instance);
        ]
      in
      Table.add_row t cells;
      csv := cells :: !csv)
    all;
  Table.print t;
  let overall_arr = Array.of_list !overall in
  (* The paper reports its Fig. 5 headline over graphs with >= 20 tasks. *)
  let ge20 =
    List.concat_map
      (fun (tasks, runs) ->
        if tasks < 20 then []
        else
          List.map
            (fun r ->
              Stats.improvement_pct ~baseline:(baseline r) ~value:(value r))
            runs)
      all
  in
  let ge20_arr = Array.of_list ge20 in
  Printf.printf
    "  overall average: %s; for >=20 tasks: %s (paper reference in \
     EXPERIMENTS.md)\n"
    (Table.cell_pct (Stats.mean overall_arr))
    (Table.cell_pct (Stats.mean ge20_arr));
  write_csv csv_name (List.rev !csv);
  Stats.mean ge20_arr

(* ------------------------------------------------------------------ *)
(* Figure 6: PA-R convergence traces                                   *)

let print_fig6 (p : Profile.t) =
  print_endline "";
  Printf.printf
    "== Figure 6: PA-R best makespan over time (budget %.1fs per graph) ==\n"
    p.fig6_budget_s;
  let csv = ref [ [ "tasks"; "elapsed_s"; "iteration"; "best_makespan" ] ] in
  List.iter
    (fun tasks ->
      match Suite.group ~seed:p.seed ~tasks ~count:1 () with
      | [ inst ] ->
        let outcome =
          Pa_random.run ~seed:(p.seed + tasks) ~budget_seconds:p.fig6_budget_s
            inst
        in
        let points = outcome.Pa_random.trace in
        Printf.printf "  %3d tasks (%d iterations): " tasks
          outcome.Pa_random.iterations;
        List.iter
          (fun (p : Pa_random.trace_point) ->
            Printf.printf "%.2fs->%d  " p.Pa_random.elapsed p.Pa_random.makespan;
            csv :=
              [
                string_of_int tasks;
                Printf.sprintf "%.3f" p.Pa_random.elapsed;
                string_of_int p.Pa_random.iteration;
                string_of_int p.Pa_random.makespan;
              ]
              :: !csv)
          points;
        print_newline ()
      | _ -> assert false)
    [ 20; 40; 60; 80; 100 ];
  write_csv "fig6.csv" (List.rev !csv)

(* ------------------------------------------------------------------ *)
(* Parallel PA-R: scaling curve over pooled worker widths              *)

(* The requested width of the parallel comparison against this host's
   cores. Domains beyond the core count don't just timeshare under
   OCaml 5, they stall each other on minor-GC barriers, so the
   effective width is clamped; the parallel log records both numbers
   plus the core count, so no output presents a clamped run as the
   requested width. *)
let jobs_plan (p : Profile.t) = Domain_pool.plan_jobs ~requested:p.jobs ()

(* Iterations of the deterministic pre-warm run that seeds each width's
   shared cache (see [parallel_comparison]). *)
let par_prewarm_iters = 32

(* Everything observable about an outcome. Budget 0 + fixed
   min_iterations is PA-R's deterministic mode, so equal fingerprints
   mean bit-identical results. *)
let par_fingerprint (o : Pa_random.outcome) =
  ( o.Pa_random.iterations,
    (match o.Pa_random.schedule with
    | Some s ->
      Some
        ( s.Schedule.regions, s.Schedule.slots, s.Schedule.reconfigurations,
          s.Schedule.makespan, s.Schedule.resource_scale )
    | None -> None),
    List.map
      (fun (p : Pa_random.trace_point) ->
        (p.Pa_random.iteration, p.Pa_random.makespan))
      o.Pa_random.trace )

(* One measured width of the scaling curve. *)
type par_width = {
  pw_requested : int;  (* first requested width that mapped here *)
  pw_effective : int;
  pw_rows : (int * int * int) list;  (* tasks, iterations, makespan *)
  pw_cache : Fp_cache.stats;  (* parallel phase only (pre-warm subtracted) *)
}

let add_stats (a : Fp_cache.stats) (b : Fp_cache.stats) =
  {
    a with
    Fp_cache.hits = a.Fp_cache.hits + b.Fp_cache.hits;
    misses = a.Fp_cache.misses + b.Fp_cache.misses;
    inserts = a.Fp_cache.inserts + b.Fp_cache.inserts;
  }

let cache_stats_json (st : Fp_cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int st.Fp_cache.hits);
      ("misses", Json.Int st.Fp_cache.misses);
      ("inserts", Json.Int st.Fp_cache.inserts);
      ("hit_rate", Json.float (Fp_cache.hit_rate st));
    ]

(* Measure one effective width across all groups. The pool (resident
   domains, one per worker beyond the caller) is created once and
   reused for every group, so domain spawn/join and first-touch costs
   are paid once per width, and per-domain restart arenas stay warm
   across the batch. *)
let par_measure_width (p : Profile.t) ~requested ~effective insts =
  let cache = Fp_cache.create () in
  let pool =
    if effective > 1 then Some (Domain_pool.Pool.create ~jobs:effective ())
    else None
  in
  let prewarm = ref Fp_cache.zero_stats in
  let rows =
    List.map
      (fun (tasks, inst) ->
        let s = p.seed + (7 * tasks) in
        (* Deterministic pre-warm of the shared cache: a short
           sequential run with the same seed replays the exact stream
           worker 0 will draw, so the parallel run starts against a
           populated table instead of all-cold misses. Budget 0
           (min_iterations only); its cache activity is subtracted. *)
        let before = Fp_cache.stats cache in
        ignore
          (Pa_random.run ~seed:s ~cache ~min_iterations:par_prewarm_iters
             ~budget_seconds:0. inst);
        prewarm :=
          add_stats !prewarm (Fp_cache.diff (Fp_cache.stats cache) before);
        let o =
          match pool with
          | Some pool ->
            Pa_random.run_parallel ~pool ~seed:s ~cache
              ~budget_seconds:p.par_budget_cap_s inst
          | None ->
            Pa_random.run ~seed:s ~cache ~budget_seconds:p.par_budget_cap_s
              inst
        in
        let ms =
          match o.Pa_random.schedule with
          | Some sched ->
            must_validate (Printf.sprintf "PA-R j%d" effective) sched;
            Schedule.makespan sched
          | None ->
            (* fall back to PA, as a designer would *)
            Schedule.makespan (fst (Pa.run inst))
        in
        (tasks, o.Pa_random.iterations, ms))
      insts
  in
  (match pool with Some p -> Domain_pool.Pool.shutdown p | None -> ());
  {
    pw_requested = requested;
    pw_effective = effective;
    pw_rows = rows;
    pw_cache = Fp_cache.diff (Fp_cache.stats cache) !prewarm;
  }

let parallel_comparison (p : Profile.t) =
  print_endline "";
  let plan = jobs_plan p in
  (* Widths of the scaling curve (requested; each is re-planned against
     the core count below). The requested comparison width and 1 are
     always included. *)
  let scale_widths = List.sort_uniq compare (1 :: p.jobs :: p.scale_jobs) in
  Printf.printf
    "== Parallel PA-R scaling: widths [%s] at equal budget (%.2fs), pooled \
     workers, shared floorplan cache ==\n"
    (String.concat ";" (List.map string_of_int scale_widths))
    p.par_budget_cap_s;
  (* Satellite requirement: a clamped run must be unmissable, both here
     and in the recorded metadata below. *)
  Domain_pool.warn_downgrade ~out:stdout ~label:"parallel PA-R comparison"
    plan;
  let insts =
    List.map
      (fun tasks ->
        match Suite.group ~seed:p.seed ~tasks ~count:1 () with
        | [ inst ] -> (tasks, inst)
        | _ -> assert false)
      p.groups
  in
  (* jobs=1 bit-identity: the parallel entry point at width 1 must
     replay the sequential engine exactly, and the sequential engine
     must replay itself (warm restart arenas included). *)
  let bit_identical =
    List.for_all
      (fun (tasks, inst) ->
        let s = p.seed + (7 * tasks) in
        let direct () =
          par_fingerprint
            (Pa_random.run ~seed:s ~min_iterations:par_prewarm_iters
               ~budget_seconds:0. inst)
        in
        let via_parallel =
          par_fingerprint
            (Pa_random.run_parallel ~jobs:1 ~seed:s
               ~min_iterations:par_prewarm_iters ~budget_seconds:0. inst)
        in
        let a = direct () in
        a = via_parallel && a = direct ())
      insts
  in
  if not bit_identical then
    print_endline "  !! jobs=1 is NOT bit-identical to the sequential engine";
  (* One measurement per *distinct effective* width: on a small machine
     several requested widths clamp to the same fan-out and re-measuring
     the same configuration only adds noise. The requested->effective
     mapping of every width is still recorded. *)
  let specs =
    List.map
      (fun requested ->
        let plan = Domain_pool.plan_jobs ~requested () in
        (requested, plan.Domain_pool.effective))
      scale_widths
  in
  let measured =
    List.fold_left
      (fun acc (requested, effective) ->
        if List.exists (fun pw -> pw.pw_effective = effective) acc then acc
        else acc @ [ par_measure_width p ~requested ~effective insts ])
      [] specs
  in
  let base =
    match List.find_opt (fun pw -> pw.pw_effective = 1) measured with
    | Some pw -> pw
    | None -> List.hd measured
  in
  let top =
    List.fold_left
      (fun best pw ->
        if pw.pw_effective > best.pw_effective then pw else best)
      base measured
  in
  let row_of pw tasks = List.find (fun (t, _, _) -> t = tasks) pw.pw_rows in
  (* Scaling table: one iters/makespan column pair per measured width. *)
  let t =
    Table.create
      ("# Tasks"
      :: List.concat_map
           (fun pw ->
             [
               Printf.sprintf "iters j%d" pw.pw_effective;
               Printf.sprintf "ms j%d" pw.pw_effective;
             ])
           measured
      @ [ "speedup" ])
  in
  List.iter
    (fun (tasks, _) ->
      let _, base_it, _ = row_of base tasks in
      let _, top_it, _ = row_of top tasks in
      Table.add_row t
        (string_of_int tasks
        :: List.concat_map
             (fun pw ->
               let _, it, ms = row_of pw tasks in
               [ string_of_int it; string_of_int ms ])
             measured
        @ [
            Printf.sprintf "x%.2f"
              (float_of_int top_it /. float_of_int (Stdlib.max 1 base_it));
          ]))
    insts;
  Table.print t;
  let totals pw = List.fold_left (fun a (_, it, _) -> a + it) 0 pw.pw_rows in
  let large_tasks_floor = 60 in
  let large_total pw =
    let sel =
      List.filter (fun (t, _, _) -> t >= large_tasks_floor) pw.pw_rows
    in
    let rows = if sel = [] then pw.pw_rows else sel in
    List.fold_left (fun a (_, it, _) -> a + it) 0 rows
  in
  let measurable = top.pw_effective >= 2 in
  let speedup_large =
    if measurable then
      Some
        (float_of_int (large_total top)
        /. float_of_int (Stdlib.max 1 (large_total base)))
    else None
  in
  let never_worse =
    List.for_all
      (fun (tasks, _) ->
        let _, _, ms1 = row_of base tasks in
        let _, _, msn = row_of top tasks in
        msn <= ms1)
      insts
  in
  (match speedup_large with
  | Some s ->
    Printf.printf
      "  iteration speedup j%d/j1: x%.2f overall, x%.2f on >=%d-task groups\n"
      top.pw_effective
      (float_of_int (totals top) /. float_of_int (Stdlib.max 1 (totals base)))
      s large_tasks_floor
  | None ->
    Printf.printf
      "  scaling NOT MEASURABLE on this machine (1 core): every width \
       clamps to jobs=1; the scaling guard must run on a multi-core host\n");
  List.iter
    (fun pw ->
      Printf.printf "  j%d cache: %d hits / %d lookups (%.1f%%)\n"
        pw.pw_effective pw.pw_cache.Fp_cache.hits
        (Fp_cache.lookups pw.pw_cache)
        (100. *. Fp_cache.hit_rate pw.pw_cache))
    measured;
  (* Champion tracking: fold this run's best per-group makespan into the
     persistent best-known table, tagged with the variant that found
     it. *)
  let candidates =
    List.map
      (fun (tasks, _) ->
        let best_ms, best_pw =
          List.fold_left
            (fun (bm, bp) pw ->
              let _, _, ms = row_of pw tasks in
              if ms < bm then (ms, pw) else (bm, bp))
            (max_int, base) measured
        in
        ( tasks,
          best_ms,
          Json.Obj
            [
              ("jobs", Json.Int best_pw.pw_effective);
              ("seed", Json.Int (p.seed + (7 * tasks)));
              ("budget_seconds", Json.float p.par_budget_cap_s);
              ( "shrink_factor",
                Json.float Pa.default_config.Pa.shrink_factor );
            ] ))
      insts
  in
  let improved = Champions.update ~run_id:(Run_store.active_id ()) candidates in
  (match improved with
  | [] -> print_endline "  champions: no group improved on the best known"
  | l ->
    List.iter
      (fun (tasks, old_ms, new_ms) ->
        match old_ms with
        | None ->
          Printf.printf "  champions: %d tasks -> %d (first record)\n" tasks
            new_ms
        | Some o ->
          Printf.printf "  champions: %d tasks improved %d -> %d\n" tasks o
            new_ms)
      l);
  (* Machine-readable record. Honest-parallelism metadata (cores,
     requested and effective widths, downgrade flag) is mandatory: the
     check subcommand refuses runs whose recorded cores are below what a
     scaling claim needs. *)
  let width_json pw =
    Json.Obj
      [
        ("jobs_requested", Json.Int pw.pw_requested);
        ("jobs_effective", Json.Int pw.pw_effective);
        ( "rows",
          Json.List
            (List.map
               (fun (tasks, it, ms) ->
                 Json.Obj
                   [
                     ("tasks", Json.Int tasks);
                     ("iterations", Json.Int it);
                     ("makespan", Json.Int ms);
                   ])
               pw.pw_rows) );
        ("total_iterations", Json.Int (totals pw));
        ("cache", cache_stats_json pw.pw_cache);
      ]
  in
  Run_store.write_section_json ~section:"parallel"
    (Json.Obj
       [
         ("section", Json.String "parallel");
         ("seed", Json.Int p.seed);
         ("budget_seconds", Json.float p.par_budget_cap_s);
         ("cores", Json.Int plan.Domain_pool.cores);
         ("jobs_requested", Json.Int plan.Domain_pool.requested);
         ("jobs_effective", Json.Int plan.Domain_pool.effective);
         ("downgraded", Json.Bool (Domain_pool.downgraded plan));
         ("prewarm_iterations", Json.Int par_prewarm_iters);
         ("jobs1_bit_identical", Json.Bool bit_identical);
         ("parallel_measurable", Json.Bool measurable);
         ( "requested_widths",
           Json.List
             (List.map
                (fun (requested, effective) ->
                  Json.Obj
                    [
                      ("requested", Json.Int requested);
                      ("effective", Json.Int effective);
                      ("downgraded", Json.Bool (effective < requested));
                    ])
                specs) );
         ("measurements", Json.List (List.map width_json measured));
         ( "totals",
           Json.Obj
             [
               ("iters_jobs1", Json.Int (totals base));
               ("iters_jobsN", Json.Int (totals top));
               ( "iteration_speedup",
                 Json.float
                   (float_of_int (totals top)
                   /. float_of_int (Stdlib.max 1 (totals base))) );
             ] );
         ("never_worse", Json.Bool never_worse);
         ("large_tasks_floor", Json.Int large_tasks_floor);
         ( "speedup_large_groups",
           match speedup_large with Some s -> Json.float s | None -> Json.Null
         );
       ])

(* ------------------------------------------------------------------ *)
(* Iteration throughput: restart kernel vs from-scratch reference loop *)

type iter_row = {
  ir_tasks : int;
  ir_iters : int;
  ir_s_new : float;
  ir_s_old : float;
  ir_ms_new : int;
  ir_ms_old : int;
  ir_identical : bool;
  ir_hits : int;
  ir_misses : int;
  ir_mw_new : float;  (* minor words / iteration, SoA kernel *)
  ir_mw_old : float;  (* minor words / iteration, reference loop *)
}

let hit_rate hits misses =
  float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses))

let words_per_iter (o : Pa_random.outcome) =
  o.Pa_random.minor_words /. float_of_int (Stdlib.max 1 o.Pa_random.iterations)

(* Everything that must coincide between the two loops for a fixed
   (seed, min_iterations, budget = 0) run — elapsed times excluded. *)
let iter_fingerprint (o : Pa_random.outcome) =
  ( o.Pa_random.iterations,
    (match o.Pa_random.schedule with
    | Some s -> Schedule.makespan s
    | None -> -1),
    List.map
      (fun (p : Pa_random.trace_point) ->
        (p.Pa_random.iteration, p.Pa_random.makespan))
      o.Pa_random.trace )

(* One PA-R stream at budget 0: [`New] the production restart kernel,
   [`Old] the from-scratch reference loop of test/oracle. *)
let iteration_run ~seed ~min_iterations ~cache inst = function
  | `New ->
    Pa_random.run ~seed ~min_iterations ~cache ~budget_seconds:0. inst
  | `Old ->
    Pa_oracle.restart_loop ~seed ~min_iterations ~check:(Fp_cache.check cache)
      inst

let iteration_comparison (p : Profile.t) =
  print_endline "";
  Printf.printf
    "== Restart iteration throughput: restart kernel vs from-scratch \
     reference loop (jobs=1, %d iterations each, budget 0) ==\n"
    p.iter_min;
  let t =
    Table.create
      [ "# Tasks"; "iters"; "new [s]"; "old [s]"; "iters/s new";
        "iters/s old"; "speedup"; "words/it new"; "words/it old"; "alloc x";
        "makespan"; "identical" ]
  in
  let rows =
    List.map
      (fun tasks ->
        match Suite.group ~seed:p.seed ~tasks ~count:1 () with
        | [ inst ] ->
          let s = p.seed + (13 * tasks) in
          (* One floorplan cache per group, shared between the two runs:
             both loops emit bit-identical candidate streams, so the
             second run's floorplan checks replay the first run's keys.
             The restart kernel runs FIRST so it is the one paying the
             cold misses — the measured speedup is conservative. *)
          let cache = Fp_cache.create () in
          let run arm =
            timed (fun () ->
                iteration_run ~seed:s ~min_iterations:p.iter_min ~cache inst
                  arm)
          in
          (* Untimed warm-up (throwaway cache) so neither loop pays the
             allocator's first-touch growth inside its timed window. *)
          let warm = Stdlib.min 10 p.iter_min in
          List.iter
            (fun arm ->
              ignore
                (iteration_run ~seed:s ~min_iterations:warm
                   ~cache:(Fp_cache.create ()) inst arm))
            [ `New; `Old ];
          let new_o, s_new = run `New in
          let old_o, s_old = run `Old in
          let makespan_of label (o : Pa_random.outcome) =
            match o.Pa_random.schedule with
            | Some sched ->
              must_validate label sched;
              Schedule.makespan sched
            | None -> -1
          in
          let ms_new = makespan_of "PA-R restart kernel" new_o in
          let ms_old = makespan_of "PA-R reference loop" old_o in
          let identical = iter_fingerprint new_o = iter_fingerprint old_o in
          let st = Fp_cache.stats cache in
          let row =
            {
              ir_tasks = tasks;
              ir_iters = new_o.Pa_random.iterations;
              ir_s_new = s_new;
              ir_s_old = s_old;
              ir_ms_new = ms_new;
              ir_ms_old = ms_old;
              ir_identical = identical;
              ir_hits = st.Fp_cache.hits;
              ir_misses = st.Fp_cache.misses;
              ir_mw_new = words_per_iter new_o;
              ir_mw_old = words_per_iter old_o;
            }
          in
          let per_s sec =
            float_of_int row.ir_iters /. Float.max sec 1e-9
          in
          Table.add_row t
            [
              string_of_int tasks;
              string_of_int row.ir_iters;
              Table.cell_f s_new;
              Table.cell_f s_old;
              Table.cell_f ~decimals:0 (per_s s_new);
              Table.cell_f ~decimals:0 (per_s s_old);
              Printf.sprintf "x%.2f" (s_old /. Float.max s_new 1e-9);
              Table.cell_f ~decimals:0 row.ir_mw_new;
              Table.cell_f ~decimals:0 row.ir_mw_old;
              Printf.sprintf "x%.1f" (row.ir_mw_old /. Float.max row.ir_mw_new 1e-9);
              string_of_int ms_new;
              (if identical then "yes" else "NO");
            ];
          row
        | _ -> assert false)
      p.groups
  in
  Table.print t;
  (* The timed groups above run on the zedboard fabric, which fits every
     improving candidate at full scale: the shrink lattice never engages
     and the only cache reuse is the second engine's replay of the
     first. On a half-size fabric (microzed, impl areas refitted to it)
     the device saturates and the lattice oscillates, revisiting demand
     sets. Same two-run shared-cache structure, untimed — this batch
     only measures cache behaviour. *)
  let sat_params =
    { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }
  in
  let sat_rows =
    List.map
      (fun tasks ->
        match
          Suite.group ~params:sat_params ~arch:Arch.microzed ~seed:p.seed
            ~tasks ~count:1 ()
        with
        | [ inst ] ->
          let cache = Fp_cache.create () in
          let s = p.seed + (13 * tasks) in
          List.iter
            (fun arm ->
              ignore
                (iteration_run ~seed:s ~min_iterations:p.iter_min ~cache inst
                   arm))
            [ `New; `Old ];
          (tasks, Fp_cache.stats cache)
        | _ -> assert false)
      p.groups
  in
  let timed_hits = List.fold_left (fun a r -> a + r.ir_hits) 0 rows
  and timed_misses = List.fold_left (fun a r -> a + r.ir_misses) 0 rows in
  let sat_hits =
    List.fold_left (fun a (_, st) -> a + st.Fp_cache.hits) 0 sat_rows
  and sat_misses =
    List.fold_left (fun a (_, st) -> a + st.Fp_cache.misses) 0 sat_rows
  in
  let total_hits = timed_hits + sat_hits
  and total_misses = timed_misses + sat_misses in
  Printf.printf
    "  floorplan cache, timed groups (shared per group across both \
     loops): %d hits / %d lookups (%.1f%%)\n"
    timed_hits (timed_hits + timed_misses)
    (100. *. hit_rate timed_hits timed_misses);
  Printf.printf
    "  floorplan cache, saturated fabric (xc7z010): %d hits / %d lookups \
     (%.1f%%)\n"
    sat_hits (sat_hits + sat_misses)
    (100. *. hit_rate sat_hits sat_misses);
  Printf.printf "  floorplan cache combined: %d hits / %d lookups (%.1f%%)\n"
    total_hits (total_hits + total_misses)
    (100. *. hit_rate total_hits total_misses);
  let largest =
    List.fold_left (fun acc r -> if r.ir_tasks > acc.ir_tasks then r else acc)
      (List.hd rows) rows
  in
  (* Allocation-regression gate inputs (the profile's
     [max_minor_words_per_iter]): worst SoA-kernel words/iteration over
     the groups, and the smallest reference/SoA reduction. *)
  let max_mw =
    List.fold_left (fun acc r -> Float.max acc r.ir_mw_new) 0. rows
  in
  let min_ratio =
    List.fold_left
      (fun acc r ->
        Float.min acc (r.ir_mw_old /. Float.max r.ir_mw_new 1e-9))
      infinity rows
  in
  let cache_json hits misses =
    [
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ("hit_rate", Json.float (hit_rate hits misses));
    ]
  in
  Run_store.write_section_json ~section:"iteration"
    (Json.Obj
       [
         ("section", Json.String "iteration");
         ("seed", Json.Int p.seed);
         ("min_iterations", Json.Int p.iter_min);
         ( "groups",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("tasks", Json.Int r.ir_tasks);
                      ("iterations", Json.Int r.ir_iters);
                      ("seconds_new", Json.float r.ir_s_new);
                      ("seconds_old", Json.float r.ir_s_old);
                      ( "iters_per_s_new",
                        Json.float
                          (float_of_int r.ir_iters /. Float.max r.ir_s_new 1e-9)
                      );
                      ( "iters_per_s_old",
                        Json.float
                          (float_of_int r.ir_iters /. Float.max r.ir_s_old 1e-9)
                      );
                      ( "speedup",
                        Json.float (r.ir_s_old /. Float.max r.ir_s_new 1e-9) );
                      ("minor_words_per_iter_new", Json.float r.ir_mw_new);
                      ("minor_words_per_iter_old", Json.float r.ir_mw_old);
                      ( "alloc_ratio",
                        Json.float
                          (r.ir_mw_old /. Float.max r.ir_mw_new 1e-9) );
                      ("makespan_new", Json.Int r.ir_ms_new);
                      ("makespan_old", Json.Int r.ir_ms_old);
                      ("identical", Json.Bool r.ir_identical);
                      ("cache", Json.Obj (cache_json r.ir_hits r.ir_misses));
                    ])
                rows) );
         ( "all_identical",
           Json.Bool (List.for_all (fun r -> r.ir_identical) rows) );
         ( "never_worse",
           Json.Bool
             (List.for_all (fun r -> r.ir_ms_new <= r.ir_ms_old) rows) );
         ( "largest_group",
           Json.Obj
             [
               ("tasks", Json.Int largest.ir_tasks);
               ( "speedup",
                 Json.float
                   (largest.ir_s_old /. Float.max largest.ir_s_new 1e-9) );
             ] );
         ( "alloc",
           Json.Obj
             [
               ("max_minor_words_per_iter", Json.float max_mw);
               ("min_alloc_ratio", Json.float min_ratio);
             ] );
         ( "saturated_groups",
           Json.List
             (List.map
                (fun (tasks, (st : Fp_cache.stats)) ->
                  Json.Obj
                    [
                      ("tasks", Json.Int tasks);
                      ( "cache",
                        Json.Obj
                          (cache_json st.Fp_cache.hits st.Fp_cache.misses) );
                    ])
                sat_rows) );
         ( "cache",
           Json.Obj
             (cache_json total_hits total_misses
             @ [
                 ( "timed",
                   Json.Obj
                     [
                       ("hits", Json.Int timed_hits);
                       ("misses", Json.Int timed_misses);
                     ] );
                 ( "saturated",
                   Json.Obj
                     [
                       ("hits", Json.Int sat_hits);
                       ("misses", Json.Int sat_misses);
                     ] );
               ]) );
       ])

(* ------------------------------------------------------------------ *)
(* Delta move kernel: moves/s against the from-scratch oracle, plus    *)
(* LNS-vs-PA-R at fixed work                                           *)

type moves_row = {
  mv_tasks : int;
  mv_moves : int;
  mv_applied : int;
  mv_s_inc : float;
  mv_s_orc : float;
  mv_s_pipe : float;
  mv_divergences : int;
  mv_ms_par : int;
  mv_ms_lns : int;
  mv_s_par : float;
  mv_s_lns : float;
  mv_lns_improved : int;
}

(* Drive [n] proposals from a fresh [seed]-derived stream through
   apply-then-rollback — the state never drifts, so every arm sees the
   exact same proposal sequence. [apply] is the kernel's [Delta.apply]
   or the oracle's, which follows it with a from-scratch re-timing of
   the materialized plan and a floorplan re-check. Returns how many
   were structurally accepted. *)
let drive_moves d ~apply ~seed ~n =
  let rng = Rng.create seed in
  let applied = ref 0 in
  for _ = 1 to n do
    match apply d (Lns.propose d rng) with
    | Some (_ : Delta.verdict) ->
      incr applied;
      Delta.rollback d
    | None -> ()
  done;
  !applied

(* The honest "no delta state" baseline: what a neighborhood search
   pays per candidate without the kernel — materialize the neighbor,
   re-time it from scratch, verify its floorplan unconditionally and
   re-ingest it, as the reference restart loop the iteration section
   compares against does. *)
let drive_moves_pipeline d ~config ~check ~seed ~n =
  let rng = Rng.create seed in
  let applied = ref 0 in
  for _ = 1 to n do
    match Delta.apply d (Lns.propose d rng) with
    | Some _ ->
      incr applied;
      let sc = Delta.to_schedule d in
      ignore
        (Delta_oracle.retime ~processor_tasks:(Delta.processor_tasks d) sc
          : Timing.resolved);
      ignore (Delta_oracle.fp_feasible ~check sc : bool);
      ignore (Delta.of_schedule ~config sc : Delta.t);
      Delta.rollback d
    | None -> ()
  done;
  !applied

(* The LNS arm's seeding restarts: 0.7 R, the rest of the PA-R arm's
   work going to move-level polish. *)
let lns_seed_restarts (p : Profile.t) = 7 * p.lns_restarts / 10

let moves_comparison (p : Profile.t) =
  print_endline "";
  let moves_per_instance = p.moves_per_instance in
  Printf.printf
    "== Delta move kernel: incremental re-evaluation vs from-scratch \
     re-timing (%d moves/instance), and LNS-vs-PA-R at fixed work (PA-R %d \
     restarts; LNS %d restarts + %d moves) ==\n"
    moves_per_instance p.lns_restarts (lns_seed_restarts p) p.lns_moves;
  let t =
    Table.create
      [ "# Tasks"; "moves"; "applied"; "inc [s]"; "orc [s]"; "pipe [s]";
        "moves/s inc"; "x orc"; "x pipe"; "diverge"; "PA-R"; "LNS"; "delta";
        "PA-R [s]"; "LNS [s]" ]
  in
  let rows =
    List.map
      (fun tasks ->
        match Suite.group ~seed:p.seed ~tasks ~count:1 () with
        | [ inst ] ->
          let s = p.seed + (29 * tasks) in
          let sched, _ = Pa.run inst in
          must_validate "PA seed" sched;
          let state () =
            (* fresh cache per arm: both arms pay identical cold misses
               for identical demand multisets *)
            let config =
              { Delta.default_config with
                Delta.cache = Some (Fp_cache.create ()) }
            in
            Delta.of_schedule ~config sched
          in
          let d_inc = state () and d_orc = state () and d_pipe = state () in
          let config_pipe =
            { Delta.default_config with
              Delta.cache = Some (Fp_cache.create ()) }
          in
          (* the oracle and pipeline arms re-check floorplans through
             caches of their own: each pays its own cold misses and
             never reads a verdict the kernel stored *)
          let check_orc = Delta_oracle.cached_check ()
          and check_pipe = Delta_oracle.cached_check () in
          let apply_orc = Delta_oracle.apply ~check:check_orc in
          (* Warm-up with the FULL stream: apply-then-rollback returns to
             the base state, so the timed pass replays the identical
             proposal sequence against a hot floorplan cache. Cold-miss
             floorplanning is the same exact packing solver in all arms
             (and is gated by the same needs-changed test), so leaving it
             in the window would only add identical noise that masks the
             evaluator difference being measured. *)
          ignore (drive_moves d_inc ~apply:Delta.apply ~seed:s
                    ~n:moves_per_instance);
          ignore (drive_moves d_orc ~apply:apply_orc ~seed:s
                    ~n:moves_per_instance);
          ignore (drive_moves_pipeline d_pipe ~config:config_pipe
                    ~check:check_pipe ~seed:s ~n:moves_per_instance);
          let applied, s_inc =
            timed (fun () ->
                drive_moves d_inc ~apply:Delta.apply ~seed:s
                  ~n:moves_per_instance)
          in
          let _applied_orc, s_orc =
            timed (fun () ->
                drive_moves d_orc ~apply:apply_orc ~seed:s
                  ~n:moves_per_instance)
          in
          let _applied_pipe, s_pipe =
            timed (fun () ->
                drive_moves_pipeline d_pipe ~config:config_pipe
                  ~check:check_pipe ~seed:s ~n:moves_per_instance)
          in
          (* Divergence audit (untimed): replay the same stream once
             more, this time committing every accepted move and holding
             the state's times, makespan and floorplan verdict against
             the oracle's from-scratch evaluation after each. *)
          let divergences = ref 0 in
          let rng = Rng.create s in
          for _ = 1 to moves_per_instance do
            match Delta.apply d_inc (Lns.propose d_inc rng) with
            | Some _ ->
              if Option.is_some (Delta_oracle.divergence ~check:check_orc d_inc)
              then incr divergences;
              Delta.commit d_inc
            | None -> ()
          done;
          (* LNS vs PA-R at fixed work, each a function of the code and
             the seed: R restarts, or 0.7 R restarts and then M polish
             proposals on the incumbent (the profile chooses R and M so
             that the two arms take about equal time). *)
          let par, s_par =
            timed (fun () ->
                Pa_random.run ~seed:s ~cache:(Fp_cache.create ())
                  ~min_iterations:p.lns_restarts ~budget_seconds:0. inst)
          in
          let ms_par =
            match par.Pa_random.schedule with
            | Some sc ->
              must_validate "PA-R (moves)" sc;
              Schedule.makespan sc
            | None -> Schedule.makespan sched
          in
          (* Most of the LNS arm's work goes to the restart search that
             annealing cannot imitate, the rest to move-level polish of
             the incumbent. One cache is shared across both phases. *)
          let lns_cache = Fp_cache.create () in
          let (lns_seed, lns), s_lns =
            timed (fun () ->
                let lns_seed =
                  match
                    (Pa_random.run ~seed:s ~cache:lns_cache
                       ~min_iterations:(lns_seed_restarts p) ~budget_seconds:0.
                       inst)
                      .Pa_random.schedule
                  with
                  | Some sc -> sc
                  | None -> sched
                in
                ( lns_seed,
                  Lns.polish
                    ~config:
                      { Delta.default_config with Delta.cache = Some lns_cache }
                    ~seed:s ~min_moves:p.lns_moves ~budget_seconds:0.
                    lns_seed ))
          in
          let ms_lns =
            match lns.Lns.schedule with
            | Some sc ->
              must_validate "LNS (moves)" sc;
              Schedule.makespan sc
            | None -> Schedule.makespan lns_seed
          in
          let row =
            {
              mv_tasks = tasks;
              mv_moves = moves_per_instance;
              mv_applied = applied;
              mv_s_inc = s_inc;
              mv_s_orc = s_orc;
              mv_s_pipe = s_pipe;
              mv_divergences = !divergences;
              mv_ms_par = ms_par;
              mv_ms_lns = ms_lns;
              mv_s_par = s_par;
              mv_s_lns = s_lns;
              mv_lns_improved = lns.Lns.stats.Lns.improvements;
            }
          in
          let per_s sec =
            float_of_int moves_per_instance /. Float.max sec 1e-9
          in
          Table.add_row t
            [
              string_of_int tasks;
              string_of_int moves_per_instance;
              string_of_int applied;
              Table.cell_f s_inc;
              Table.cell_f s_orc;
              Table.cell_f s_pipe;
              Table.cell_f ~decimals:0 (per_s s_inc);
              Printf.sprintf "x%.1f" (s_orc /. Float.max s_inc 1e-9);
              Printf.sprintf "x%.1f" (s_pipe /. Float.max s_inc 1e-9);
              string_of_int !divergences;
              string_of_int ms_par;
              string_of_int ms_lns;
              string_of_int (ms_lns - ms_par);
              Table.cell_f s_par;
              Table.cell_f s_lns;
            ];
          row
        | _ -> assert false)
      p.groups
  in
  Table.print t;
  let speedup_orc r = r.mv_s_orc /. Float.max r.mv_s_inc 1e-9 in
  let speedup_pipe r = r.mv_s_pipe /. Float.max r.mv_s_inc 1e-9 in
  let min_speedup =
    List.fold_left (fun acc r -> Float.min acc (speedup_pipe r)) infinity rows
  in
  let min_speedup_orc =
    List.fold_left (fun acc r -> Float.min acc (speedup_orc r)) infinity rows
  in
  let total_div = List.fold_left (fun a r -> a + r.mv_divergences) 0 rows in
  let lns_never_worse =
    List.for_all (fun r -> r.mv_ms_lns <= r.mv_ms_par) rows
  in
  let groups_where keep =
    List.filter keep rows
    |> List.map (fun r -> string_of_int r.mv_tasks)
    |> String.concat "; "
  in
  Printf.printf
    "\nsummary: min speedup x%.1f vs full pipeline (x%.1f vs from-scratch \
     oracle), %d divergence(s); LNS vs PA-R at fixed work: worse on task \
     groups [%s], better on [%s]\n"
    min_speedup min_speedup_orc total_div
    (groups_where (fun r -> r.mv_ms_lns > r.mv_ms_par))
    (groups_where (fun r -> r.mv_ms_lns < r.mv_ms_par));
  Run_store.write_section_json ~section:"moves"
    (Json.Obj
       [
         ("section", Json.String "moves");
         ("seed", Json.Int p.seed);
         ("moves_per_instance", Json.Int moves_per_instance);
         ("lns_restarts", Json.Int p.lns_restarts);
         ("lns_seed_restarts", Json.Int (lns_seed_restarts p));
         ("lns_moves", Json.Int p.lns_moves);
         ( "groups",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("tasks", Json.Int r.mv_tasks);
                      ("moves", Json.Int r.mv_moves);
                      ("applied", Json.Int r.mv_applied);
                      ("s_incremental", Json.float r.mv_s_inc);
                      ("s_oracle", Json.float r.mv_s_orc);
                      ("s_pipeline", Json.float r.mv_s_pipe);
                      ( "moves_per_s_incremental",
                        Json.float
                          (float_of_int r.mv_moves /. Float.max r.mv_s_inc 1e-9)
                      );
                      ( "moves_per_s_oracle",
                        Json.float
                          (float_of_int r.mv_moves /. Float.max r.mv_s_orc 1e-9)
                      );
                      ( "moves_per_s_pipeline",
                        Json.float
                          (float_of_int r.mv_moves
                          /. Float.max r.mv_s_pipe 1e-9) );
                      ("speedup_vs_oracle", Json.float (speedup_orc r));
                      ("speedup_vs_pipeline", Json.float (speedup_pipe r));
                      ("speedup", Json.float (speedup_pipe r));
                      ("divergences", Json.Int r.mv_divergences);
                      ("makespan_par", Json.Int r.mv_ms_par);
                      ("makespan_lns", Json.Int r.mv_ms_lns);
                      ("seconds_par", Json.float r.mv_s_par);
                      ("seconds_lns", Json.float r.mv_s_lns);
                      ("lns_improvements", Json.Int r.mv_lns_improved);
                      ( "lns_not_worse",
                        Json.Bool (r.mv_ms_lns <= r.mv_ms_par) );
                    ])
                rows) );
         ("min_speedup", Json.float min_speedup);
         ("min_speedup_vs_oracle", Json.float min_speedup_orc);
         ("divergences", Json.Int total_div);
         ("all_agree", Json.Bool (total_div = 0));
         ("lns_never_worse", Json.Bool lns_never_worse);
       ])

(* ------------------------------------------------------------------ *)
(* Floorplan oracle: column-interval packer (v2) vs backtracking (v1)  *)

type fp_row = {
  fr_tasks : int;
  fr_checks : int;
  fr_s_v1 : float;
  fr_s_v2 : float;
  fr_identical : bool;
  fr_refined : int;
  fr_hits : int;
  fr_misses : int;
  fr_ms_v1 : int;
  fr_ms_v2 : int;
}

(* Region need-sets a PA-R search would actually send to the oracle:
   seeded random-ordering [Pa.schedule_once] passes at the shrink-lattice
   scales the restart loop visits. *)
let collect_need_sets ~seed ~count inst =
  let rng = Rng.create seed in
  let ctx = Pa.Context.create inst in
  let lattice = [| 1.0; 0.9; 0.81 |] in
  let acc = ref [] in
  for i = 0 to count - 1 do
    let config =
      { Pa.default_config with
        Pa.ordering = Regions_define.Random (Rng.split rng) }
    in
    let sched =
      Pa.schedule_once ~config ~resource_scale:lattice.(i mod 3) ~ctx inst
    in
    let needs =
      Array.map
        (fun (r : Schedule.region) -> r.Schedule.res)
        sched.Schedule.regions
    in
    if Array.length needs > 0 then acc := needs :: !acc
  done;
  List.rev !acc

(* The packer oracle's [pack_v1] as a floorplan check report. *)
let check_v1 device needs =
  let t0 = Unix.gettimeofday () in
  let verdict =
    match Packer_oracle.pack_v1 device needs with
    | Resched_floorplan.Packer.Placed p -> Floorplanner.Feasible p
    | Resched_floorplan.Packer.Infeasible -> Floorplanner.Infeasible
    | Resched_floorplan.Packer.Unknown -> Floorplanner.Unknown
  in
  { Floorplanner.verdict; elapsed = Unix.gettimeofday () -. t0 }

let floorplan_oracle_comparison (p : Profile.t) =
  print_endline "";
  Printf.printf
    "== Floorplan oracle: column-interval packer vs backtracking v1 (%d \
     checks/group) + cache replay ==\n"
    p.fp_checks;
  let t =
    Table.create
      [ "# Tasks"; "checks"; "v1 [s]"; "v2 [s]"; "checks/s v1";
        "checks/s v2"; "speedup"; "identical"; "hit rate" ]
  in
  let verdict_class (r : Floorplanner.report) =
    match r.Floorplanner.verdict with
    | Floorplanner.Feasible _ -> 0
    | Floorplanner.Infeasible -> 1
    | Floorplanner.Unknown -> 2
  in
  (* v2 may be strictly MORE decisive than v1 (its capacity bounds and
     pruning settle sets where v1's identical node budget runs out); a
     v1 [Unknown] is therefore compatible with any v2 verdict. What must
     never happen: a contradiction (Feasible vs Infeasible) or v2 losing
     decisiveness (v1 decided, v2 Unknown). *)
  let compatible a b =
    let ca = verdict_class a and cb = verdict_class b in
    ca = cb || ca = 2
  in
  let refined a b = verdict_class a = 2 && verdict_class b <> 2 in
  let rows =
    List.map
      (fun tasks ->
        match Suite.group ~seed:p.seed ~tasks ~count:1 () with
        | [ inst ] ->
          let device = inst.Instance.arch.Arch.device in
          let s = p.seed + (17 * tasks) in
          let stream = collect_need_sets ~seed:s ~count:p.fp_checks inst in
          (* v1 is the packer oracle of test/oracle; v2 the production
             check. *)
          let check_v2 device needs = Floorplanner.check device needs in
          let run check = List.map (fun needs -> check device needs) stream in
          (* Untimed warm-up so neither packer pays allocator growth. *)
          ignore (run check_v1);
          ignore (run check_v2);
          let reports_v1, s_v1 = timed (fun () -> run check_v1) in
          let reports_v2, s_v2 = timed (fun () -> run check_v2) in
          let identical = List.for_all2 compatible reports_v1 reports_v2 in
          let refinements =
            List.fold_left2
              (fun acc a b -> if refined a b then acc + 1 else acc)
              0 reports_v1 reports_v2
          in
          (* Every v2 placement must independently validate. *)
          List.iter2
            (fun needs (r : Floorplanner.report) ->
              match r.Floorplanner.verdict with
              | Floorplanner.Feasible placements -> (
                match Floorplanner.validate device ~needs placements with
                | Ok () -> ()
                | Error msg ->
                  failwith
                    (Printf.sprintf "packer-v2 invalid floorplan (%d tasks): %s"
                       tasks msg))
              | _ -> ())
            stream reports_v2;
          (* Replay the same stream through a fresh cache. *)
          let cache = Fp_cache.create () in
          List.iter
            (fun needs -> ignore (Fp_cache.check cache device needs))
            stream;
          let st = Fp_cache.stats cache in
          (* End-to-end PA-R must be packer-invariant: the reference
             restart loop on the v1 check against production PA-R, both
             without a cache. The loop equals [Pa_random.run] whenever
             the checks' verdicts do (a property in test_scheduler). *)
          let makespan (o : Pa_random.outcome) =
            match o.Pa_random.schedule with
            | Some sched -> Schedule.makespan sched
            | None -> -1
          in
          let ms_v1 =
            makespan
              (Pa_oracle.restart_loop ~check:check_v1 ~seed:s
                 ~min_iterations:p.fp_e2e_iters inst)
          in
          let ms_v2 =
            makespan
              (Pa_random.run ~seed:s ~min_iterations:p.fp_e2e_iters
                 ~budget_seconds:0. inst)
          in
          let checks = List.length stream in
          let row =
            {
              fr_tasks = tasks;
              fr_checks = checks;
              fr_s_v1 = s_v1;
              fr_s_v2 = s_v2;
              fr_identical = identical;
              fr_refined = refinements;
              fr_hits = st.Fp_cache.hits;
              fr_misses = st.Fp_cache.misses;
              fr_ms_v1 = ms_v1;
              fr_ms_v2 = ms_v2;
            }
          in
          let per_s sec = float_of_int checks /. Float.max sec 1e-9 in
          Table.add_row t
            [
              string_of_int tasks;
              string_of_int checks;
              Table.cell_f s_v1;
              Table.cell_f s_v2;
              Table.cell_f ~decimals:0 (per_s s_v1);
              Table.cell_f ~decimals:0 (per_s s_v2);
              Printf.sprintf "x%.2f" (s_v1 /. Float.max s_v2 1e-9);
              (if identical then "yes" else "NO");
              Printf.sprintf "%.0f%%" (100. *. Fp_cache.hit_rate st);
            ];
          row
        | _ -> assert false)
      p.groups
  in
  Table.print t;
  (* Aggregate speedup over the largest groups (>= 60 tasks when present,
     otherwise all groups): total v1 time over total v2 time. *)
  let big = List.filter (fun r -> r.fr_tasks >= 60) rows in
  let agg = if big = [] then rows else big in
  let sum f l = List.fold_left (fun a r -> a +. f r) 0. l in
  let speedup_large =
    sum (fun r -> r.fr_s_v1) agg /. Float.max (sum (fun r -> r.fr_s_v2) agg) 1e-9
  in
  let all_identical = List.for_all (fun r -> r.fr_identical) rows in
  (* -1 means no schedule found; v2 finding one where v1 did not is an
     improvement, not a regression. *)
  let makespans_never_worse =
    List.for_all
      (fun r ->
        r.fr_ms_v2 = r.fr_ms_v1
        || (r.fr_ms_v2 >= 0 && (r.fr_ms_v1 < 0 || r.fr_ms_v2 <= r.fr_ms_v1)))
      rows
  in
  let total_hits = List.fold_left (fun a r -> a + r.fr_hits) 0 rows
  and total_misses = List.fold_left (fun a r -> a + r.fr_misses) 0 rows in
  let combined_rate = hit_rate total_hits total_misses in
  let total_refined = List.fold_left (fun a r -> a + r.fr_refined) 0 rows in
  Printf.printf
    "  oracle speedup on %s groups: x%.2f; verdicts identical: %b (%d \
     refined from v1 Unknown); PA-R makespans never worse: %b; cache %d \
     hits / %d misses (%.1f%%)\n"
    (if big = [] then "all" else ">=60-task")
    speedup_large all_identical total_refined makespans_never_worse total_hits
    total_misses (100. *. combined_rate);
  Run_store.write_section_json ~section:"floorplan"
    (Json.Obj
       [
         ("section", Json.String "floorplan");
         ("seed", Json.Int p.seed);
         ("checks_per_group", Json.Int p.fp_checks);
         ("e2e_iterations", Json.Int p.fp_e2e_iters);
         ( "groups",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ("tasks", Json.Int r.fr_tasks);
                      ("checks", Json.Int r.fr_checks);
                      ("seconds_v1", Json.float r.fr_s_v1);
                      ("seconds_v2", Json.float r.fr_s_v2);
                      ( "checks_per_s_v1",
                        Json.float
                          (float_of_int r.fr_checks /. Float.max r.fr_s_v1 1e-9)
                      );
                      ( "checks_per_s_v2",
                        Json.float
                          (float_of_int r.fr_checks /. Float.max r.fr_s_v2 1e-9)
                      );
                      ( "speedup",
                        Json.float (r.fr_s_v1 /. Float.max r.fr_s_v2 1e-9) );
                      ("identical", Json.Bool r.fr_identical);
                      ("refined", Json.Int r.fr_refined);
                      ( "cache",
                        Json.Obj
                          [
                            ("hits", Json.Int r.fr_hits);
                            ("misses", Json.Int r.fr_misses);
                            ( "hit_rate",
                              Json.float (hit_rate r.fr_hits r.fr_misses) );
                          ] );
                      ("makespan_v1", Json.Int r.fr_ms_v1);
                      ("makespan_v2", Json.Int r.fr_ms_v2);
                    ])
                rows) );
         ("all_identical", Json.Bool all_identical);
         ("refined", Json.Int total_refined);
         ("makespans_never_worse", Json.Bool makespans_never_worse);
         ("speedup_large_groups", Json.float speedup_large);
         ( "cache",
           Json.Obj
             [
               ("hits", Json.Int total_hits);
               ("misses", Json.Int total_misses);
               ("combined_hit_rate", Json.float combined_rate);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* MILP engine: warm-started revised simplex vs dense tableau oracle   *)

(* Tiny homogeneous instances (shared with the ILP-viability section):
   the monolithic formulation is the only workload in the repo that
   drives the branch-and-bound for thousands of nodes, so it is the
   "IS-k chunk"-shaped stress test for the LP engines. *)
let ilp_tiny_params =
  { Suite.default_params with
    Suite.clb_min = 100;
    clb_max = 260;
    p_bram_heavy = 0.;
    p_dsp_heavy = 0.;
    width_of_tasks = (fun _ -> 2) }

(* Random bounded LP in the size range of the floorplanner's packing
   models and one IS-k chunk relaxation (tens of variables, most with
   finite boxes). The rhs is anchored near each row's value at the box
   midpoint so most draws are feasible and need real pivoting. *)
let random_lp rng =
  let nvars = 18 + Rng.int rng 18 in
  let nrows = 10 + Rng.int rng 14 in
  let m =
    Lp.create
      ~objective:(if Rng.bool rng then Lp.Maximize else Lp.Minimize)
      ()
  in
  let vars =
    Array.init nvars (fun _ ->
        let lb = float_of_int (Rng.int rng 3) in
        let ub = lb +. 1. +. float_of_int (Rng.int rng 7) in
        Lp.add_var m ~lb ~ub ~obj:(float_of_int (Rng.int_in rng (-9) 9)) ())
  in
  for _ = 1 to nrows do
    let nterms = 2 + Rng.int rng 4 in
    let terms =
      List.init nterms (fun _ ->
          let v = vars.(Rng.int rng nvars) in
          let c = float_of_int (Rng.int_in rng 1 4) in
          (v, if Rng.bool rng then c else -.c))
    in
    let mid =
      List.fold_left
        (fun acc (v, c) -> acc +. (c *. 0.5 *. (Lp.var_lb m v +. Lp.var_ub m v)))
        0. terms
    in
    if Rng.int rng 6 = 0 then Lp.add_constraint m terms Lp.Eq mid
    else
      let sense = if Rng.bool rng then Lp.Le else Lp.Ge in
      let slack = float_of_int (Rng.int_in rng (-4) 8) in
      let rhs = match sense with Lp.Le -> mid +. slack | _ -> mid -. slack in
      Lp.add_constraint m terms sense rhs
  done;
  m

let lp_results_agree a b =
  match (a, b) with
  | Revised.Optimal x, Revised.Optimal y ->
    Float.abs (x.Revised.objective -. y.Revised.objective)
    <= 1e-6 *. (1. +. Float.abs x.Revised.objective)
  | Revised.Infeasible, Revised.Infeasible
  | Revised.Unbounded, Revised.Unbounded ->
    true
  (* an iteration-capped solve is indeterminate, not a verdict *)
  | Revised.Limit, _ | _, Revised.Limit -> true
  | _ -> false

type milp_engine_row = {
  me_seconds : float;
  me_nodes : int;
  me_objective : float;
  me_proved : bool;
  me_makespan : int;  (** -1 when no integer solution was found *)
}

(* One solve of the monolithic ILP, model building and schedule
   extraction included: [`Revised] is [Ilp_exact.solve], [`Tableau] the
   dense-tableau oracle of test/oracle on the same model. Both stop at
   the same node budget and have no time limit, so at [jobs = 1] where
   each search ends is a function of the code alone. Every model has an
   integer solution (all tasks in software), so a solve that returns
   none stopped at the node budget, and its row reports that budget as
   the nodes it spent. *)
let milp_bnb_run ?(jobs = 1) ~node_budget arm inst =
  let solve () =
    match arm with
    | `Revised ->
      Option.map
        (fun (r : Ilp_exact.result) ->
          ( r.Ilp_exact.schedule, r.Ilp_exact.ilp_objective,
            r.Ilp_exact.proved_optimal, r.Ilp_exact.nodes ))
        (Ilp_exact.solve ~node_limit:node_budget ~jobs inst)
    | `Tableau -> (
      let model = Ilp_exact.build inst in
      match Tableau.solve ~node_limit:node_budget (Ilp_exact.lp model) with
      | Branch_bound.Optimal s | Branch_bound.Feasible s ->
        Some
          ( Ilp_exact.extract inst model s.Branch_bound.values,
            s.Branch_bound.objective, s.Branch_bound.proved_optimal,
            s.Branch_bound.nodes )
      | Branch_bound.Infeasible | Branch_bound.Unbounded
      | Branch_bound.Node_limit ->
        None)
  in
  let r, secs = timed solve in
  match r with
  | Some (schedule, objective, proved, nodes) ->
    must_validate "ILP(bench)" schedule;
    {
      me_seconds = secs;
      me_nodes = nodes;
      me_objective = objective;
      me_proved = proved;
      me_makespan = Schedule.makespan schedule;
    }
  | None ->
    {
      me_seconds = secs;
      me_nodes = node_budget;
      me_objective = Float.nan;
      me_proved = false;
      me_makespan = -1;
    }

let milp_comparison (p : Profile.t) =
  print_endline "";
  Printf.printf
    "== MILP engine: dense tableau oracle vs warm-started revised simplex \
     (%d nodes per solve) ==\n"
    p.milp_node_budget;
  let node_budget = p.milp_node_budget in
  (* --- LP kernel: floorplan-sized continuous relaxations ----------- *)
  let rng = Rng.create (p.seed lxor 0x317) in
  let models = List.init 24 (fun _ -> random_lp rng) in
  let nmodels = List.length models in
  let lp_agree =
    List.for_all
      (fun m -> lp_results_agree (Simplex.solve m) (Revised.solve m))
      models
  in
  (* warm-up pass so neither engine pays first-touch allocation *)
  List.iter (fun m -> ignore (Simplex.solve m); ignore (Revised.solve m)) models;
  let (), s_tab =
    timed (fun () ->
        for _ = 1 to p.milp_lp_repeats do
          List.iter (fun m -> ignore (Simplex.solve m)) models
        done)
  in
  let (), s_rev =
    timed (fun () ->
        for _ = 1 to p.milp_lp_repeats do
          List.iter (fun m -> ignore (Revised.solve m)) models
        done)
  in
  let lp_speedup = s_tab /. Float.max s_rev 1e-9 in
  Printf.printf
    "  LP kernel (%d models x %d solves): tableau %.3fs, revised %.3fs \
     (x%.2f), verdicts %s\n"
    nmodels p.milp_lp_repeats s_tab s_rev lp_speedup
    (if lp_agree then "agree" else "DIVERGE");
  (* --- Branch-and-bound on the monolithic ILP, jobs = 1 ------------ *)
  let t =
    Table.create
      [ "# Tasks"; "vars"; "rows"; "nodes tab"; "nodes rev"; "s tab";
        "s rev"; "nodes/s tab"; "nodes/s rev"; "n/s speedup"; "objective" ]
  in
  let per_s r = float_of_int r.me_nodes /. Float.max r.me_seconds 1e-9 in
  let speedup tab rev = per_s rev /. Float.max (per_s tab) 1e-9 in
  (* The tableau arm stops at 4 tasks: on the 5-task model its node LPs
     run the dense simplex to its pivot cap, and it finds no solution
     within the node budget in over a minute. *)
  let tableau_max_tasks = 4 in
  let bnb =
    List.map
      (fun tasks ->
        let inst =
          Suite.instance ~params:ilp_tiny_params ~arch:Arch.mini
            (Rng.create (p.seed + tasks)) ~tasks
        in
        let vars, rows = Ilp_exact.model_size inst in
        let tab =
          if tasks > tableau_max_tasks then None
          else Some (milp_bnb_run ~node_budget `Tableau inst)
        in
        let rev = milp_bnb_run ~node_budget `Revised inst in
        let tab_cell f = match tab with Some r -> f r | None -> "-" in
        Table.add_row t
          [
            string_of_int tasks;
            string_of_int vars;
            string_of_int rows;
            tab_cell (fun r -> string_of_int r.me_nodes);
            string_of_int rev.me_nodes;
            tab_cell (fun r -> Table.cell_f r.me_seconds);
            Table.cell_f rev.me_seconds;
            tab_cell (fun r -> Table.cell_f ~decimals:0 (per_s r));
            Table.cell_f ~decimals:0 (per_s rev);
            tab_cell (fun r -> Printf.sprintf "x%.2f" (speedup r rev));
            Printf.sprintf "%s vs %.1f"
              (tab_cell (fun r -> Printf.sprintf "%.1f" r.me_objective))
              rev.me_objective;
          ];
        (tasks, vars, rows, tab, rev))
      [ 2; 3; 4; 5 ]
  in
  Table.print t;
  let objectives_agree (tab : milp_engine_row) (rev : milp_engine_row) =
    (* Comparable only when both solves ran to proven optimality; a
       budget-limited incumbent is a lower-quality answer by design. *)
    (not (tab.me_proved && rev.me_proved))
    || Float.abs (tab.me_objective -. rev.me_objective)
       <= 1e-6 *. (1. +. Float.abs tab.me_objective)
  in
  let never_worse (tab : milp_engine_row) (rev : milp_engine_row) =
    tab.me_makespan < 0 || (rev.me_makespan >= 0 && rev.me_makespan <= tab.me_makespan)
  in
  (* A row without a tableau solve has nothing to compare. *)
  let against check tab rev =
    Option.fold ~none:true ~some:(fun tab -> check tab rev) tab
  in
  let engines_agree =
    lp_agree
    && List.for_all
         (fun (_, _, _, tab, rev) -> against objectives_agree tab rev)
         bnb
  in
  let makespan_ok =
    List.for_all (fun (_, _, _, tab, rev) -> against never_worse tab rev) bnb
  in
  (* Aggregate throughput over the instances where BOTH engines produced
     a solution: where the tableau finds nothing within the node budget
     (reported per-row above), its nodes/s measures a search that never
     reached an integer point, and counting it would skew the revised
     engine's speedup. *)
  let both =
    List.filter_map
      (fun (_, _, _, tab, rev) ->
        match tab with
        | Some tab when tab.me_makespan >= 0 && rev.me_makespan >= 0 ->
          Some (tab, rev)
        | Some _ | None -> None)
      bnb
  in
  let tot_nodes f =
    List.fold_left (fun a (tab, rev) -> a + (f tab rev).me_nodes) 0 both
  and tot_secs f =
    List.fold_left (fun a (tab, rev) -> a +. (f tab rev).me_seconds) 0. both
  in
  let nps_tab =
    float_of_int (tot_nodes (fun tab _ -> tab))
    /. Float.max (tot_secs (fun tab _ -> tab)) 1e-9
  and nps_rev =
    float_of_int (tot_nodes (fun _ rev -> rev))
    /. Float.max (tot_secs (fun _ rev -> rev)) 1e-9
  in
  let nps_speedup = nps_rev /. Float.max nps_tab 1e-9 in
  Printf.printf
    "  aggregate B&B throughput at jobs=1: tableau %.0f nodes/s, revised \
     %.0f nodes/s (x%.2f)\n"
    nps_tab nps_rev nps_speedup;
  (* --- Parallel B&B: revised engine, jobs=1 vs jobs=N -------------- *)
  let par_tasks = 5 in
  let par_inst =
    Suite.instance ~params:ilp_tiny_params ~arch:Arch.mini
      (Rng.create (p.seed + par_tasks)) ~tasks:par_tasks
  in
  let par_jobs = (jobs_plan p).Domain_pool.effective in
  let j1 = milp_bnb_run ~jobs:1 ~node_budget `Revised par_inst in
  let jn = milp_bnb_run ~jobs:par_jobs ~node_budget `Revised par_inst in
  Printf.printf
    "  parallel B&B (%d tasks, revised): jobs=1 %d nodes in %.2fs, jobs=%d \
     %d nodes in %.2fs (nodes/s x%.2f)\n"
    par_tasks j1.me_nodes j1.me_seconds par_jobs jn.me_nodes jn.me_seconds
    (float_of_int jn.me_nodes /. Float.max jn.me_seconds 1e-9
    /. Float.max (float_of_int j1.me_nodes /. Float.max j1.me_seconds 1e-9) 1e-9);
  let engine_json r =
    Json.Obj
      [
        ("seconds", Json.float r.me_seconds);
        ("nodes", Json.Int r.me_nodes);
        ("nodes_per_s", Json.float (per_s r));
        ("objective", Json.float r.me_objective);
        ("proved_optimal", Json.Bool r.me_proved);
        ("makespan", Json.Int r.me_makespan);
      ]
  in
  let run_json r =
    Json.Obj
      [
        ("seconds", Json.float r.me_seconds);
        ("nodes", Json.Int r.me_nodes);
        ("makespan", Json.Int r.me_makespan);
      ]
  in
  Run_store.write_section_json ~section:"milp"
    (Json.Obj
       [
         ("section", Json.String "milp");
         ("seed", Json.Int p.seed);
         ("node_budget", Json.Int node_budget);
         ( "lp_kernel",
           Json.Obj
             [
               ("models", Json.Int nmodels);
               ("repeats", Json.Int p.milp_lp_repeats);
               ("seconds_tableau", Json.float s_tab);
               ("seconds_revised", Json.float s_rev);
               ("speedup", Json.float lp_speedup);
               ("all_agree", Json.Bool lp_agree);
             ] );
         ( "bnb",
           Json.List
             (List.map
                (fun (tasks, vars, rows, tab, rev) ->
                  Json.Obj
                    [
                      ("tasks", Json.Int tasks);
                      ("vars", Json.Int vars);
                      ("rows", Json.Int rows);
                      ( "tableau",
                        Option.fold ~none:Json.Null ~some:engine_json tab );
                      ("revised", engine_json rev);
                      ( "nodes_per_s_speedup",
                        Option.fold ~none:Json.Null
                          ~some:(fun tab -> Json.float (speedup tab rev))
                          tab );
                      ( "objectives_agree",
                        Json.Bool (against objectives_agree tab rev) );
                      ("never_worse", Json.Bool (against never_worse tab rev));
                    ])
                bnb) );
         ( "bnb_totals",
           Json.Obj
             [
               ("nodes_per_s_tableau", Json.float nps_tab);
               ("nodes_per_s_revised", Json.float nps_rev);
               ("nodes_per_s_speedup", Json.float nps_speedup);
             ] );
         ( "parallel",
           Json.Obj
             [
               ("jobs", Json.Int par_jobs);
               ("tasks", Json.Int par_tasks);
               ("jobs1", run_json j1);
               ("jobsN", run_json jn);
               ("objectives_agree", Json.Bool (objectives_agree j1 jn));
             ] );
         ("engines_agree", Json.Bool engines_agree);
         ("never_worse", Json.Bool makespan_ok);
       ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation_ordering (p : Profile.t) =
  print_endline "";
  print_endline
    "== Ablation: non-critical task ordering in regions definition ==";
  let t =
    Table.create [ "# Tasks"; "efficiency (PA)"; "cost"; "topological"; "random(1)" ]
  in
  List.iter
    (fun tasks ->
      let insts =
        Suite.group ~seed:p.seed ~tasks ~count:p.graphs_per_group ()
      in
      let mean_for ordering =
        let ms =
          List.map
            (fun inst ->
              let config = { Pa.default_config with Pa.ordering } in
              let sched, _ = Pa.run ~config inst in
              must_validate "PA(ordering)" sched;
              float_of_int (Schedule.makespan sched))
            insts
        in
        Stats.mean (Array.of_list ms)
      in
      Table.add_row t
        [
          string_of_int tasks;
          Table.cell_f ~decimals:0 (mean_for Regions_define.By_efficiency);
          Table.cell_f ~decimals:0 (mean_for Regions_define.By_cost);
          Table.cell_f ~decimals:0 (mean_for Regions_define.Topological);
          Table.cell_f ~decimals:0
            (mean_for (Regions_define.Random (Rng.create p.seed)));
        ])
    [ 30; 60 ];
  Table.print t

let ablation_module_reuse (p : Profile.t) =
  print_endline "";
  print_endline "== Ablation: module reuse (paper future work) ==";
  let t = Table.create [ "algorithm"; "reuse off"; "reuse on"; "delta" ] in
  let insts =
    Suite.group ~seed:p.seed ~tasks:40 ~count:p.graphs_per_group ()
  in
  let mean ms = Stats.mean (Array.of_list ms) in
  let pa_off =
    mean
      (List.map
         (fun i -> float_of_int (Schedule.makespan (fst (Pa.run i))))
         insts)
  in
  let pa_on =
    mean
      (List.map
         (fun i ->
           let config = { Pa.default_config with Pa.module_reuse = true } in
           float_of_int (Schedule.makespan (fst (Pa.run ~config i))))
         insts)
  in
  let is5 reuse =
    mean
      (List.map
         (fun i ->
           let config =
             { (Isk.config ~k:5) with
               Isk.chunk_node_limit = p.isk_node_cap;
               Isk.module_reuse = reuse }
           in
           float_of_int (Schedule.makespan (fst (Isk.run ~config i))))
         insts)
  in
  let is5_off = is5 false and is5_on = is5 true in
  let row name off on =
    Table.add_row t
      [
        name;
        Table.cell_f ~decimals:0 off;
        Table.cell_f ~decimals:0 on;
        Table.cell_pct (Stats.improvement_pct ~baseline:off ~value:on);
      ]
  in
  row "PA (40 tasks)" pa_off pa_on;
  row "IS-5 (40 tasks)" is5_off is5_on;
  Table.print t

let ablation_floorplan_engines (p : Profile.t) =
  print_endline "";
  print_endline
    "== Ablation: floorplan engines (random region sets on minifab, where \
     both engines can decide) ==";
  let t =
    Table.create
      [ "engine"; "feasible"; "infeasible"; "unknown"; "avg time [ms]" ]
  in
  let rng = Rng.create (p.seed lxor 0xF100) in
  let needs_sets =
    List.init 24 (fun _ ->
        let count = 1 + Rng.int rng 4 in
        Array.init count (fun _ ->
            Resource.make
              ~clb:(50 + Rng.int rng 220)
              ~bram:(Rng.int rng 9)
              ~dsp:(Rng.int rng 14)))
  in
  let agreement = ref 0 and comparable = ref 0 in
  let verdicts engine =
    List.map
      (fun needs ->
        let device = Resched_fabric.Device.minifab in
        let report = Floorplanner.check ~engine device needs in
        (report.Floorplanner.verdict, report.Floorplanner.elapsed))
      needs_sets
  in
  let back = verdicts Floorplanner.Backtracking in
  let milp = verdicts Floorplanner.Milp in
  List.iter2
    (fun (vb, _) (vm, _) ->
      match (vb, vm) with
      | Floorplanner.Feasible _, Floorplanner.Feasible _
      | Floorplanner.Infeasible, Floorplanner.Infeasible ->
        incr comparable;
        incr agreement
      | Floorplanner.Unknown, _ | _, Floorplanner.Unknown -> ()
      | _ -> incr comparable)
    back milp;
  let summarize name results =
    let feas = ref 0 and infeas = ref 0 and unk = ref 0 and time = ref 0. in
    List.iter
      (fun (v, s) ->
        time := !time +. s;
        match v with
        | Floorplanner.Feasible _ -> incr feas
        | Floorplanner.Infeasible -> incr infeas
        | Floorplanner.Unknown -> incr unk)
      results;
    Table.add_row t
      [
        name;
        string_of_int !feas;
        string_of_int !infeas;
        string_of_int !unk;
        Table.cell_f ~decimals:2
          (1000. *. !time /. float_of_int (List.length results));
      ]
  in
  summarize "backtracking" back;
  summarize "milp" milp;
  Table.print t;
  Printf.printf "  decided-verdict agreement: %d/%d\n" !agreement !comparable

let related_work_ilp_viability (p : Profile.t) =
  print_endline "";
  print_endline
    "== Related work: monolithic ILP [8] viability (time limit 5s/size) ==";
  print_endline
    "   (the paper dismisses the exact ILP as 'not viable even for small\n\
    \    problem instances'; this section reproduces that observation)";
  let t =
    Table.create
      [ "# Tasks"; "vars"; "rows"; "outcome"; "ILP time [s]"; "PA time [s]";
        "makespan vs exhaustive" ]
  in
  List.iter
    (fun tasks ->
      let inst =
        Suite.instance ~params:ilp_tiny_params ~arch:Arch.mini
          (Rng.create (p.seed + tasks)) ~tasks
      in
      let vars, rows = Resched_baseline.Ilp_exact.model_size inst in
      let (ilp, ilp_s) =
        timed (fun () ->
            Resched_baseline.Ilp_exact.solve ~node_limit:500_000
              ~time_limit:5. inst)
      in
      let (_, pa_s) = timed (fun () -> Pa.run inst) in
      let opt = Resched_baseline.Optimal.schedule inst in
      let outcome, gap =
        match ilp with
        | Some r when r.Resched_baseline.Ilp_exact.proved_optimal ->
          must_validate "ILP" r.Resched_baseline.Ilp_exact.schedule;
          ( "proved optimal",
            Printf.sprintf "%d vs %d"
              (Schedule.makespan r.Resched_baseline.Ilp_exact.schedule)
              (Schedule.makespan opt.Resched_baseline.Optimal.schedule) )
        | Some r ->
          must_validate "ILP" r.Resched_baseline.Ilp_exact.schedule;
          ( "feasible only",
            Printf.sprintf "%d vs %d"
              (Schedule.makespan r.Resched_baseline.Ilp_exact.schedule)
              (Schedule.makespan opt.Resched_baseline.Optimal.schedule) )
        | None -> ("no solution", "-")
      in
      Table.add_row t
        [
          string_of_int tasks;
          string_of_int vars;
          string_of_int rows;
          outcome;
          Table.cell_f ilp_s;
          Table.cell_f pa_s;
          gap;
        ])
    [ 2; 3; 4; 5; 6 ];
  Table.print t

let ablation_robustness (p : Profile.t) =
  print_endline "";
  print_endline
    "== Ablation: schedule robustness under runtime jitter (resched_sim) ==";
  let insts =
    Suite.group ~seed:p.seed ~tasks:30 ~count:p.graphs_per_group ()
  in
  let t =
    Table.create
      [ "scheduler"; "mean slowdown (±20%)"; "mean slowdown (+40% delays)" ]
  in
  let schedules =
    List.map
      (fun inst ->
        let pa, _ = Pa.run inst in
        let is5, _ =
          Isk.run
            ~config:
              { (Isk.config ~k:5) with Isk.chunk_node_limit = p.isk_node_cap }
            inst
        in
        let heft = List_sched.run inst in
        [ ("PA", pa); ("IS-5", is5); ("HEFT", heft) ])
      insts
  in
  List.iter
    (fun name ->
      let slowdown jitter =
        let samples =
          List.map
            (fun per_inst ->
              let sched = List.assoc name per_inst in
              let rng = Rng.create (p.seed lxor 0x51) in
              (Resched_sim.Executor.robustness ~rng ~trials:60 ~jitter sched)
                .Resched_sim.Executor.mean_slowdown)
            schedules
        in
        Stats.mean (Array.of_list samples)
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "x%.3f" (slowdown (Resched_sim.Executor.Uniform 0.2));
          Printf.sprintf "x%.3f" (slowdown (Resched_sim.Executor.Delay_only 0.4));
        ])
    [ "PA"; "IS-5"; "HEFT" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fault campaign: survival and degradation per recovery policy        *)

let fault_campaign (p : Profile.t) =
  print_endline "";
  let jobs = (jobs_plan p).Domain_pool.effective in
  Printf.printf
    "== Fault campaign: recovery policies under the default fault plan \
     (%d trials per schedule, jobs=%d) ==\n"
    p.fault_trials jobs;
  let policies = [ Repair.Retry; Repair.Sw_fallback; Repair.Resched_tail ] in
  let t =
    Table.create
      [ "# Tasks"; "policy"; "survival"; "mean degr"; "p95 degr";
        "worst degr"; "fired"; "moot"; "retries"; "migrations"; "retimes" ]
  in
  let rows =
    List.concat_map
      (fun tasks ->
        match Suite.group ~seed:p.seed ~tasks ~count:1 () with
        | [ inst ] ->
          let sched, _ = Pa.run inst in
          must_validate "PA(faults)" sched;
          List.map
            (fun policy ->
              let s =
                Campaign.run ~jobs ~trials:p.fault_trials
                  ~seed:(p.seed + (17 * tasks)) ~policy sched
              in
              let count k =
                Option.value ~default:0 (List.assoc_opt k s.Campaign.actions)
              in
              Table.add_row t
                [
                  string_of_int tasks;
                  Repair.policy_name policy;
                  Printf.sprintf "%d/%d" s.Campaign.survived s.Campaign.trials;
                  Printf.sprintf "x%.3f" s.Campaign.mean_degradation;
                  Printf.sprintf "x%.3f" s.Campaign.p95_degradation;
                  Printf.sprintf "x%.3f" s.Campaign.worst_degradation;
                  string_of_int s.Campaign.faults_fired;
                  string_of_int s.Campaign.faults_moot;
                  string_of_int (count "retry");
                  string_of_int (count "migrate");
                  string_of_int (count "retime");
                ];
              (tasks, s))
            policies
        | _ -> assert false)
      [ 20; 40; 60 ]
  in
  Table.print t;
  let sw_full_recovery =
    List.for_all
      (fun (_, (s : Campaign.summary)) ->
        s.Campaign.policy = Repair.Retry || s.Campaign.survival_rate = 1.0)
      rows
  and all_valid =
    List.for_all (fun (_, s) -> s.Campaign.all_valid) rows
  in
  Printf.printf
    "  SW-capable policies recovered every trial: %b; every repaired \
     schedule validated: %b\n"
    sw_full_recovery all_valid;
  Run_store.write_section_json ~section:"faults"
    (Json.Obj
       [
         ("section", Json.String "faults");
         ("seed", Json.Int p.seed);
         ("trials", Json.Int p.fault_trials);
         ("jobs", Json.Int jobs);
         ( "campaigns",
           Json.List
             (List.map
                (fun (tasks, (s : Campaign.summary)) ->
                  Json.Obj
                    [
                      ("tasks", Json.Int tasks);
                      ( "policy",
                        Json.String (Repair.policy_name s.Campaign.policy) );
                      ("trials", Json.Int s.Campaign.trials);
                      ("survived", Json.Int s.Campaign.survived);
                      ("survival_rate", Json.float s.Campaign.survival_rate);
                      ( "mean_degradation",
                        Json.float s.Campaign.mean_degradation );
                      ( "p95_degradation",
                        Json.float s.Campaign.p95_degradation );
                      ( "worst_degradation",
                        Json.float s.Campaign.worst_degradation );
                      ("faults_fired", Json.Int s.Campaign.faults_fired);
                      ("faults_moot", Json.Int s.Campaign.faults_moot);
                      ( "actions",
                        Json.Obj
                          (List.map
                             (fun (k, v) -> (k, Json.Int v))
                             s.Campaign.actions) );
                      ("all_valid", Json.Bool s.Campaign.all_valid);
                    ])
                rows) );
         ("sw_policies_full_recovery", Json.Bool sw_full_recovery);
         ("all_valid", Json.Bool all_valid);
       ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one kernel per table/figure)             *)

let bechamel_suite (p : Profile.t) =
  let open Bechamel in
  let rng = Rng.create p.seed in
  let inst30 = Suite.instance rng ~tasks:30 in
  let inst100 = Suite.instance rng ~tasks:100 in
  let pa_needs =
    let sched = Pa.schedule_once ~resource_scale:0.9 inst30 in
    Array.map (fun (r : Schedule.region) -> r.Schedule.res)
      sched.Schedule.regions
  in
  let durations =
    Array.init (Instance.size inst100) (fun u -> Instance.min_time inst100 u)
  in
  (* A state shaped by the real pipeline, frozen after step 7's input is
     ready: the reference's from-scratch resolve and the incremental
     [Timing.Solver] replay the same augmented graph and sequence. *)
  let timing_state =
    let impl_of =
      Impl_select.run inst100 ~max_res:(Arch.max_res inst100.Instance.arch)
    in
    let st = State.create inst100 ~impl_of () in
    Regions_define.run ~ordering:Regions_define.By_efficiency st;
    Sw_balance.run st;
    ignore (Sw_map.run st ~bound:max_int : bool);
    st
  in
  let specs, sequence = Pa_oracle.reconf_sched timing_state in
  let solver =
    Timing.Solver.of_plan ~graph:timing_state.State.dep
      ~durations:(State.durations timing_state) ~reconfigs:specs
  in
  let ctx100 = Pa.Context.create inst100 in
  let tests =
    [
      Test.make ~name:"table1/pa_schedule_once_30"
        (Staged.stage (fun () -> ignore (Pa.schedule_once inst30)));
      Test.make ~name:"table1/is1_schedule_once_30"
        (Staged.stage (fun () ->
             ignore (Isk.schedule_once ~config:(Isk.config ~k:1) inst30)));
      Test.make ~name:"table1/floorplan_backtracking_30"
        (Staged.stage (fun () ->
             ignore (Floorplanner.check Arch.zedboard.Arch.device pa_needs)));
      Test.make ~name:"fig2/heft_30"
        (Staged.stage (fun () -> ignore (List_sched.schedule_once inst30)));
      Test.make ~name:"fig6/par_iteration_30"
        (Staged.stage (fun () ->
             let config =
               { Pa.default_config with
                 Pa.ordering = Regions_define.Random (Rng.create 1) }
             in
             ignore (Pa.schedule_once ~config inst30)));
      Test.make ~name:"substrate/cpm_100"
        (Staged.stage (fun () ->
             ignore (Cpm.compute inst100.Instance.graph ~durations)));
      Test.make ~name:"iteration/timing_resolve_scratch_100"
        (Staged.stage (fun () ->
             ignore
               (Pa_oracle.resolve timing_state ~reconfigs:specs ~sequence)));
      Test.make ~name:"iteration/timing_solver_resolve_100"
        (Staged.stage (fun () ->
             ignore (Timing.Solver.resolve solver ~sequence)));
      Test.make ~name:"iteration/schedule_once_scratch_100"
        (Staged.stage (fun () ->
             ignore (Pa_oracle.schedule_once inst100)));
      Test.make ~name:"iteration/schedule_once_ctx_100"
        (Staged.stage (fun () -> ignore (Pa.schedule_once ~ctx:ctx100 inst100)));
      Test.make ~name:"substrate/simplex_textbook"
        (Staged.stage (fun () ->
             let m = Lp.create ~objective:Lp.Maximize () in
             let x = Lp.add_var m ~obj:3. () in
             let y = Lp.add_var m ~obj:5. () in
             Lp.add_constraint m [ (x, 1.) ] Lp.Le 4.;
             Lp.add_constraint m [ (y, 2.) ] Lp.Le 12.;
             Lp.add_constraint m [ (x, 3.); (y, 2.) ] Lp.Le 18.;
             ignore (Simplex.solve m)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
    in
    let raw = Benchmark.all cfg instances test in
    List.map (fun i -> Analyze.all ols i raw) instances
  in
  print_endline "";
  print_endline "== Bechamel micro-benchmarks (ns per run) ==";
  let results = benchmark (Test.make_grouped ~name:"resched" tests) in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-45s %14.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-45s (no estimate)\n" name)
        tbl)
    results

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Section registry and driver                                         *)

(* Table 1, Figs. 2-6: the paper's headline evaluation. *)
let section_paper (p : Profile.t) =
  Printf.printf
    "resched benchmark harness: seed=%d, %d graphs/group, groups=[%s],\n\
     IS-k node cap=%d, PA-R budget cap=%.1fs\n%!"
    p.seed p.graphs_per_group
    (String.concat "," (List.map string_of_int p.groups))
    p.isk_node_cap p.par_budget_cap_s;
  let all =
    List.map
      (fun tasks ->
        Printf.printf "running group %d...\n%!" tasks;
        (tasks, collect_group p tasks))
      p.groups
  in
  print_table1 all;
  print_fig2 all;
  let fig3 =
    improvement_figure
      ~title:"Figure 3: average improvement of PA vs IS-1 (paper: ~14.8% avg)"
      ~csv_name:"fig3.csv"
      ~baseline:(fun r -> r.is1_makespan)
      ~value:(fun r -> r.pa_makespan)
      all
  in
  let fig4 =
    improvement_figure
      ~title:
        "Figure 4: average improvement of PA vs IS-5 (paper: smaller than Fig. 3)"
      ~csv_name:"fig4.csv"
      ~baseline:(fun r -> r.is5_makespan)
      ~value:(fun r -> r.pa_makespan)
      all
  in
  let fig5 =
    improvement_figure
      ~title:
        "Figure 5: average improvement of PA-R vs IS-5 at equal budget (paper: ~22.3% for >=20 tasks)"
      ~csv_name:"fig5.csv"
      ~baseline:(fun r -> r.is5_makespan)
      ~value:(fun r -> r.par_makespan)
      all
  in
  print_fig6 p;
  Printf.printf
    "\nsummary: PA-vs-IS1 %+.1f%%, PA-vs-IS5 %+.1f%%, PAR-vs-IS5 %+.1f%%\n"
    fig3 fig4 fig5

let section_ablations p =
  ablation_ordering p;
  ablation_module_reuse p;
  ablation_floorplan_engines p;
  ablation_robustness p

(* Every runnable section, in default execution order. "bechamel" only
   runs when selected by name (it is slow and its output is not
   consumed by ab/check). *)
let all_sections =
  [
    ("paper", section_paper);
    ("parallel", parallel_comparison);
    ("iteration", iteration_comparison);
    ("moves", moves_comparison);
    ("floorplan", floorplan_oracle_comparison);
    ("milp", milp_comparison);
    ("ablations", section_ablations);
    ("faults", fault_campaign);
    ("related", related_work_ilp_viability);
    ("bechamel", bechamel_suite);
  ]

let section_names = List.map fst all_sections

let default_sections = List.filter (fun n -> n <> "bechamel") section_names

let run_sections p names =
  List.iter
    (fun n ->
      match List.assoc_opt n all_sections with
      | Some f ->
        (* S1: GC counters per section into the run manifest. Counters
           are per-domain, so this sees the orchestrating domain only —
           the worker-side allocation rates live in the iteration
           section's log. *)
        let before = Gc.quick_stat () in
        let t0 = Unix.gettimeofday () in
        f p;
        let elapsed_s = Unix.gettimeofday () -. t0 in
        Run_store.record_section_gc ~section:n ~elapsed_s before
          (Gc.quick_stat ())
      | None ->
        failwith
          (Printf.sprintf "unknown section %s (known: %s)" n
             (String.concat ", " section_names)))
    names
