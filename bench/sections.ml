(* Benchmark sections: regenerates every table and figure of the paper's
   evaluation (Sec. VII) plus the ablations listed in DESIGN.md. Each
   section takes the run's profile (profile.ml), which holds every value
   that steers it; the CLI in main.ml selects which sections run and
   wraps them in a run directory (see run_store.ml). The sections that
   write a JSON log are [Skeleton.section] values (skeleton.ml). *)

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
(* Logged sections: each a [Skeleton.section], one row of cells per     *)
(* group plus totals, and its gates                                     *)

open Skeleton

let hit_rate hits misses =
  float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses))

let per_s count sec = float_of_int count /. Float.max sec 1e-9
let ratio a b = a /. Float.max b 1e-9

(* The hits and misses of a floorplan cache under [key]. *)
let cache_cells ?(rate = "hit_rate") key hits misses =
  [
    c (key ^ ".hits") (Int hits);
    c (key ^ ".misses") (Int misses);
    c (key ^ "." ^ rate) (Float (hit_rate hits misses));
  ]

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
   shared cache (see [par_measure_width]). *)
let par_prewarm_iters = 32

(* Measure one effective width across all groups: a row per group, and
   the width's log entry, with the shared cache's activity outside the
   pre-warm runs. The pool
   (resident domains, one per worker beyond the caller) is created once
   and reused for every group, so domain spawn/join and first-touch
   costs are paid once per width. Each run builds its workers' restart
   arenas afresh. *)
let par_measure_width (p : Profile.t) ~requested ~effective insts =
  let cache = Fp_cache.create () in
  let pool =
    if effective > 1 then Some (Domain_pool.Pool.create ~jobs:effective ())
    else None
  in
  let prewarm_hits = ref 0 and prewarm_misses = ref 0
  and prewarm_inserts = ref 0 in
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
        let d = Fp_cache.diff (Fp_cache.stats cache) before in
        prewarm_hits := !prewarm_hits + d.Fp_cache.hits;
        prewarm_misses := !prewarm_misses + d.Fp_cache.misses;
        prewarm_inserts := !prewarm_inserts + d.Fp_cache.inserts;
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
        [
          c "tasks" (Int tasks);
          c ~h:(Printf.sprintf "iters j%d" effective) "iterations"
            (Int o.Pa_random.iterations);
          c ~h:(Printf.sprintf "ms j%d" effective) "makespan" (Int ms);
        ])
      insts
  in
  (match pool with Some p -> Domain_pool.Pool.shutdown p | None -> ());
  let st = Fp_cache.stats cache in
  let hits = st.Fp_cache.hits - !prewarm_hits
  and misses = st.Fp_cache.misses - !prewarm_misses in
  ( rows,
    obj
      [
        c "jobs_requested" (Int requested);
        c "jobs_effective" (Int effective);
        c "rows" (Log (Json.List (List.map obj rows)));
        c "total_iterations" (Int (sum rows "iterations"));
        c "cache.hits" (Int hits);
        c "cache.misses" (Int misses);
        c "cache.inserts" (Int (st.Fp_cache.inserts - !prewarm_inserts));
        c "cache.hit_rate" (Float (hit_rate hits misses));
      ] )

let parallel =
  let run (p : Profile.t) =
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
    (* A clamped run must be unmissable, both here and in the log. *)
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
    (* One measurement per *distinct effective* width: on a small machine
       several requested widths clamp to the same fan-out and re-measuring
       the same configuration only adds noise. The requested->effective
       mapping of every width is still recorded. *)
    let specs =
      List.map
        (fun requested ->
          (requested, (Domain_pool.plan_jobs ~requested ()).Domain_pool.effective))
        scale_widths
    in
    let measured =
      List.fold_left
        (fun acc (requested, effective) ->
          if List.mem_assoc effective acc then acc
          else
            acc @ [ (effective, par_measure_width p ~requested ~effective insts) ])
        [] specs
    in
    let rows_of effective = fst (List.assoc effective measured) in
    let base = if List.mem_assoc 1 measured then 1 else fst (List.hd measured) in
    let top = List.fold_left (fun a (e, _) -> Stdlib.max a e) base measured in
    (* Scaling table: one iters/makespan column pair per measured width. *)
    ignore
      (emit
         (List.mapi
            (fun i (tasks, _) ->
              (c ~h:"# Tasks" "" (Int tasks)
              :: List.concat_map
                   (fun (e, _) -> List.tl (List.nth (rows_of e) i))
                   measured)
              @ [
                  c ~h:"speedup" ""
                    (Ratio
                       (num (List.nth (rows_of top) i) "iterations"
                       /. Float.max 1.
                            (num (List.nth (rows_of base) i) "iterations")));
                ])
            insts));
    let large_tasks_floor = 60 in
    let large_total e =
      let rows = rows_of e in
      let sel = List.filter (fun r -> int r "tasks" >= large_tasks_floor) rows in
      float_of_int (sum (if sel = [] then rows else sel) "iterations")
    in
    let total e = sum (rows_of e) "iterations" in
    let never_worse =
      List.for_all2
        (fun r1 rn -> int rn "makespan" <= int r1 "makespan")
        (rows_of base) (rows_of top)
    in
    (* Champion tracking: fold this run's best per-group makespan into the
       persistent best-known table, tagged with the width that found
       it. *)
    let candidates =
      List.mapi
        (fun i (tasks, _) ->
          let best_ms, best_e =
            List.fold_left
              (fun (bm, be) (e, _) ->
                let ms = int (List.nth (rows_of e) i) "makespan" in
                if ms < bm then (ms, e) else (bm, be))
              (max_int, base) measured
          in
          ( tasks,
            best_ms,
            Json.Obj
              [
                ("jobs", Json.Int best_e);
                ("seed", Json.Int (p.seed + (7 * tasks)));
                ("budget_seconds", Json.float p.par_budget_cap_s);
                ("shrink_factor", Json.float Pa.shrink_factor);
              ] ))
        insts
    in
    (match Champions.update ~run_id:(Run_store.active_id ()) candidates with
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
    (* Honest-parallelism metadata (cores, requested and effective
       widths, downgrade flag) is mandatory: the gates refuse runs whose
       recorded cores are below what a scaling claim needs. *)
    [
      c "budget_seconds" (Float p.par_budget_cap_s);
      c ~h:"cores" "cores" (Int plan.Domain_pool.cores);
      c "jobs_requested" (Int plan.Domain_pool.requested);
      c ~h:"effective width" "jobs_effective" (Int plan.Domain_pool.effective);
      c "downgraded" (Bool (Domain_pool.downgraded plan));
      c "prewarm_iterations" (Int par_prewarm_iters);
      c "parallel_measurable" (Bool (top >= 2));
      c "requested_widths"
        (Log
           (Json.List
              (List.map
                 (fun (requested, effective) ->
                   obj
                     [
                       c "requested" (Int requested);
                       c "effective" (Int effective);
                       c "downgraded" (Bool (effective < requested));
                     ])
                 specs)));
      c "measurements" (Log (Json.List (List.map (fun (_, (_, w)) -> w) measured)));
      c "totals.iters_jobs1" (Int (total base));
      c "totals.iters_jobsN" (Int (total top));
      c ~h:"iteration speedup (all groups)" "totals.iteration_speedup"
        (Ratio
           (float_of_int (total top)
           /. float_of_int (Stdlib.max 1 (total base))));
      c ~h:"widest width never worse" "never_worse" (Bool never_worse);
      c "large_tasks_floor" (Int large_tasks_floor);
      c ~h:"iteration speedup (large groups)" "speedup_large_groups"
        (if top >= 2 then
           Ratio (large_total top /. Float.max 1. (large_total base))
         else Log Json.Null);
    ]
  in
  let gates (p : Profile.t) =
    (True "never_worse" :: at_least "cores" (Option.map float_of_int p.min_cores))
    @ at_least "jobs_effective"
        (Option.map (fun m -> float_of_int (Stdlib.min m p.jobs)) p.min_cores)
    @ at_least "speedup_large_groups" p.min_speedup
  in
  { name = "parallel"; run; gates }

(* ------------------------------------------------------------------ *)
(* Iteration throughput: restart kernel vs from-scratch reference loop *)

let words_per_iter (o : Pa_random.outcome) =
  o.Pa_random.minor_words /. float_of_int (Stdlib.max 1 o.Pa_random.iterations)

(* One PA-R stream at budget 0: [`New] the production restart kernel,
   [`Old] the from-scratch reference loop of test/oracle. *)
let iteration_run ~seed ~min_iterations ~cache inst = function
  | `New ->
    Pa_random.run ~seed ~min_iterations ~cache ~budget_seconds:0. inst
  | `Old ->
    Pa_oracle.restart_loop ~seed ~min_iterations ~check:(Fp_cache.check cache)
      inst

let iteration =
  let run (p : Profile.t) =
    print_endline "";
    Printf.printf
      "== Restart iteration throughput: restart kernel vs from-scratch \
       reference loop (jobs=1, %d iterations each, budget 0) ==\n"
      p.iter_min;
    let rows =
      List.map
        (fun tasks ->
          match Suite.group ~seed:p.seed ~tasks ~count:1 () with
          | [ inst ] ->
            let s = p.seed + (13 * tasks) in
            (* One floorplan cache per group, shared between the two runs:
               both loops emit the same candidate stream, so the second
               run's floorplan checks replay the first run's keys. The
               restart kernel runs FIRST so it is the one paying the
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
            let st = Fp_cache.stats cache in
            let iters = new_o.Pa_random.iterations in
            let mw_new = words_per_iter new_o and mw_old = words_per_iter old_o in
            [
              c ~h:"# Tasks" "tasks" (Int tasks);
              c ~h:"iters" "iterations" (Int iters);
              c ~h:"new [s]" "seconds_new" (Float s_new);
              c ~h:"old [s]" "seconds_old" (Float s_old);
              c ~h:"iters/s new" "iters_per_s_new" (Fixed (0, per_s iters s_new));
              c ~h:"iters/s old" "iters_per_s_old" (Fixed (0, per_s iters s_old));
              c ~h:"speedup" "speedup" (Ratio (ratio s_old s_new));
              c ~h:"words/it new" "minor_words_per_iter_new" (Fixed (0, mw_new));
              c ~h:"words/it old" "minor_words_per_iter_old" (Fixed (0, mw_old));
              c ~h:"alloc x" "alloc_ratio" (Ratio (ratio mw_old mw_new));
              c ~h:"makespan new" "makespan_new" (Int ms_new);
              c ~h:"makespan old" "makespan_old" (Int ms_old);
            ]
            @ cache_cells "cache" st.Fp_cache.hits st.Fp_cache.misses
          | _ -> assert false)
        p.groups
    in
    let groups = emit rows in
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
            let st = Fp_cache.stats cache in
            c "tasks" (Int tasks)
            :: cache_cells "cache" st.Fp_cache.hits st.Fp_cache.misses
          | _ -> assert false)
        p.groups
    in
    let largest =
      List.fold_left
        (fun acc r -> if int r "tasks" > int acc "tasks" then r else acc)
        (List.hd rows) rows
    in
    let timed_hits = sum rows "cache.hits"
    and timed_misses = sum rows "cache.misses"
    and sat_hits = sum sat_rows "cache.hits"
    and sat_misses = sum sat_rows "cache.misses" in
    [
      c "min_iterations" (Int p.iter_min);
      c "groups" groups;
      c "largest_group.tasks" (Int (int largest "tasks"));
      c ~h:"speedup on the largest group" "largest_group.speedup"
        (Ratio (num largest "speedup"));
      (* Allocation gate input: worst SoA-kernel words/iteration over the
         groups, and the smallest reference/SoA reduction. *)
      c ~h:"worst SoA kernel words/iteration" "alloc.max_minor_words_per_iter"
        (Fixed (0, most rows "minor_words_per_iter_new"));
      c ~h:"least allocation reduction" "alloc.min_alloc_ratio"
        (Ratio (least rows "alloc_ratio"));
      c "saturated_groups" (Log (Json.List (List.map obj sat_rows)));
    ]
    @ cache_cells "cache" (timed_hits + sat_hits) (timed_misses + sat_misses)
    @ [
        c ~h:"floorplan cache hit rate, timed groups" ""
          (Share (hit_rate timed_hits timed_misses));
        c ~h:"floorplan cache hit rate, saturated fabric (xc7z010)" ""
          (Share (hit_rate sat_hits sat_misses));
        c "cache.timed.hits" (Int timed_hits);
        c "cache.timed.misses" (Int timed_misses);
        c "cache.saturated.hits" (Int sat_hits);
        c "cache.saturated.misses" (Int sat_misses);
      ]
  in
  let gates (p : Profile.t) =
    at_most "alloc.max_minor_words_per_iter" p.max_minor_words_per_iter
  in
  { name = "iteration"; run; gates }

(* ------------------------------------------------------------------ *)
(* Delta move kernel: moves/s against the from-scratch oracle, plus    *)
(* LNS-vs-PA-R at fixed work                                           *)

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

let moves =
  let run (p : Profile.t) =
    print_endline "";
    let n = p.moves_per_instance in
    Printf.printf
      "== Delta move kernel: incremental re-evaluation vs from-scratch \
       re-timing (%d moves/instance), and LNS-vs-PA-R at fixed work (PA-R %d \
       restarts; LNS %d restarts + %d moves) ==\n"
      n p.lns_restarts (lns_seed_restarts p) p.lns_moves;
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
            let arm_inc () = drive_moves d_inc ~apply:Delta.apply ~seed:s ~n
            and arm_orc () = drive_moves d_orc ~apply:apply_orc ~seed:s ~n
            and arm_pipe () =
              drive_moves_pipeline d_pipe ~config:config_pipe ~check:check_pipe
                ~seed:s ~n
            in
            (* Warm-up with the FULL stream: apply-then-rollback returns to
               the base state, so the timed pass replays the identical
               proposal sequence against a hot floorplan cache. Cold-miss
               floorplanning is the same exact packing solver in all arms
               (and is gated by the same needs-changed test), so leaving it
               in the window would only add identical noise that masks the
               evaluator difference being measured. *)
            ignore (arm_inc ());
            ignore (arm_orc ());
            ignore (arm_pipe ());
            let applied, s_inc = timed arm_inc in
            let _, s_orc = timed arm_orc in
            let _, s_pipe = timed arm_pipe in
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
                         ~min_iterations:(lns_seed_restarts p)
                         ~budget_seconds:0. inst)
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
            [
              c ~h:"# Tasks" "tasks" (Int tasks);
              c ~h:"moves" "moves" (Int n);
              c ~h:"applied" "applied" (Int applied);
              c ~h:"inc [s]" "s_incremental" (Float s_inc);
              c ~h:"orc [s]" "s_oracle" (Float s_orc);
              c ~h:"pipe [s]" "s_pipeline" (Float s_pipe);
              c ~h:"moves/s inc" "moves_per_s_incremental"
                (Fixed (0, per_s n s_inc));
              c "moves_per_s_oracle" (Float (per_s n s_orc));
              c "moves_per_s_pipeline" (Float (per_s n s_pipe));
              c ~h:"x orc" "speedup_vs_oracle" (Ratio (ratio s_orc s_inc));
              c ~h:"x pipe" "speedup_vs_pipeline" (Ratio (ratio s_pipe s_inc));
              c "speedup" (Float (ratio s_pipe s_inc));
              c ~h:"PA-R" "makespan_par" (Int ms_par);
              c ~h:"LNS" "makespan_lns" (Int ms_lns);
              c ~h:"delta" "" (Int (ms_lns - ms_par));
              c ~h:"PA-R [s]" "seconds_par" (Float s_par);
              c ~h:"LNS [s]" "seconds_lns" (Float s_lns);
              c "lns_improvements" (Int lns.Lns.stats.Lns.improvements);
              c "lns_not_worse" (Bool (ms_lns <= ms_par));
            ]
          | _ -> assert false)
        p.groups
    in
    let groups = emit rows in
    let groups_where cmp =
      List.filter (fun r -> cmp (int r "makespan_lns") (int r "makespan_par")) rows
      |> List.map (fun r -> string_of_int (int r "tasks"))
      |> String.concat "; "
    in
    [
      c "moves_per_instance" (Int n);
      c "lns_restarts" (Int p.lns_restarts);
      c "lns_seed_restarts" (Int (lns_seed_restarts p));
      c "lns_moves" (Int p.lns_moves);
      c "groups" groups;
      c ~h:"min speedup vs full pipeline" "min_speedup"
        (Ratio (least rows "speedup_vs_pipeline"));
      c ~h:"min speedup vs from-scratch oracle" "min_speedup_vs_oracle"
        (Ratio (least rows "speedup_vs_oracle"));
      c ~h:"LNS never worse than PA-R" "lns_never_worse"
        (Bool (List.for_all (fun r -> bool r "lns_not_worse") rows));
      c ~h:"LNS worse on task groups" ""
        (Text (groups_where ( > )));
      c ~h:"LNS better on task groups" ""
        (Text (groups_where ( < )));
    ]
  in
  let gates (p : Profile.t) =
    True "lns_never_worse" :: at_least "min_speedup" p.min_move_speedup
  in
  { name = "moves"; run; gates }

(* ------------------------------------------------------------------ *)
(* Floorplan oracle: column-interval packer (v2) vs backtracking (v1)  *)

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

let floorplan =
  let run (p : Profile.t) =
    print_endline "";
    Printf.printf
      "== Floorplan oracle: column-interval packer vs backtracking v1 (%d \
       checks/group) + cache replay ==\n"
      p.fp_checks;
    let unknown (r : Floorplanner.report) =
      match r.Floorplanner.verdict with Floorplanner.Unknown -> true | _ -> false
    in
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
            (* Sets v1's budget left [Unknown] that v2 decides. *)
            let refined =
              List.fold_left2
                (fun acc a b ->
                  if unknown a && not (unknown b) then acc + 1 else acc)
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
            [
              c ~h:"# Tasks" "tasks" (Int tasks);
              c ~h:"checks" "checks" (Int checks);
              c ~h:"v1 [s]" "seconds_v1" (Float s_v1);
              c ~h:"v2 [s]" "seconds_v2" (Float s_v2);
              c ~h:"checks/s v1" "checks_per_s_v1" (Fixed (0, per_s checks s_v1));
              c ~h:"checks/s v2" "checks_per_s_v2" (Fixed (0, per_s checks s_v2));
              c ~h:"speedup" "speedup" (Ratio (ratio s_v1 s_v2));
              c ~h:"refined" "refined" (Int refined);
              c "cache.hits" (Int st.Fp_cache.hits);
              c "cache.misses" (Int st.Fp_cache.misses);
              c ~h:"hit rate" "cache.hit_rate" (Share (Fp_cache.hit_rate st));
              c ~h:"PA-R v1" "makespan_v1" (Int ms_v1);
              c ~h:"PA-R v2" "makespan_v2" (Int ms_v2);
            ]
          | _ -> assert false)
        p.groups
    in
    let groups = emit rows in
    (* Aggregate speedup over the largest groups (>= 60 tasks when present,
       otherwise all groups): total v1 time over total v2 time. *)
    let big = List.filter (fun r -> int r "tasks" >= 60) rows in
    let agg = if big = [] then rows else big in
    let total key = List.fold_left (fun a r -> a +. num r key) 0. agg in
    (* -1 means no schedule found; v2 finding one where v1 did not is an
       improvement, not a regression. *)
    let never_worse r =
      let v1 = int r "makespan_v1" and v2 = int r "makespan_v2" in
      v2 = v1 || (v2 >= 0 && (v1 < 0 || v2 <= v1))
    in
    [
      c "checks_per_group" (Int p.fp_checks);
      c "e2e_iterations" (Int p.fp_e2e_iters);
      c "groups" groups;
      c ~h:"refined from v1 Unknown" "refined" (Int (sum rows "refined"));
      c ~h:"PA-R makespans never worse" "makespans_never_worse"
        (Bool (List.for_all never_worse rows));
      c ~h:"oracle speedup on the largest groups" "speedup_large_groups"
        (Ratio (ratio (total "seconds_v1") (total "seconds_v2")));
    ]
    @ cache_cells ~rate:"combined_hit_rate" "cache" (sum rows "cache.hits")
        (sum rows "cache.misses")
  in
  { name = "floorplan"; run; gates = (fun _ -> [ True "makespans_never_worse" ]) }

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

(* One solve of the monolithic ILP, model building and schedule
   extraction included: [`Revised] is [Ilp_exact.solve], [`Tableau] the
   dense-tableau oracle of test/oracle on the same model. Both stop at
   the same node budget and have no time limit, so where each search
   ends is a function of the code alone. Every model has an
   integer solution (all tasks in software), so a solve that returns
   none stopped at the node budget, and reports that budget as the
   nodes it spent and -1 as its makespan. The cells' headers end in
   [label]. *)
let milp_bnb_run ~node_budget ~label arm inst =
  let solve () =
    match arm with
    | `Revised ->
      Option.map
        (fun (r : Ilp_exact.result) ->
          ( r.Ilp_exact.schedule, r.Ilp_exact.ilp_objective,
            r.Ilp_exact.proved_optimal, r.Ilp_exact.nodes ))
        (Ilp_exact.solve ~node_limit:node_budget inst)
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
  let nodes, objective, proved, makespan =
    match r with
    | Some (schedule, objective, proved, nodes) ->
      must_validate "ILP(bench)" schedule;
      (nodes, objective, proved, Schedule.makespan schedule)
    | None -> (node_budget, Float.nan, false, -1)
  in
  [
    c ~h:("s " ^ label) "seconds" (Float secs);
    c ~h:("nodes " ^ label) "nodes" (Int nodes);
    c ~h:("nodes/s " ^ label) "nodes_per_s" (Fixed (0, per_s nodes secs));
    c ~h:("objective " ^ label) "objective" (Fixed (1, objective));
    c "proved_optimal" (Bool proved);
    c "makespan" (Int makespan);
  ]

(* Cells moved under [key] of their row. *)
let under key = List.map (fun cell -> { cell with key = key ^ "." ^ cell.key })

let milp =
  let run (p : Profile.t) =
    print_endline "";
    Printf.printf
      "== MILP engine: dense tableau oracle vs warm-started revised simplex \
       (%d nodes per solve) ==\n"
      p.milp_node_budget;
    let node_budget = p.milp_node_budget in
    (* --- LP kernel: floorplan-sized continuous relaxations ----------- *)
    let rng = Rng.create (p.seed lxor 0x317) in
    let models = List.init 24 (fun _ -> random_lp rng) in
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
    (* --- Branch-and-bound on the monolithic ILP ---------------------- *)
    (* The tableau arm stops at 4 tasks: on the 5-task model its node LPs
       run the dense simplex to its pivot cap, and it finds no solution
       within the node budget in over a minute. *)
    let tableau_max_tasks = 4 in
    let rows =
      List.map
        (fun tasks ->
          let inst =
            Suite.instance ~params:ilp_tiny_params ~arch:Arch.mini
              (Rng.create (p.seed + tasks)) ~tasks
          in
          let vars, rows = Ilp_exact.model_size inst in
          let tab =
            if tasks > tableau_max_tasks then None
            else Some (milp_bnb_run ~node_budget ~label:"tab" `Tableau inst)
          in
          let rev = milp_bnb_run ~node_budget ~label:"rev" `Revised inst in
          let vs_tab f ~none = Option.fold ~none ~some:f tab in
          [
            c ~h:"# Tasks" "tasks" (Int tasks);
            c ~h:"vars" "vars" (Int vars);
            c ~h:"rows" "rows" (Int rows);
          ]
          @ vs_tab (under "tableau")
              ~none:
                (c "tableau" (Log Json.Null)
                :: List.map
                     (fun h -> c ~h:(h ^ " tab") "" (Text "-"))
                     [ "s"; "nodes"; "nodes/s"; "objective" ])
          @ under "revised" rev
          @ [
              c ~h:"n/s speedup" "nodes_per_s_speedup"
                (vs_tab ~none:(Log Json.Null) (fun tab ->
                     Ratio
                       (ratio (num rev "nodes_per_s") (num tab "nodes_per_s"))));
              c "never_worse"
                (Bool
                   (vs_tab ~none:true (fun tab ->
                        int tab "makespan" < 0
                        || (int rev "makespan" >= 0
                           && int rev "makespan" <= int tab "makespan"))));
            ])
        [ 2; 3; 4; 5 ]
    in
    let bnb = emit rows in
    (* Aggregate throughput over the instances where BOTH engines produced
       a solution: where the tableau finds nothing within the node budget
       (reported per-row above), its nodes/s measures a search that never
       reached an integer point, and counting it would skew the revised
       engine's speedup. *)
    let both =
      List.filter
        (fun r ->
          mem r "tableau.makespan"
          && int r "tableau.makespan" >= 0
          && int r "revised.makespan" >= 0)
        rows
    in
    let nodes_per_s arm =
      per_s (sum both (arm ^ ".nodes"))
        (List.fold_left (fun a r -> a +. num r (arm ^ ".seconds")) 0. both)
    in
    [
      c "node_budget" (Int node_budget);
      c "lp_kernel.models" (Int (List.length models));
      c "lp_kernel.repeats" (Int p.milp_lp_repeats);
      c "lp_kernel.seconds_tableau" (Float s_tab);
      c "lp_kernel.seconds_revised" (Float s_rev);
      c ~h:"LP kernel speedup" "lp_kernel.speedup" (Ratio (ratio s_tab s_rev));
      c "bnb" bnb;
      c "bnb_totals.nodes_per_s_tableau" (Float (nodes_per_s "tableau"));
      c "bnb_totals.nodes_per_s_revised" (Float (nodes_per_s "revised"));
      c ~h:"B&B nodes/s speedup" "bnb_totals.nodes_per_s_speedup"
        (Ratio (ratio (nodes_per_s "revised") (nodes_per_s "tableau")));
      c ~h:"revised never worse than tableau" "never_worse"
        (Bool (List.for_all (fun r -> bool r "never_worse") rows));
    ]
  in
  { name = "milp"; run; gates = (fun _ -> [ True "never_worse" ]) }

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

let faults =
  let run (p : Profile.t) =
    print_endline "";
    let jobs = (jobs_plan p).Domain_pool.effective in
    Printf.printf
      "== Fault campaign: recovery policies under the default fault plan \
       (%d trials per schedule, jobs=%d) ==\n"
      p.fault_trials jobs;
    let policies = [ Repair.Retry; Repair.Sw_fallback; Repair.Resched_tail ] in
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
                  Int
                    (Option.value ~default:0
                       (List.assoc_opt k s.Campaign.actions))
                in
                [
                  c ~h:"# Tasks" "tasks" (Int tasks);
                  c ~h:"policy" "policy"
                    (Text (Repair.policy_name s.Campaign.policy));
                  c "trials" (Int s.Campaign.trials);
                  c "survived" (Int s.Campaign.survived);
                  c ~h:"survival" "survival_rate" (Share s.Campaign.survival_rate);
                  c ~h:"mean degr" "mean_degradation"
                    (Ratio s.Campaign.mean_degradation);
                  c ~h:"p95 degr" "p95_degradation"
                    (Ratio s.Campaign.p95_degradation);
                  c ~h:"worst degr" "worst_degradation"
                    (Ratio s.Campaign.worst_degradation);
                  c ~h:"fired" "faults_fired" (Int s.Campaign.faults_fired);
                  c ~h:"moot" "faults_moot" (Int s.Campaign.faults_moot);
                  c "actions"
                    (Log
                       (Json.Obj
                          (List.map
                             (fun (k, v) -> (k, Json.Int v))
                             s.Campaign.actions)));
                  c ~h:"retries" "" (count "retry");
                  c ~h:"migrations" "" (count "migrate");
                  c ~h:"retimes" "" (count "retime");
                ])
              policies
          | _ -> assert false)
        [ 20; 40; 60 ]
    in
    [
      c "trials" (Int p.fault_trials);
      c "jobs" (Int jobs);
      c "campaigns" (emit rows);
    ]
  in
  { name = "faults"; run; gates = (fun _ -> []) }

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
  let solver = Timing.Solver.scratch () in
  Timing.Solver.reload solver ~graph:timing_state.State.dep
    ~duration:(State.duration timing_state) ~reconfigs:specs;
  let seq = Array.of_list sequence in
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
             ignore
               (Timing.Solver.resolve_array solver ~sequence:seq
                  ~len:(Array.length seq))));
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

(* The logged sections, in execution order; [bench check] and
   [bench ab] walk their gates. *)
let logged = [ parallel; iteration; moves; floorplan; milp; faults ]

(* Run a logged section: print its headed totals and write its log. *)
let log (s : section) (p : Profile.t) =
  let cells = s.run p in
  print_totals cells;
  Run_store.write_section_json ~section:s.name
    (obj (c "section" (Text s.name) :: c "seed" (Int p.seed) :: cells))

(* Every runnable section, in default execution order. "bechamel" only
   runs when selected by name (it is slow and its output is not
   consumed by ab/check). *)
let all_sections =
  [
    ("paper", section_paper);
    ("parallel", log parallel);
    ("iteration", log iteration);
    ("moves", log moves);
    ("floorplan", log floorplan);
    ("milp", log milp);
    ("ablations", section_ablations);
    ("faults", log faults);
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
