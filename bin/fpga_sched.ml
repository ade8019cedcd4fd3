(* fpga_sched — command-line front end for the resched library.

   Subcommands:
     generate   write a pseudo-random problem instance to a file
     show       print an instance summary (optionally DOT)
     schedule   schedule an instance with a chosen algorithm
     optimize   seed with PA-R, then polish with neighborhood search
     replay     replay a saved schedule under jitter or injected faults
     compare    run every algorithm on an instance and tabulate
     suite      materialize the paper's benchmark suite into a directory
     batch      schedule a manifest of instances over one worker fleet
     serve      run the scheduler as a resident jsonl service
*)

module Rng = Resched_util.Rng
module Table = Resched_util.Table
module Graph = Resched_taskgraph.Graph
module Dot = Resched_taskgraph.Dot
module Arch = Resched_platform.Arch
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Io = Resched_platform.Io
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Validate = Resched_core.Validate
module Gantt = Resched_core.Gantt
module Metrics = Resched_core.Metrics
module Isk = Resched_baseline.Isk
module List_sched = Resched_baseline.List_sched

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Failure handling

   Operational failures exit with a one-line message and a distinct
   code so scripts can tell them apart (cmdliner keeps 124/125 for CLI
   and internal errors):
     3  input/IO error (missing file, parse error, write failure)
     4  a schedule failed validation                                   *)

let exit_io = 3
let exit_invalid = 4

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "fpga_sched: error: %s\n" msg;
      exit code)
    fmt

let check_or_die what sched =
  match Validate.check sched with
  | Ok () -> ()
  | Error vs ->
    let v = List.hd vs in
    die exit_invalid "%s failed validation (%d violation(s); first: [%s] %s)"
      what (List.length vs) v.Validate.code v.Validate.message

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  let doc = "Enable debug logging of the scheduler pipeline." in
  Term.(
    const setup_logs
    $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc))

let seed_arg =
  let doc = "Seed for pseudo-random generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* An int option below 1 is a usage error (exit 124), not an exception
   from deep inside the library. *)
let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  let doc =
    "Worker domains (1 = sequential; defaults to the available cores): \
     PA-R restarts in schedule, compare and optimize, the batch engine, \
     serve's solver workers, and replay --faults campaigns."
  in
  Arg.(
    value
    & opt positive (Resched_util.Domain_pool.available_cores ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let tasks_arg =
  let doc = "Number of application tasks." in
  Arg.(value & opt positive 20 & info [ "tasks"; "n" ] ~docv:"N" ~doc)

let load_instance path =
  match Io.load path with
  | Ok inst -> inst
  | Error msg -> die exit_io "cannot load %s: %s" path msg

let instance_arg =
  let doc = "Problem instance file (see lib/platform/io.mli for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate seed tasks out =
  let rng = Rng.create seed in
  let inst = Suite.instance rng ~tasks in
  (match out with
  | Some path ->
    Io.save path inst;
    Printf.printf "wrote %s (%d tasks, %d edges)\n" path tasks
      (Graph.edge_count inst.Instance.graph)
  | None -> print_string (Io.to_string inst));
  0

let generate_cmd =
  let out =
    let doc = "Output file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "generate a pseudo-random problem instance" in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const generate $ seed_arg $ tasks_arg $ out)

(* ------------------------------------------------------------------ *)
(* show                                                                *)

let show path dot =
  let inst = load_instance path in
  Format.printf "%a@." Instance.pp_summary inst;
  if dot then
    Dot.to_channel stdout ~label:(Instance.task_name inst) inst.Instance.graph
  else begin
    let n = Instance.size inst in
    for u = 0 to n - 1 do
      Format.printf "  %s:" (Instance.task_name inst u);
      Array.iter
        (fun i -> Format.printf " %a" Resched_platform.Impl.pp i)
        inst.Instance.impls.(u);
      Format.printf "@."
    done
  end;
  0

let show_cmd =
  let dot =
    let doc = "Emit the task graph in Graphviz DOT syntax." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let doc = "print an instance summary" in
  Cmd.v (Cmd.info "show" ~doc) Term.(const show $ instance_arg $ dot)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

type algo = A_pa | A_par | A_is1 | A_is5 | A_heft | A_sw

let algo_conv =
  let parse = function
    | "pa" -> Ok A_pa
    | "pa-r" | "par" -> Ok A_par
    | "is1" | "is-1" -> Ok A_is1
    | "is5" | "is-5" -> Ok A_is5
    | "heft" -> Ok A_heft
    | "sw" -> Ok A_sw
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun ppf _ -> Format.fprintf ppf "<algo>")

let run_algo ?cache algo ~budget_s ~reuse ~seed ~jobs inst =
  (* All algorithms consult the same floorplan oracle, so one shared
     [cache] (as in [compare_]) lets PA's shrink attempts, PA-R's
     iterations and the IS-k/HEFT retry loops reuse each other's
     verdicts. *)
  match algo with
  | A_pa ->
    let config = { Pa.default_config with Pa.module_reuse = reuse } in
    fst (Pa.run ~config ?cache inst)
  | A_par -> (
    let config = { Pa.default_config with Pa.module_reuse = reuse } in
    let cache =
      match cache with
      | Some c -> c
      | None -> Resched_floorplan.Fp_cache.create ()
    in
    let before = Resched_floorplan.Fp_cache.stats cache in
    let outcome =
      Pa_random.run_parallel ~config ~seed ~jobs ~cache
        ~budget_seconds:budget_s inst
    in
    let st =
      Resched_floorplan.Fp_cache.diff
        (Resched_floorplan.Fp_cache.stats cache)
        before
    in
    Logs.info (fun m ->
        m "PA-R: %d iterations on %d worker(s); floorplan cache %d hits / \
           %d misses"
          outcome.Pa_random.iterations jobs
          st.Resched_floorplan.Fp_cache.hits
          st.Resched_floorplan.Fp_cache.misses);
    match outcome.Pa_random.schedule with
    | Some sched -> sched
    | None ->
      Printf.eprintf
        "note: PA-R found no floorplannable schedule in %.1fs; falling back \
         to PA\n"
        budget_s;
      fst (Pa.run ~cache inst))
  | A_is1 ->
    fst
      (Isk.run
         ~config:
           {
             (Isk.config ~k:1) with
             Isk.module_reuse = reuse;
             Isk.floorplan_cache = cache;
           }
         inst)
  | A_is5 ->
    fst
      (Isk.run
         ~config:
           {
             (Isk.config ~k:5) with
             Isk.module_reuse = reuse;
             Isk.floorplan_cache = cache;
           }
         inst)
  | A_heft -> List_sched.run ~module_reuse:reuse ?cache inst
  | A_sw -> Pa.all_software_schedule inst

let schedule path algo budget_ms reuse seed jobs gantt save svg_gantt
    svg_floorplan =
  let inst = load_instance path in
  let t0 = Unix.gettimeofday () in
  let sched =
    run_algo algo ~budget_s:(float_of_int budget_ms /. 1000.) ~reuse ~seed
      ~jobs inst
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_or_die "computed schedule" sched;
  Format.printf "%a@." Schedule.pp_summary sched;
  Format.printf "%a@." Metrics.pp (Metrics.compute sched);
  Printf.printf "scheduler wall-clock: %.3fs\n" elapsed;
  if gantt then begin
    print_newline ();
    Gantt.print sched
  end;
  (match save with
  | Some out ->
    Resched_core.Schedule_io.save out sched;
    Printf.printf "schedule written to %s\n" out
  | None -> ());
  (match svg_gantt with
  | Some out ->
    Resched_viz.Render.save out (Resched_viz.Render.gantt sched);
    Printf.printf "gantt SVG written to %s\n" out
  | None -> ());
  (match svg_floorplan with
  | Some out -> (
    match sched.Schedule.floorplan with
    | Some placements when Array.length placements > 0 ->
      let needs =
        Array.map (fun (r : Schedule.region) -> r.Schedule.res)
          sched.Schedule.regions
      in
      Resched_viz.Render.save out
        (Resched_viz.Render.floorplan
           inst.Instance.arch.Resched_platform.Arch.device ~needs placements);
      Printf.printf "floorplan SVG written to %s\n" out
    | Some _ | None ->
      Printf.eprintf "note: no floorplanned regions to draw\n")
  | None -> ());
  0

let schedule_cmd =
  let algo =
    let doc = "Algorithm: pa, pa-r, is1, is5, heft or sw." in
    Arg.(value & opt algo_conv A_pa & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let budget =
    let doc = "Time budget for pa-r, in milliseconds." in
    Arg.(value & opt int 1000 & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let reuse =
    let doc = "Enable module reuse." in
    Arg.(value & flag & info [ "module-reuse" ] ~doc)
  in
  let gantt =
    let doc = "Print an ASCII Gantt chart." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let save =
    let doc = "Write the full schedule (instance + decisions) to FILE." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let svg_gantt =
    let doc = "Render the schedule as an SVG Gantt chart to FILE." in
    Arg.(value & opt (some string) None & info [ "svg-gantt" ] ~docv:"FILE" ~doc)
  in
  let svg_floorplan =
    let doc = "Render the floorplan as SVG to FILE." in
    Arg.(
      value & opt (some string) None & info [ "svg-floorplan" ] ~docv:"FILE" ~doc)
  in
  let doc = "schedule an instance" in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const (fun () -> schedule)
      $ verbose_arg $ instance_arg $ algo $ budget $ reuse $ seed_arg
      $ jobs_arg $ gantt $ save $ svg_gantt $ svg_floorplan)

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)

let optimize path seed_budget_ms polish_budget_ms reuse seed jobs gantt save =
  let inst = load_instance path in
  (* one cache spans seeding and polishing, so the move kernel's
     re-queries hit the PA-R run's stored verdicts *)
  let cache = Resched_floorplan.Fp_cache.create () in
  let t0 = Unix.gettimeofday () in
  let seed_sched =
    run_algo A_par ~cache
      ~budget_s:(float_of_int seed_budget_ms /. 1000.)
      ~reuse ~seed ~jobs inst
  in
  let seed_elapsed = Unix.gettimeofday () -. t0 in
  check_or_die "seed schedule" seed_sched;
  let config =
    { Resched_core.Delta.default_config with
      Resched_core.Delta.cache = Some cache }
  in
  let outcome =
    Resched_core.Lns.polish ~config ~seed
      ~budget_seconds:(float_of_int polish_budget_ms /. 1000.)
      seed_sched
  in
  let final =
    match outcome.Resched_core.Lns.schedule with
    | Some s -> s
    | None -> seed_sched (* feasible seed: polish can only keep or improve *)
  in
  check_or_die "polished schedule" final;
  let st = outcome.Resched_core.Lns.stats in
  Format.printf "%a@." Schedule.pp_summary final;
  Format.printf "%a@." Metrics.pp (Metrics.compute final);
  Printf.printf "seed (pa-r, %.3fs): makespan %d\n" seed_elapsed
    (Schedule.makespan seed_sched);
  Printf.printf
    "polish (lns, %.3fs): makespan %d; %d proposed, %d applied, %d accepted, \
     %d improvement(s), %.0f moves/s\n"
    st.Resched_core.Lns.elapsed
    (Schedule.makespan final)
    st.Resched_core.Lns.proposed st.Resched_core.Lns.applied
    st.Resched_core.Lns.accepted st.Resched_core.Lns.improvements
    (float_of_int st.Resched_core.Lns.proposed
    /. Stdlib.max 1e-9 st.Resched_core.Lns.elapsed);
  if gantt then begin
    print_newline ();
    Gantt.print final
  end;
  (match save with
  | Some out ->
    Resched_core.Schedule_io.save out final;
    Printf.printf "schedule written to %s\n" out
  | None -> ());
  0

let optimize_cmd =
  let seed_budget =
    let doc = "Time budget for the PA-R seeding phase, in milliseconds." in
    Arg.(value & opt int 500 & info [ "seed-budget-ms" ] ~docv:"MS" ~doc)
  in
  let polish_budget =
    let doc = "Time budget for the LNS polish phase, in milliseconds." in
    Arg.(value & opt int 500 & info [ "polish-budget-ms" ] ~docv:"MS" ~doc)
  in
  let reuse =
    let doc = "Enable module reuse." in
    Arg.(value & flag & info [ "module-reuse" ] ~doc)
  in
  let gantt =
    let doc = "Print an ASCII Gantt chart." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let save =
    let doc = "Write the full schedule (instance + decisions) to FILE." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "schedule an instance with PA-R, then polish it with delta-evaluated \
     neighborhood search"
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const (fun () -> optimize)
      $ verbose_arg $ instance_arg $ seed_budget $ polish_budget $ reuse
      $ seed_arg $ jobs_arg $ gantt $ save)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)

let replay_jitter sched trials jitter_pct delays_only seed =
  let module Executor = Resched_sim.Executor in
  let f = float_of_int jitter_pct /. 100. in
  let jitter =
    if jitter_pct = 0 then Executor.Deterministic
    else if delays_only then Executor.Delay_only f
    else Executor.Uniform f
  in
  let rng = Rng.create seed in
  if trials <= 1 then begin
    let t = Executor.execute ~rng ~jitter sched in
    Printf.printf "realized makespan: %d (static %d)\n" t.Executor.makespan
      (Schedule.makespan sched)
  end
  else begin
    let r = Executor.robustness ~rng ~trials ~jitter sched in
    Format.printf "%a@." Executor.pp_robustness r
  end

let replay_faults sched trials seed jobs policy =
  let module Executor = Resched_sim.Executor in
  let module Fault = Resched_sim.Fault in
  let module Campaign = Resched_sim.Campaign in
  let module Repair = Resched_core.Repair in
  if trials <= 1 then begin
    (* Single trial: narrate the run event by event. *)
    let plan = Fault.sample (Rng.create seed) sched in
    let t = Executor.replay_faults ~policy ~plan sched in
    List.iter (fun e -> Format.printf "fired:  %a@." Fault.pp_event e)
      t.Executor.fired;
    List.iter (fun a -> Format.printf "action: %a@." Repair.pp_action a)
      t.Executor.actions;
    if t.Executor.moot > 0 then
      Printf.printf "%d sampled event(s) became moot\n" t.Executor.moot;
    (match t.Executor.failure with
    | Some msg -> Printf.printf "unrecovered: %s\n" msg
    | None -> ());
    Printf.printf "%s under %s: makespan %d -> %d (x%.3f)\n"
      (if t.Executor.survived then "survived" else "FAILED")
      (Repair.policy_name policy)
      t.Executor.static_makespan t.Executor.final_makespan
      t.Executor.degradation
  end
  else begin
    let s = Campaign.run ~jobs ~trials ~seed ~policy sched in
    Format.printf "%a@." Campaign.pp_summary s
  end

let replay path trials jitter_pct delays_only seed faults policy jobs =
  (* Symmetric jitter must leave every duration positive; delays only
     have no upper bound. *)
  let uniform_too_wide = (not delays_only) && jitter_pct >= 100 in
  if (not faults) && (jitter_pct < 0 || uniform_too_wide) then
    die exit_io "--jitter-pct %d out of range (%s)" jitter_pct
      (if delays_only then "PCT >= 0 with --delays-only"
       else "0 <= PCT < 100, or any PCT >= 0 with --delays-only");
  match Resched_core.Schedule_io.load path with
  | Error msg -> die exit_io "cannot load %s: %s" path msg
  | Ok sched ->
    check_or_die "loaded schedule" sched;
    Format.printf "loaded: %a@." Schedule.pp_summary sched;
    if faults then replay_faults sched trials seed jobs policy
    else replay_jitter sched trials jitter_pct delays_only seed;
    0

let replay_cmd =
  let file =
    let doc = "Schedule file produced by 'schedule --save'." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SCHEDULE" ~doc)
  in
  let trials =
    let doc = "Monte-Carlo trials (1 = single replay)." in
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let jitter =
    let doc =
      "Task duration jitter in percent (0 = deterministic): durations \
       scale by a factor drawn from [1-PCT/100, 1+PCT/100], so PCT must \
       be below 100; with $(b,--delays-only), from [1, 1+PCT/100]."
    in
    Arg.(value & opt int 20 & info [ "jitter-pct" ] ~docv:"PCT" ~doc)
  in
  let delays_only =
    let doc = "Jitter can only delay tasks, never shorten them." in
    Arg.(value & flag & info [ "delays-only" ] ~doc)
  in
  let faults =
    let doc =
      "Fault-injection mode: replay against seeded fault plans \
       (reconfiguration failures, task overruns, region deaths) with \
       self-healing repair instead of duration jitter. With --trials 1 \
       the single run is narrated event by event."
    in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let policy =
    let policy_conv =
      let parse s =
        match Resched_core.Repair.policy_of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)
      in
      Arg.conv
        ( parse,
          fun ppf p ->
            Format.pp_print_string ppf (Resched_core.Repair.policy_name p) )
    in
    let doc = "Recovery policy: retry, sw-fallback or resched-tail." in
    Arg.(
      value
      & opt policy_conv Resched_core.Repair.Sw_fallback
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let doc =
    "replay a saved schedule under runtime jitter or injected faults \
     (resched_sim)"
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const replay $ file $ trials $ jitter $ delays_only $ seed_arg $ faults
      $ policy $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_ path budget_ms seed jobs =
  let inst = load_instance path in
  let table =
    Table.create
      [ "algorithm"; "makespan"; "HW/SW"; "regions"; "reconf %"; "time [s]" ]
  in
  (* One oracle for the whole comparison: every algorithm probes the same
     region multisets near the feasibility frontier, so verdicts cross
     over between algorithms. *)
  let cache = Resched_floorplan.Fp_cache.create () in
  List.iter
    (fun (name, algo) ->
      let t0 = Unix.gettimeofday () in
      let sched =
        run_algo ~cache algo
          ~budget_s:(float_of_int budget_ms /. 1000.)
          ~reuse:(algo = A_is1 || algo = A_is5)
          ~seed ~jobs inst
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      check_or_die (name ^ " schedule") sched;
      let m = Metrics.compute sched in
      Table.add_row table
        [
          name;
          string_of_int (Schedule.makespan sched);
          Printf.sprintf "%d/%d" m.Metrics.hw_tasks m.Metrics.sw_tasks;
          string_of_int m.Metrics.regions;
          Printf.sprintf "%.1f" (100. *. m.Metrics.reconfiguration_overhead);
          Printf.sprintf "%.3f" elapsed;
        ])
    [
      ("PA", A_pa); ("PA-R", A_par); ("IS-1", A_is1); ("IS-5", A_is5);
      ("HEFT", A_heft); ("SW-only", A_sw);
    ];
  Table.print table;
  let st = Resched_floorplan.Fp_cache.stats cache in
  let module F = Resched_floorplan.Fp_cache in
  let lookups = F.lookups st in
  if lookups > 0 then
    Printf.printf
      "shared floorplan cache: %d lookups, %d hits (%.0f%%), %d misses\n"
      lookups st.F.hits
      (100. *. F.hit_rate st)
      st.F.misses;
  0

let compare_cmd =
  let budget =
    let doc = "Time budget for pa-r, in milliseconds." in
    Arg.(value & opt int 1000 & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let doc = "run every algorithm on an instance and tabulate" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const (fun () -> compare_) $ verbose_arg $ instance_arg $ budget
      $ seed_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* suite                                                               *)

let suite seed dir count =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.iter
    (fun (tasks, insts) ->
      List.iteri
        (fun i inst ->
          let path = Filename.concat dir (Printf.sprintf "t%03d_%02d.inst" tasks i) in
          Io.save path inst)
        insts)
    (Suite.full ~graphs_per_group:count ~seed ());
  Printf.printf "wrote %d instances under %s/\n" (10 * count) dir;
  0

let suite_cmd =
  let dir =
    let doc = "Output directory." in
    Arg.(value & opt string "suite" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)
  in
  let count =
    let doc = "Instances per task-count group (paper: 10)." in
    Arg.(value & opt positive 10 & info [ "per-group" ] ~docv:"N" ~doc)
  in
  let doc = "materialize the paper's benchmark suite" in
  Cmd.v (Cmd.info "suite" ~doc) Term.(const suite $ seed_arg $ dir $ count)

(* ------------------------------------------------------------------ *)
(* batch                                                               *)

(* Manifest: one entry per line. Blank lines and [#] comments are
   skipped; a line starting with [{] is a JSON object
   [{"path": ..., "seed": ..., "min_iterations": ..., "budget_ms": ...}]
   (path required, the rest default from the command line); anything
   else is a bare instance path. *)
let parse_manifest path ~seed ~min_iterations ~budget_ms =
  let module Json = Resched_util.Json in
  let lines =
    match In_channel.with_open_text path In_channel.input_lines with
    | lines -> lines
    | exception Sys_error msg -> die exit_io "cannot read %s: %s" path msg
  in
  let entries = ref [] in
  List.iteri
    (fun lineno raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        let where = Printf.sprintf "%s:%d" path (lineno + 1) in
        let inst_path, seed, min_iterations, budget_ms =
          if line.[0] = '{' then begin
            match Json.parse line with
            | Error msg -> die exit_io "%s: %s" where msg
            | Ok obj ->
              let field name get fallback =
                match Json.member name obj with
                | None -> fallback
                | Some v -> (
                  match get v with
                  | Some x -> x
                  | None -> die exit_io "%s: bad %S field" where name)
              in
              ( (match Json.member "path" obj with
                | Some (Json.String p) -> p
                | _ -> die exit_io "%s: missing \"path\"" where),
                field "seed" Json.get_int seed,
                field "min_iterations" Json.get_int min_iterations,
                field "budget_ms" Json.get_int budget_ms )
          end
          else (line, seed, min_iterations, budget_ms)
        in
        if min_iterations < 1 then
          die exit_io "%s: min_iterations %d runs no restart (need at least 1)"
            where min_iterations;
        (* Relative instance paths resolve against the manifest's
           directory, so a manifest travels with its instances. *)
        let inst_path =
          if Filename.is_relative inst_path then
            Filename.concat (Filename.dirname path) inst_path
          else inst_path
        in
        let inst = load_instance inst_path in
        entries :=
          ( inst_path,
            Resched_core.Batch.request ~seed ~min_iterations
              ~budget_seconds:(float_of_int budget_ms /. 1000.)
              inst )
          :: !entries
      end)
    lines;
  Array.of_list (List.rev !entries)

let batch manifest seed min_iterations budget_ms jobs out_dir stats_out =
  let module Batch = Resched_core.Batch in
  let module Json = Resched_util.Json in
  let entries = parse_manifest manifest ~seed ~min_iterations ~budget_ms in
  if Array.length entries = 0 then die exit_io "%s: empty manifest" manifest;
  let requests = Array.map snd entries in
  let cache = Resched_floorplan.Fp_cache.create () in
  let outcomes, stats = Batch.run ~cache ~jobs requests in
  (match out_dir with
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  | None -> ());
  let table =
    Table.create
      [ "instance"; "makespan"; "iterations"; "improv"; "words/iter" ]
  in
  let rows = ref [] in
  Array.iteri
    (fun i (path, (req : Batch.request)) ->
      let o = outcomes.(i) in
      let makespan =
        match o.Pa_random.schedule with
        | None -> None
        | Some sched ->
          check_or_die (Printf.sprintf "schedule for %s" path) sched;
          (match out_dir with
          | Some dir ->
            let stem = Filename.remove_extension (Filename.basename path) in
            let out =
              Filename.concat dir (Printf.sprintf "%03d_%s.sched" i stem)
            in
            Resched_core.Schedule_io.save out sched
          | None -> ());
          Some (Schedule.makespan sched)
      in
      let words_per_iter =
        if o.Pa_random.iterations = 0 then 0.
        else o.Pa_random.minor_words /. float_of_int o.Pa_random.iterations
      in
      Table.add_row table
        [
          Filename.basename path;
          (match makespan with Some m -> string_of_int m | None -> "-");
          string_of_int o.Pa_random.iterations;
          string_of_int (List.length o.Pa_random.trace);
          Printf.sprintf "%.0f" words_per_iter;
        ];
      rows :=
        Json.Obj
          [
            ("path", Json.String path);
            ("seed", Json.Int req.Batch.seed);
            ( "makespan",
              match makespan with Some m -> Json.Int m | None -> Json.Null );
            ("iterations", Json.Int o.Pa_random.iterations);
            ("improvements", Json.Int (List.length o.Pa_random.trace));
            ("minor_words", Json.float o.Pa_random.minor_words);
          ]
        :: !rows)
    entries;
  Table.print table;
  let per_second =
    if stats.Batch.wall_seconds > 0. then
      float_of_int (Array.length requests) /. stats.Batch.wall_seconds
    else 0.
  in
  Printf.printf
    "batch: %d instance(s), %d iterations in %.3fs on %d worker(s) (%d \
     cancel polls); %.1f instances/s; %.0f minor words/iter\n"
    (Array.length requests) stats.Batch.total_iterations
    stats.Batch.wall_seconds stats.Batch.jobs stats.Batch.total_slices
    per_second
    (if stats.Batch.total_iterations = 0 then 0.
     else
       stats.Batch.total_minor_words
       /. float_of_int stats.Batch.total_iterations);
  (match stats_out with
  | Some out ->
    Json.write_file out
      (Json.Obj
         [
           ("schema", Json.String "resched-batch/2");
           ("jobs", Json.Int stats.Batch.jobs);
           ("wall_seconds", Json.float stats.Batch.wall_seconds);
           ("total_iterations", Json.Int stats.Batch.total_iterations);
           ("total_slices", Json.Int stats.Batch.total_slices);
           ("total_minor_words", Json.float stats.Batch.total_minor_words);
           ("instances", Json.List (List.rev !rows));
         ]);
    Printf.printf "stats written to %s\n" out
  | None -> ());
  0

let batch_cmd =
  let manifest =
    let doc =
      "Manifest file: one instance per line, either a bare path or a JSON \
       object {\"path\", \"seed\", \"min_iterations\", \"budget_ms\"}. \
       Relative paths resolve against the manifest's directory."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let min_iterations =
    let doc = "Default restart iterations per instance (at least 1)." in
    Arg.(value & opt int 200 & info [ "min-iterations" ] ~docv:"N" ~doc)
  in
  let budget =
    let doc =
      "Default wall-clock budget per instance in milliseconds, counted \
       from batch launch (0 = exactly min-iterations restarts); an \
       instance that starts after its deadline runs exactly its \
       min-iterations restarts."
    in
    Arg.(value & opt int 0 & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let out_dir =
    let doc = "Write each instance's best schedule under DIR." in
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let stats_out =
    let doc = "Write per-instance results and engine stats as JSON to FILE." in
    Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "schedule a manifest of instances over one worker fleet (PA-R batch \
     engine)"
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const (fun () -> batch)
      $ verbose_arg $ manifest $ seed_arg $ min_iterations $ budget
      $ jobs_arg $ out_dir $ stats_out)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

module Server = Resched_serve.Server
module Serve_protocol = Resched_serve.Protocol
module Serve_transport = Resched_serve.Transport

let serve () socket jobs capacity tenant_quota degrade_low degrade_high
    degrade_factor retries backoff_ms deadline_ms min_iterations
    budget_ms seed allow_faults max_clients max_line_bytes =
  let cfg =
    Server.config ~capacity ?tenant_quota ?degrade_low ?degrade_high
      ~degrade_factor ~max_retries:retries
      ~backoff_s:(float_of_int backoff_ms /. 1000.)
      ~default_seed:seed ~default_min_iterations:min_iterations
      ~default_budget_s:(float_of_int budget_ms /. 1000.)
      ?default_deadline_s:
        (Option.map (fun d -> float_of_int d /. 1000.) deadline_ms)
      ~allow_fault_injection:allow_faults ()
  in
  (* Every request is answered through its own connection's writer; the
     server-wide responder is only a backstop and has nowhere sensible
     to send a line, so it drops it. *)
  let srv = Server.create ~respond:(fun _ -> ()) cfg in
  let transport =
    Serve_transport.create ~max_clients ~max_line_bytes
      ~drive_server:(jobs = 1) srv
  in
  (* The daemon's whole life is one dispatch over one persistent pool:
     worker 0 (the calling domain) runs the multiplexing event loop,
     workers 1..jobs-1 run the solver loop. The event loop returns once
     the server is closed (EOF in pipe mode, a shutdown request in
     either mode), drained, and every response has been flushed, so
     every accepted request is answered before the pool is torn down.
     With [jobs = 1] the event loop itself advances the server one
     request at a time between polls. *)
  let run_transport () =
    if jobs = 1 then Serve_transport.run transport
    else begin
      let pool = Resched_util.Domain_pool.Pool.create ~jobs () in
      Fun.protect
        ~finally:(fun () -> Resched_util.Domain_pool.Pool.shutdown pool)
        (fun () ->
          ignore
            (Resched_util.Domain_pool.Pool.map pool (fun i ->
                 if i = 0 then Serve_transport.run transport
                 else Server.work_loop srv)
              : unit array))
    end
  in
  (match socket with
  | None ->
    Serve_transport.add_channel transport ~close_server_on_eof:true
      ~owns_fds:false ~in_fd:Unix.stdin ~out_fd:Unix.stdout ();
    run_transport ()
  | Some path ->
    if Sys.file_exists path then
      die exit_io "socket path %s already exists" path;
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock (Stdlib.max 8 max_clients);
    Printf.eprintf "fpga_sched: serving on %s\n%!" path;
    Serve_transport.listen transport sock;
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      run_transport);
  0

let serve_cmd =
  let socket =
    let doc =
      "Serve on a Unix domain socket at PATH instead of stdin/stdout; up \
       to $(b,--max-clients) connections are multiplexed concurrently on \
       one event loop."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let capacity =
    let doc = "Admission queue bound; beyond it requests are shed." in
    Arg.(value & opt positive 64 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let tenant_quota =
    let doc =
      "Max in-flight requests per tenant (default: the queue capacity)."
    in
    Arg.(
      value & opt (some int) None & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let degrade_low =
    let doc =
      "Queue depth where degradation rung 1 (reduced restarts) starts \
       (default: capacity/4)."
    in
    Arg.(
      value & opt (some int) None & info [ "degrade-low" ] ~docv:"N" ~doc)
  in
  let degrade_high =
    let doc =
      "Queue depth where degradation rung 2 (heuristic only) starts \
       (default: 3*capacity/4)."
    in
    Arg.(
      value & opt (some int) None & info [ "degrade-high" ] ~docv:"N" ~doc)
  in
  let degrade_factor =
    let doc = "Restart-budget divisor at degradation rung 1." in
    Arg.(value & opt positive 8 & info [ "degrade-factor" ] ~docv:"K" ~doc)
  in
  let retries =
    let doc = "Retries after a failed execution attempt." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff =
    let doc = "Base retry backoff in milliseconds (doubles per attempt)." in
    Arg.(value & opt int 50 & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let deadline =
    let doc =
      "Default per-request deadline in milliseconds for requests that \
       carry none (default: unlimited)."
    in
    Arg.(
      value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let min_iterations =
    let doc = "Default restart iterations per request." in
    Arg.(value & opt int 200 & info [ "min-iterations" ] ~docv:"N" ~doc)
  in
  let budget =
    let doc =
      "Default wall-clock budget per request in milliseconds (0 = exactly \
       min-iterations restarts)."
    in
    Arg.(value & opt int 0 & info [ "budget-ms" ] ~docv:"MS" ~doc)
  in
  let allow_faults =
    let doc =
      "Honor the protocol's fail_attempts fault-injection test hook."
    in
    Arg.(value & flag & info [ "allow-fault-injection" ] ~doc)
  in
  let max_clients =
    let doc =
      "Max simultaneously connected clients; past it new connections wait \
       in the kernel accept backlog."
    in
    Arg.(value & opt int 32 & info [ "max-clients" ] ~docv:"N" ~doc)
  in
  let max_line_bytes =
    let doc =
      "Max request line length in bytes; longer lines are answered with a \
       structured rejected/line_too_long response and discarded without \
       dropping the connection."
    in
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc)
  in
  let doc =
    "run the solver stack as a resident jsonl service (multiplexed \
     concurrent clients, admission control, deadline budgets, graceful \
     degradation)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ verbose_arg $ socket $ jobs_arg $ capacity $ tenant_quota
      $ degrade_low $ degrade_high $ degrade_factor $ retries
      $ backoff $ deadline $ min_iterations $ budget $ seed_arg
      $ allow_faults $ max_clients $ max_line_bytes)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "resource-efficient scheduling for partially-reconfigurable FPGA-based \
     systems"
  in
  let info = Cmd.info "fpga_sched" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ generate_cmd; show_cmd; schedule_cmd; optimize_cmd; replay_cmd;
        compare_cmd; suite_cmd; batch_cmd; serve_cmd ]
  in
  (* [~catch:false] so operational failures surface as one-line errors
     with our exit codes instead of cmdliner's backtrace dump. [Failure]
     is operational here (raised for malformed inputs and dead sockets
     across the subcommands); genuine programming errors
     ([Invalid_argument], [Not_found], ...) still dump a backtrace on
     purpose — masking those as exit 3 would hide bugs. *)
  exit
    (try Cmd.eval' ~catch:false group with
    | Sys_error msg -> Printf.eprintf "fpga_sched: error: %s\n" msg; exit_io
    | Failure msg -> Printf.eprintf "fpga_sched: error: %s\n" msg; exit_io
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "fpga_sched: error: %s: %s%s\n" fn
        (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      exit_io
    | Validate.Invalid vs ->
      Printf.eprintf "fpga_sched: error: invalid schedule (%d violation(s))\n"
        (List.length vs);
      exit_invalid)
