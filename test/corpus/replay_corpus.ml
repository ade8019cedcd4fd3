(* Inputs and line format of the golden replay digests
   ([replay_digests.txt]), shared by their generator and the replay
   test. They pin, byte for byte, every path that re-times a finished
   plan: the jitter executor, fault replay with schedule repair, and the
   exact ILP's integer re-timing.

     execute/<jitter>/<algo>/<instance> <makespan> <md5>
     faults/<policy>/<spec>/<algo>/<instance> <survived> <actions>
       <final makespan> <md5>
     ilp/<seed>-<tasks> <makespan> <proved> <nodes> <md5>

   (the [faults] line is one line). The schedules are PA's ([Pa.run],
   <algo> [pa]), PA-R's ([pa-r], the [schedule_digests.txt] batch) and
   PA's with module reuse ([pa-reuse], so region pairs without a
   reconfiguration occur) over the instances of schedule_corpus.ml; an
   instance for which PA-R found no schedule has no PA-R lines.
   - [execute]: one [Executor.execute] under [Deterministic],
     [Uniform 0.2] or [Delay_only 0.4], each stochastic case on its own
     fixed RNG seed; <md5> is over every realized start and end.
   - [faults]: [Executor.replay_faults] under each policy on a
     [Fault.sample] plan drawn from a fixed seed, under the default
     spec and a heavy one (half the loads fail, 30% overruns and region
     deaths); <actions> lists every recovery action ([-] for none) and
     <md5> is over the last schedule's [Schedule_io.to_string].
   - [ilp]: [Ilp_exact.solve] at 50,000 nodes and no time limit on the
     2-4-task instances test_baseline checks against the exhaustive
     optimum; <md5> is over the schedule's [Schedule_io.to_string].
   Lines starting with '#' are comments. *)

module Rng = Resched_util.Rng
module Arch = Resched_platform.Arch
module Suite = Resched_platform.Suite
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Repair = Resched_core.Repair
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Ilp_exact = Resched_baseline.Ilp_exact
module Executor = Resched_sim.Executor
module Fault = Resched_sim.Fault

let md5 s = Digest.to_hex (Digest.string s)

(* PA, PA-R and PA-with-module-reuse schedules of every schedule-corpus
   instance, in that order, each in input order. *)
let schedules () =
  let inputs = Schedule_corpus.paper () @ Schedule_corpus.saturated () in
  let pa algo config =
    List.map
      (fun (name, _, inst) -> (algo ^ "/" ^ name, fst (Pa.run ~config inst)))
      inputs
  in
  let par =
    List.concat
      (List.map2
         (fun (name, _, _) (o : Pa_random.outcome) ->
           match o.Pa_random.schedule with
           | Some s -> [ ("pa-r/" ^ name, s) ]
           | None -> [])
         inputs
         (Array.to_list (Schedule_corpus.outcomes inputs)))
  in
  pa "pa" Pa.default_config
  @ par
  @ pa "pa-reuse" { Pa.default_config with Pa.module_reuse = true }

let jitters =
  [
    ("deterministic", Executor.Deterministic);
    ("uniform-0.2", Executor.Uniform 0.2);
    ("delay-0.4", Executor.Delay_only 0.4);
  ]

let execute_lines scheds =
  List.concat_map
    (fun (jname, jitter) ->
      List.mapi
        (fun k (name, sched) ->
          let t = Executor.execute ~rng:(Rng.create (k + 1)) ~jitter sched in
          let times =
            String.concat " "
              (List.map string_of_int
                 (Array.to_list t.Executor.task_start
                 @ Array.to_list t.Executor.task_end))
          in
          Printf.sprintf "execute/%s/%s %d %s" jname name t.Executor.makespan
            (md5 times))
        scheds)
    jitters

let heavy_spec =
  {
    Fault.default_spec with
    Fault.p_reconf_fail = 0.5;
    p_overrun = 0.3;
    p_region_death = 0.3;
  }

let action_token = function
  | Repair.Retried { region; t_out; attempts } ->
    Printf.sprintf "retry:%d:%d:%d" region t_out attempts
  | Repair.Migrated { task; processor } ->
    Printf.sprintf "migrate:%d:%d" task processor
  | Repair.Retimed { compacted } -> Printf.sprintf "retime:%b" compacted

let fault_lines scheds =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun (sname, spec) ->
          List.mapi
            (fun k (name, sched) ->
              let plan = Fault.sample (Rng.create ((31 * k) + 7)) ~spec sched in
              let t = Executor.replay_faults ~policy ~plan sched in
              let actions =
                match t.Executor.actions with
                | [] -> "-"
                | acts -> String.concat "," (List.map action_token acts)
              in
              Printf.sprintf "faults/%s/%s/%s %b %s %d %s"
                (Repair.policy_name policy) sname name t.Executor.survived
                actions t.Executor.final_makespan
                (md5 (Schedule_io.to_string t.Executor.schedule)))
            scheds)
        [ ("default", Fault.default_spec); ("heavy", heavy_spec) ])
    [ Repair.Retry; Repair.Sw_fallback; Repair.Resched_tail ]

(* test_baseline's tiny instances: small areas and short chains on the
   [mini] fabric, so regions are shared. *)
let tiny_instance seed tasks =
  let rng = Rng.create seed in
  let params =
    { Suite.default_params with
      Suite.clb_min = 100;
      clb_max = 260;
      p_bram_heavy = 0.;
      p_dsp_heavy = 0.;
      width_of_tasks = (fun _ -> 2) }
  in
  Suite.instance ~params ~arch:Arch.mini rng ~tasks

let ilp_lines () =
  List.map
    (fun (seed, tasks) ->
      let name = Printf.sprintf "ilp/%d-%d" seed tasks in
      match Ilp_exact.solve ~node_limit:50_000 (tiny_instance seed tasks) with
      | None -> name ^ " none"
      | Some r ->
        let s = r.Ilp_exact.schedule in
        Printf.sprintf "%s %d %b %d %s" name s.Schedule.makespan
          r.Ilp_exact.proved_optimal r.Ilp_exact.nodes
          (md5 (Schedule_io.to_string s)))
    [ (1, 2); (2, 2); (1, 3); (2, 3); (3, 3); (1, 4); (2, 4) ]

let lines () =
  let scheds = schedules () in
  execute_lines scheds @ fault_lines scheds @ ilp_lines ()

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
