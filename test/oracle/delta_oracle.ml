(* From-scratch reference for the [Delta] move kernel.

   The kernel re-times a plan incrementally after each move and
   re-queries the floorplan only when the region demand multiset
   changed. This module evaluates the same plan the plain way, through
   [Delta]'s public interface alone: it materializes the state with
   [Delta.to_schedule], times the plan that schedule describes (data
   edges, region chains with their reconfigurations, processor chains,
   the controller order) from scratch through [Timing.time_plan], and
   asks the floorplan check again.
   Longest paths in a DAG with non-negative durations are unique, so a
   correct kernel agrees on every start, the makespan and the floorplan
   verdict. The delta tests and the legacy bench's moves section compare
   the kernel against it. *)

module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
open Resched_core

(* Earliest starts of the plan a schedule describes, from scratch. Each
   task's duration is its implementation's time and each
   reconfiguration's its region's [reconf_ticks], so a stale stored
   duration shows as a divergence. A schedule records region chains and
   the controller order but no processor order, so [processor_tasks p]
   gives processor [p]'s chain: the kernel's own ([Delta.processor_tasks
   d]), never one read back from the kernel's start times. Raises
   [Graph.Cycle] on a cyclic plan. *)
let retime ~processor_tasks (sched : Schedule.t) =
  let inst = sched.Schedule.instance in
  let reconfigs =
    Array.of_list
      (List.map
         (fun (rc : Schedule.reconfiguration) ->
           {
             Timing.region_id = rc.Schedule.region;
             t_in = rc.Schedule.t_in;
             t_out = rc.Schedule.t_out;
             dur =
               sched.Schedule.regions.(rc.Schedule.region)
                 .Schedule.reconf_ticks;
             critical = false;
           })
         sched.Schedule.reconfigurations)
  in
  let durations =
    Array.mapi
      (fun u (s : Schedule.task_slot) ->
        (Instance.impl inst ~task:u ~idx:s.Schedule.impl_idx).Impl.time)
      sched.Schedule.slots
  in
  Timing.time_plan ~durations
    ~region_chains:
      (Array.map (fun (r : Schedule.region) -> r.Schedule.tasks)
         sched.Schedule.regions)
    ~processor_chains:
      (Array.init inst.Instance.arch.Arch.processors processor_tasks)
    ~reconfigs
    ~controller:(Array.init (Array.length reconfigs) Fun.id)
    inst.Instance.graph

(* The floorplan verdict of the schedule's region demands, established
   afresh. A schedule that carries a floorplan is feasible iff that
   floorplan validates against the demands; one without is feasible iff
   [check] (default [Floorplanner.check]) finds a floorplan, and no
   region is trivially feasible. The packer's search is exact but
   budgeted, and its budget runs out on different demand orders, so a
   fresh check may answer [Unknown] where the kernel holds a valid
   floorplan: the witness is what proves the kernel right. *)
let fp_feasible ?(check = fun device needs -> Floorplanner.check device needs)
    (sched : Schedule.t) =
  let device = sched.Schedule.instance.Instance.arch.Arch.device in
  let needs =
    Array.map (fun (r : Schedule.region) -> r.Schedule.res)
      sched.Schedule.regions
  in
  match sched.Schedule.floorplan with
  | Some places -> Result.is_ok (Floorplanner.validate device ~needs places)
  | None -> (
    Array.length needs = 0
    ||
    match (check device needs).Floorplanner.verdict with
    | Floorplanner.Feasible _ -> true
    | Floorplanner.Infeasible | Floorplanner.Unknown -> false)

(* A floorplan check through a fresh cache of its own. Without
   subsumption a cache's verdict is that of one deterministic check of
   the sorted demands, so it matches the kernel's cache on every
   multiset without sharing an entry with it. *)
let cached_check () =
  let cache = Fp_cache.create () in
  fun device needs -> Fp_cache.check cache device needs

(* [Delta.apply] for the structural edit, then the verdict of the
   resulting plan from scratch: every start re-timed and the floorplan
   asked again. [needs_changed] is the kernel's. *)
let apply ?check d move =
  match Delta.apply d move with
  | None -> None
  | Some v ->
    let sched = Delta.to_schedule d in
    let times = retime ~processor_tasks:(Delta.processor_tasks d) sched in
    Some
      {
        v with
        Delta.makespan = times.Timing.makespan;
        fp_feasible = fp_feasible ?check sched;
      }

(* The first processor whose chain does not hold exactly the tasks the
   schedule places on it. *)
let off_chain d (sched : Schedule.t) =
  let tasks = List.init (Array.length sched.Schedule.slots) Fun.id in
  let placed p =
    List.filter
      (fun u ->
        sched.Schedule.slots.(u).Schedule.placement = Schedule.On_processor p)
      tasks
  in
  List.find_opt
    (fun p -> List.sort Int.compare (Delta.processor_tasks d p) <> placed p)
    (List.init sched.Schedule.instance.Instance.arch.Arch.processors Fun.id)

(* The first way the state differs from its evaluation from scratch;
   [None] when every processor's chain holds exactly its tasks and
   every start and end, the makespan and the floorplan verdict agree. *)
let divergence ?check d =
  let sched = Delta.to_schedule d in
  match retime ~processor_tasks:(Delta.processor_tasks d) sched with
  | exception Graph.Cycle _ -> Some "the plan graph is cyclic"
  | times ->
    let first =
      ref
        (Option.map
           (Printf.sprintf
              "processor %d's chain does not hold exactly its tasks")
           (off_chain d sched))
    in
    let differ what got want =
      if Option.is_none !first && got <> want then
        first :=
          Some
            (Printf.sprintf "%s: kernel %d, from scratch %d" (what ()) got
               want)
    in
    Array.iteri
      (fun u (s : Schedule.task_slot) ->
        let task what () = Printf.sprintf "%s of task %d" what u in
        differ (task "start") s.Schedule.start_ times.Timing.task_start.(u);
        differ (task "end") s.Schedule.end_ times.Timing.task_end.(u))
      sched.Schedule.slots;
    List.iteri
      (fun i (rc : Schedule.reconfiguration) ->
        let reconf what () =
          Printf.sprintf "%s of reconfiguration %d" what i
        in
        differ (reconf "start") rc.Schedule.r_start times.Timing.rec_start.(i);
        differ (reconf "end") rc.Schedule.r_end times.Timing.rec_end.(i))
      sched.Schedule.reconfigurations;
    differ (fun () -> "makespan") (Delta.makespan d) times.Timing.makespan;
    let fp = fp_feasible ?check sched in
    if Option.is_none !first && Delta.fp_feasible d <> fp then
      first :=
        Some
          (Printf.sprintf "floorplan: kernel %b, from scratch %b"
             (Delta.fp_feasible d) fp);
    !first
