(* Inputs and line format of the golden schedule digests
   ([schedule_digests.txt]), shared by their generator and the replay
   test.

     <name> <makespan> <md5>

   <name> names the instance (its shape, task count and index),
   <makespan> is the best schedule's makespan and <md5> the hex MD5 of
   its [Schedule_io.to_string]: the instance, every placement and time,
   the reconfiguration sequence and the floorplan. An instance for which
   PA-R found no floorplannable schedule reads [-1 none]. Lines starting
   with '#' are comments.

   The inputs, each at fixed work, all through one [Batch.run] at
   jobs 2:
   - [paper]: the seed-1 XC7Z020 paper suite ([Suite.full]), two graphs
     per 10..100-task group, 100 restarts each;
   - [saturated]: 10 saturated XC7Z010 graphs of 40..80 tasks (large
     CLB demands, so the shrink lattice engages), 40 restarts each.

   Batch outcomes equal each request's [Pa_random.run] at a zero budget
   whatever the interleaving, so a replay must reproduce every line.

   The baseline digests ([baseline_digests.txt]) use the same line
   format, with <name> = <algorithm>/<instance>: PA, IS-1, IS-5 (at
   50_000 nodes per chunk) and HEFT, each through its floorplan
   shrink-retry loop with a private cache, over the 10 saturated graphs
   and the first seed-1 paper graph of each group. Most of these runs
   retry at least once, so the lines pin the loop's scales too. *)

module Rng = Resched_util.Rng
module Arch = Resched_platform.Arch
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Batch = Resched_core.Batch
module Pa = Resched_core.Pa
module Isk = Resched_baseline.Isk
module List_sched = Resched_baseline.List_sched
module Pa_random = Resched_core.Pa_random
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io

let seed = 1
let inst_seed k = (seed * 1000) + k + 1

let paper () =
  List.concat_map
    (fun (tasks, insts) ->
      List.mapi
        (fun i inst -> (Printf.sprintf "paper-%d-%d" tasks i, 100, inst))
        insts)
    (Suite.full ~graphs_per_group:2 ~seed ())

let saturated () =
  let rng = Rng.create seed in
  let params =
    { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }
  in
  List.init 10 (fun k ->
      let tasks = 40 + (10 * (k mod 5)) in
      ( Printf.sprintf "saturated-%d-%d" tasks k,
        40,
        Suite.instance ~params ~arch:Arch.microzed rng ~tasks ))

type entry = { name : string; makespan : int; md5 : string }

let digest name (s : Schedule.t) =
  {
    name;
    makespan = s.Schedule.makespan;
    md5 = Digest.to_hex (Digest.string (Schedule_io.to_string s));
  }

let entry name (o : Pa_random.outcome) =
  match o.Pa_random.schedule with
  | None -> { name; makespan = -1; md5 = "none" }
  | Some s -> digest name s

(* Every input through one batch at jobs 2, in input order. *)
let outcomes inputs =
  let requests =
    Array.mapi
      (fun k (_, restarts, inst) ->
        Batch.request ~seed:(inst_seed k) ~min_iterations:restarts inst)
      (Array.of_list inputs)
  in
  fst (Batch.run ~jobs:2 requests)

let run () =
  let inputs = paper () @ saturated () in
  List.map2
    (fun (name, _, _) o -> entry name o)
    inputs
    (Array.to_list (outcomes inputs))

(* Each baseline over every instance, in algorithm then input order. *)
let baselines () =
  let inputs =
    List.map
      (fun (tasks, insts) -> (Printf.sprintf "paper-%d-0" tasks, List.hd insts))
      (Suite.full ~graphs_per_group:1 ~seed ())
    @ List.map (fun (name, _, inst) -> (name, inst)) (saturated ())
  in
  let isk k inst =
    fst
      (Isk.run
         ~config:{ (Isk.config ~k) with Isk.chunk_node_limit = 50_000 }
         inst)
  in
  let algorithms =
    [
      ("pa", fun inst -> fst (Pa.run inst));
      ("is1", isk 1);
      ("is5", isk 5);
      ("heft", fun inst -> List_sched.run inst);
    ]
  in
  List.concat_map
    (fun (algo, schedule) ->
      List.map
        (fun (name, inst) ->
          digest (algo ^ "/" ^ name) (schedule inst))
        inputs)
    algorithms

let to_line e = Printf.sprintf "%s %d %s" e.name e.makespan e.md5

let of_line line =
  match String.split_on_char ' ' line with
  | [ name; makespan; md5 ] -> { name; makespan = int_of_string makespan; md5 }
  | _ -> failwith ("Schedule_corpus.of_line: " ^ line)

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map of_line
