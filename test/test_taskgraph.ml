(* Tests for the taskgraph substrate: DAG structure, topological sort and
   cycle detection, the CPM time windows, and the generators. *)

module Rng = Resched_util.Rng
module Graph = Resched_taskgraph.Graph
module Cpm = Resched_taskgraph.Cpm
module Generator = Resched_taskgraph.Generator
module Dot = Resched_taskgraph.Dot

let nodes_where p g = List.filter p (List.init (Graph.size g) Fun.id)
let sources g = nodes_where (fun u -> Graph.preds g u = []) g
let sinks g = nodes_where (fun u -> Graph.succs g u = []) g

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 3;
  g

let test_graph_basics () =
  let g = diamond () in
  Alcotest.(check int) "size" 4 (Graph.size g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check bool) "has edge" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "no reverse edge" false (Graph.has_edge g 1 0);
  Alcotest.(check (list int)) "succs" [ 1; 2 ] (Graph.succs g 0);
  Alcotest.(check (list int)) "preds" [ 1; 2 ] (Graph.preds g 3)

let test_graph_duplicate_edges_ignored () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 1;
  Alcotest.(check int) "single edge" 1 (Graph.edge_count g)

let test_graph_self_loop_rejected () =
  let g = Graph.create 2 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.add_edge: self loop") (fun () ->
      Graph.add_edge g 1 1)

let test_graph_copy_independent () =
  let g = diamond () in
  let h = Graph.copy g in
  Graph.add_edge h 1 2;
  Alcotest.(check bool) "copy got the edge" true (Graph.has_edge h 1 2);
  Alcotest.(check bool) "original untouched" false (Graph.has_edge g 1 2)

let test_topological_order () =
  let g = diamond () in
  let order = Graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d before %d" u v)
        true
        (pos.(u) < pos.(v)))
    (Graph.edges g)

let test_cycle_detection () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 0;
  Alcotest.(check bool) "cyclic" false (Graph.is_acyclic g);
  match Graph.topological_order g with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Graph.Cycle _ -> ()

let test_reachable () =
  let g = diamond () in
  let r = Graph.reachable g 1 in
  Alcotest.(check bool) "1 reaches 3" true r.(3);
  Alcotest.(check bool) "1 does not reach 2" false r.(2);
  Alcotest.(check bool) "1 reaches itself" true r.(1)

let test_closure_matches_reachable () =
  let check_graph name g =
    let c = Graph.closure_with (Graph.make_closure_buf ()) g in
    let n = Graph.size g in
    for u = 0 to n - 1 do
      let r = Graph.reachable g u in
      for v = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: closure %d->%d" name u v)
          r.(v)
          (Graph.in_closure c u v)
      done
    done
  in
  check_graph "diamond" (diamond ());
  check_graph "empty" (Graph.create 3);
  let rng = Rng.create 11 in
  for i = 1 to 10 do
    let tasks = 2 + Rng.int rng 40 in
    check_graph
      (Printf.sprintf "layered-%d" i)
      (Generator.layered rng ~tasks ~width:4 ~edge_probability:0.15)
  done

let test_closure_is_a_snapshot () =
  let g = diamond () in
  let c = Graph.closure_with (Graph.make_closure_buf ()) g in
  Graph.add_edge g 1 2;
  Alcotest.(check bool) "new edge not in snapshot" false
    (Graph.in_closure c 1 2);
  Alcotest.(check bool) "fresh closure sees it" true
    (Graph.in_closure (Graph.closure_with (Graph.make_closure_buf ()) g) 1 2)

let test_marking_matches_reachable () =
  let rng = Rng.create 23 in
  for _ = 1 to 10 do
    let tasks = 2 + Rng.int rng 40 in
    let g = Generator.layered rng ~tasks ~width:4 ~edge_probability:0.15 in
    let u = Rng.int rng tasks in
    let fwd = Array.make tasks false in
    Graph.mark_reachable g u fwd;
    Alcotest.(check (array bool)) "mark_reachable = reachable"
      (Graph.reachable g u) fwd;
    (* Ancestors of u = nodes that reach u. *)
    let anc = Array.make tasks false in
    Graph.mark_coreachable g u anc;
    let expected = Array.init tasks (fun v -> (Graph.reachable g v).(u)) in
    Alcotest.(check (array bool)) "mark_coreachable = co-reachable" expected
      anc;
    (* Accumulation: marking a second root unions without clearing. *)
    let v = Rng.int rng tasks in
    Graph.mark_reachable g v fwd;
    let rv = Graph.reachable g v in
    let union = Array.mapi (fun i b -> b || rv.(i)) (Graph.reachable g u) in
    Alcotest.(check (array bool)) "marks accumulate" union fwd
  done

let test_restore_rewinds_edges () =
  let pristine = diamond () in
  let g = Graph.copy pristine in
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 3;
  Alcotest.(check int) "mutated" 6 (Graph.edge_count g);
  Graph.restore ~from:pristine g;
  Alcotest.(check int) "edge count rewound" (Graph.edge_count pristine)
    (Graph.edge_count g);
  Alcotest.(check bool) "inserted edge gone" false (Graph.has_edge g 1 2);
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "edge %d->%d kept" u v)
        true (Graph.has_edge g u v))
    (Graph.edges pristine);
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Graph.restore: size mismatch") (fun () ->
      Graph.restore ~from:(Graph.create 2) g)

let test_cpm_diamond () =
  let g = diamond () in
  let durations = [| 2; 5; 3; 4 |] in
  let cpm = Cpm.compute g ~durations in
  (* Critical path: 0 -> 1 -> 3 = 2 + 5 + 4 = 11. *)
  Alcotest.(check int) "makespan" 11 cpm.Cpm.makespan;
  Alcotest.(check (array int)) "t_min" [| 0; 2; 2; 7 |] cpm.Cpm.t_min;
  Alcotest.(check (array int)) "t_max" [| 2; 7; 7; 11 |] cpm.Cpm.t_max;
  Alcotest.(check (array bool)) "critical" [| true; true; false; true |]
    cpm.Cpm.critical

let test_cpm_empty_durations () =
  let g = Graph.create 3 in
  let cpm = Cpm.compute g ~durations:[| 0; 0; 0 |] in
  Alcotest.(check int) "zero makespan" 0 cpm.Cpm.makespan

let test_cpm_rejects_bad_input () =
  let g = Graph.create 2 in
  Alcotest.check_raises "length"
    (Invalid_argument "Cpm.compute: durations length mismatch") (fun () ->
      ignore (Cpm.compute g ~durations:[| 1 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Cpm.compute: negative duration") (fun () ->
      ignore (Cpm.compute g ~durations:[| 1; -2 |]))

let test_generator_chain () =
  let g = Generator.chain 5 in
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check (list int)) "single source" [ 0 ] (sources g);
  Alcotest.(check (list int)) "single sink" [ 4 ] (sinks g)

let test_generator_independent () =
  let g = Generator.independent 5 in
  Alcotest.(check int) "no edges" 0 (Graph.edge_count g)

let test_generator_fork_join () =
  let g = Generator.fork_join ~branches:3 ~depth:2 in
  Alcotest.(check int) "size" 8 (Graph.size g);
  Alcotest.(check (list int)) "one source" [ 0 ] (sources g);
  Alcotest.(check (list int)) "one sink" [ 7 ] (sinks g);
  Alcotest.(check bool) "acyclic" true (Graph.is_acyclic g)

let test_generator_layered_properties () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let tasks = 5 + Rng.int rng 60 in
    let g =
      Generator.layered rng ~tasks ~width:4 ~edge_probability:0.1
    in
    Alcotest.(check int) "size" tasks (Graph.size g);
    Alcotest.(check bool) "acyclic" true (Graph.is_acyclic g)
  done

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dot_output () =
  let g = diamond () in
  let path = Filename.temp_file "taskgraph" ".dot" in
  Out_channel.with_open_text path (fun oc -> Dot.to_channel oc g);
  let s = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "header" true
    (contains_substring s "digraph taskgraph");
  Alcotest.(check bool) "edge" true (contains_substring s "n0 -> n1");
  Alcotest.(check bool) "node" true (contains_substring s "n3 [label=\"3\"]")

(* Property: series_parallel generates acyclic graphs of the requested
   size. *)
let prop_series_parallel =
  QCheck.Test.make ~count:100 ~name:"series-parallel generator"
    QCheck.(pair int (int_range 1 40))
    (fun (seed, tasks) ->
      let rng = Rng.create seed in
      let g = Generator.series_parallel rng ~tasks in
      Graph.size g = tasks && Graph.is_acyclic g)

(* Property: CPM windows are consistent: t_min + dur <= t_max, and along
   every edge t_min(v) >= t_min(u) + dur(u). *)
let prop_cpm_windows =
  QCheck.Test.make ~count:100 ~name:"CPM window invariants"
    QCheck.(pair int (int_range 2 50))
    (fun (seed, tasks) ->
      let rng = Rng.create (seed lxor 0x9e37) in
      let g = Generator.layered rng ~tasks ~width:4 ~edge_probability:0.1 in
      let durations = Array.init tasks (fun _ -> 1 + Rng.int rng 100) in
      let cpm = Cpm.compute g ~durations in
      let ok = ref true in
      for u = 0 to tasks - 1 do
        if cpm.Cpm.t_min.(u) + durations.(u) > cpm.Cpm.t_max.(u) then ok := false;
        if cpm.Cpm.t_min.(u) + durations.(u) > cpm.Cpm.makespan then ok := false
      done;
      List.iter
        (fun (u, v) ->
          if cpm.Cpm.t_min.(v) < cpm.Cpm.t_min.(u) + durations.(u) then
            ok := false)
        (Graph.edges g);
      (* At least one critical task exists. *)
      !ok && Array.exists (fun c -> c) cpm.Cpm.critical)

let () =
  Alcotest.run "taskgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "duplicate edges" `Quick
            test_graph_duplicate_edges_ignored;
          Alcotest.test_case "self loop" `Quick test_graph_self_loop_rejected;
          Alcotest.test_case "copy" `Quick test_graph_copy_independent;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "reachability" `Quick test_reachable;
          Alcotest.test_case "closure = reachable" `Quick
            test_closure_matches_reachable;
          Alcotest.test_case "closure snapshots" `Quick
            test_closure_is_a_snapshot;
          Alcotest.test_case "marking = reachable" `Quick
            test_marking_matches_reachable;
          Alcotest.test_case "restore" `Quick test_restore_rewinds_edges;
        ] );
      ( "cpm",
        [
          Alcotest.test_case "diamond" `Quick test_cpm_diamond;
          Alcotest.test_case "zero durations" `Quick test_cpm_empty_durations;
          Alcotest.test_case "input validation" `Quick
            test_cpm_rejects_bad_input;
        ] );
      ( "generators",
        [
          Alcotest.test_case "chain" `Quick test_generator_chain;
          Alcotest.test_case "independent" `Quick test_generator_independent;
          Alcotest.test_case "fork-join" `Quick test_generator_fork_join;
          Alcotest.test_case "layered" `Quick test_generator_layered_properties;
          Alcotest.test_case "dot export" `Quick test_dot_output;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_series_parallel;
          QCheck_alcotest.to_alcotest prop_cpm_windows;
        ] );
    ]
