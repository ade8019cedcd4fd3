module Rng = Resched_util.Rng

let layered rng ~tasks ~width ~edge_probability =
  if tasks <= 0 then invalid_arg "Generator.layered: tasks must be positive";
  if width <= 0 then invalid_arg "Generator.layered: width must be positive";
  if edge_probability < 0. || edge_probability > 1. then
    invalid_arg "Generator.layered: edge_probability out of range";
  let g = Graph.create tasks in
  (* Assign nodes 0..tasks-1 to consecutive layers of random width in
     [1, width]. *)
  let layer_of = Array.make tasks 0 in
  let layers = ref [] in
  let next = ref 0 in
  let layer_idx = ref 0 in
  while !next < tasks do
    let w = Stdlib.min (tasks - !next) (1 + Rng.int rng width) in
    let members = Array.init w (fun i -> !next + i) in
    Array.iter (fun u -> layer_of.(u) <- !layer_idx) members;
    layers := members :: !layers;
    next := !next + w;
    incr layer_idx
  done;
  let layers = Array.of_list (List.rev !layers) in
  let nlayers = Array.length layers in
  (* Mandatory edge: every node of layer l>0 has a parent in layer l-1. *)
  for l = 1 to nlayers - 1 do
    Array.iter
      (fun v ->
        let u = Rng.choose rng layers.(l - 1) in
        Graph.add_edge g u v)
      layers.(l)
  done;
  (* Optional forward edges, possibly skipping layers. *)
  for u = 0 to tasks - 1 do
    for v = u + 1 to tasks - 1 do
      if layer_of.(v) > layer_of.(u)
         && (not (Graph.has_edge g u v))
         && Rng.float rng 1.0 < edge_probability
      then Graph.add_edge g u v
    done
  done;
  g

let chain n =
  let g = Graph.create n in
  for u = 0 to n - 2 do
    Graph.add_edge g u (u + 1)
  done;
  g

let independent n = Graph.create n

let fork_join ~branches ~depth =
  if branches <= 0 || depth <= 0 then
    invalid_arg "Generator.fork_join: branches and depth must be positive";
  let n = (branches * depth) + 2 in
  let g = Graph.create n in
  let source = 0 and sink = n - 1 in
  for b = 0 to branches - 1 do
    let first = 1 + (b * depth) in
    Graph.add_edge g source first;
    for i = 0 to depth - 2 do
      Graph.add_edge g (first + i) (first + i + 1)
    done;
    Graph.add_edge g (first + depth - 1) sink
  done;
  g

let series_parallel rng ~tasks =
  if tasks <= 0 then invalid_arg "Generator.series_parallel: tasks must be positive";
  let g = Graph.create tasks in
  let next = ref 0 in
  let fresh () =
    let u = !next in
    incr next;
    u
  in
  (* Builds a sub-DAG of [budget] nodes; returns its entry and exit node
     lists. Series composition links all exits of the first part to all
     entries of the second; parallel composition is a juxtaposition. *)
  let rec build budget =
    if budget = 1 then begin
      let u = fresh () in
      ([ u ], [ u ])
    end
    else begin
      let left = 1 + Rng.int rng (budget - 1) in
      let right = budget - left in
      let e1, x1 = build left in
      let e2, x2 = build right in
      if Rng.bool rng then begin
        (* series *)
        List.iter (fun u -> List.iter (fun v -> Graph.add_edge g u v) e2) x1;
        (e1, x2)
      end
      else (e1 @ e2, x1 @ x2)
    end
  in
  let _ = build tasks in
  g
