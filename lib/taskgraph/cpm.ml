type t = {
  t_min : int array;
  t_max : int array;
  makespan : int;
  critical : bool array;
  order : int array;
}

let check_inputs g ~durations =
  if Array.length durations <> Graph.size g then
    invalid_arg "Cpm.compute: durations length mismatch";
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Cpm.compute: negative duration")
    durations

let compute g ~durations =
  check_inputs g ~durations;
  let n = Graph.size g in
  let order = Graph.topological_order g in
  let t_min = Array.make n 0 in
  (* Forward pass: earliest starts. *)
  Array.iter
    (fun u ->
      let finish = t_min.(u) + durations.(u) in
      List.iter
        (fun v -> if t_min.(v) < finish then t_min.(v) <- finish)
        (Graph.succs g u))
    order;
  let makespan =
    let m = ref 0 in
    for u = 0 to n - 1 do
      m := Stdlib.max !m (t_min.(u) + durations.(u))
    done;
    !m
  in
  (* Backward pass: latest finishes. *)
  let t_max = Array.make n makespan in
  for i = n - 1 downto 0 do
    let u = order.(i) in
    List.iter
      (fun v ->
        let latest_start = t_max.(v) - durations.(v) in
        if t_max.(u) > latest_start then t_max.(u) <- latest_start)
      (Graph.succs g u)
  done;
  let critical = Array.make n false in
  for u = 0 to n - 1 do
    critical.(u) <- t_max.(u) - t_min.(u) = durations.(u)
  done;
  { t_min; t_max; makespan; critical; order }
