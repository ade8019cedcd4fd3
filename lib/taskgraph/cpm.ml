type t = {
  t_min : int array;
  t_max : int array;
  makespan : int;
  critical : bool array;
  order : int array;
}

let check_inputs g ~durations ~release =
  let n = Graph.size g in
  if Array.length durations <> n then
    invalid_arg "Cpm.compute: durations length mismatch";
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Cpm.compute: negative duration")
    durations;
  match release with
  | None -> ()
  | Some r ->
    if Array.length r <> n then invalid_arg "Cpm.compute: release length mismatch";
    Array.iter
      (fun x -> if x < 0 then invalid_arg "Cpm.compute: negative release")
      r

let run g ~durations ~release =
  check_inputs g ~durations ~release;
  let n = Graph.size g in
  let order = Graph.topological_order g in
  let t_min = Array.make n 0 in
  (match release with
  | None -> ()
  | Some r -> Array.blit r 0 t_min 0 n);
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

let compute g ~durations = run g ~durations ~release:None

let compute_with_release g ~durations ~release =
  run g ~durations ~release:(Some release)

let slack cpm ~durations u = cpm.t_max.(u) - cpm.t_min.(u) - durations.(u)

let critical_path cpm ~durations g =
  (* Start from a critical source and repeatedly follow a critical
     successor whose start abuts our finish. *)
  let n = Graph.size g in
  let start = ref (-1) in
  for u = n - 1 downto 0 do
    if cpm.critical.(u) && cpm.t_min.(u) = 0 && Graph.preds g u = [] then
      start := u
  done;
  if !start = -1 then
    for u = n - 1 downto 0 do
      if cpm.critical.(u) && cpm.t_min.(u) = 0 then start := u
    done;
  if !start = -1 then []
  else begin
    let rec follow u acc =
      let finish = cpm.t_min.(u) + durations.(u) in
      let next =
        List.find_opt
          (fun v -> cpm.critical.(v) && cpm.t_min.(v) = finish)
          (Graph.succs g u)
      in
      match next with
      | Some v -> follow v (u :: acc)
      | None -> List.rev (u :: acc)
    in
    follow !start []
  end
