(* The original branch-and-bound, the oracle for [Branch_bound.solve]:
   best-first on the LP bound over [Branch_bound]'s heap and nodes, each
   node solved from scratch by the dense [Simplex], branching on the
   most fractional variable. *)

module Lp = Resched_milp.Lp
module Branch_bound = Resched_milp.Branch_bound
module Heap = Branch_bound.Heap

let solve ?(node_limit = 1_000_000) ?time_limit model =
  let deadline =
    match time_limit with None -> infinity | Some s -> Unix.gettimeofday () +. s
  in
  let n = Lp.num_vars model in
  let base_lb = Lp.lb_array model and base_ub = Lp.ub_array model in
  let integer = Lp.integer_array model in
  let sign =
    match Lp.objective model with Lp.Minimize -> 1. | Lp.Maximize -> -1.
  in
  let incumbent = ref None and incumbent_key = ref infinity in
  let nodes = ref 0 and exhausted = ref false in
  let heap = Heap.create () in
  let lbbuf = Array.copy base_lb and ubbuf = Array.copy base_ub in
  let evaluate nd =
    incr nodes;
    Array.blit base_lb 0 lbbuf 0 n;
    Array.blit base_ub 0 ubbuf 0 n;
    Branch_bound.materialize nd lbbuf ubbuf;
    match Simplex.solve_with_bounds ~deadline model ~lb:lbbuf ~ub:ubbuf with
    | Simplex.Infeasible -> `Pruned
    | Simplex.Unbounded -> `Unbounded
    | Simplex.Limit ->
      (* Unresolved, not infeasible: never prune it as if it were empty. *)
      exhausted := true;
      `Pruned
    | Simplex.Optimal { objective; values } -> (
      let key = sign *. objective in
      if key >= !incumbent_key -. 1e-9 then `Pruned
      else
        match Branch_bound.most_fractional ~integer values with
        | -1 ->
          incumbent := Some (objective, values);
          incumbent_key := key;
          `Integer
        | var -> `Branch (key, var, values))
  in
  let branch nd (key, var, values) =
    let d, u =
      Branch_bound.make_children nd ~key ~var ~value:values.(var) None
    in
    Heap.push heap key d;
    Heap.push heap key u
  in
  let unbounded = ref false in
  (match evaluate Branch_bound.root_node with
  | `Pruned | `Integer -> ()
  | `Unbounded -> unbounded := true
  | `Branch b -> branch Branch_bound.root_node b);
  let continue_ = ref (not !unbounded) in
  while !continue_ do
    if !nodes >= node_limit || Unix.gettimeofday () > deadline then begin
      exhausted := true;
      continue_ := false
    end
    else
      match Heap.pop heap with
      | None -> continue_ := false
      | Some (key, _) when key >= !incumbent_key -. 1e-9 ->
        (* Best-first: every remaining node is at least as bad. *)
        continue_ := false
      | Some (_, nd) -> (
        match evaluate nd with
        | `Branch b -> branch nd b
        | `Pruned | `Integer | `Unbounded -> ())
  done;
  if Unix.gettimeofday () > deadline then exhausted := true;
  if !unbounded then Branch_bound.Unbounded
  else
    match !incumbent with
    | Some (objective, values) ->
      let sol =
        { Branch_bound.objective; values; proved_optimal = not !exhausted;
          nodes = !nodes }
      in
      if !exhausted then Branch_bound.Feasible sol else Branch_bound.Optimal sol
    | None ->
      if !exhausted then Branch_bound.Node_limit else Branch_bound.Infeasible
