(* The first LP engine, the oracle for [Revised]: a dense two-phase
   tableau simplex with Bland's anti-cycling rule, returning [Revised]'s
   result type. *)

module Lp = Resched_milp.Lp

type solution = Resched_milp.Revised.solution =
  { objective : float; values : float array }

type result = Resched_milp.Revised.result =
  | Optimal of solution | Infeasible | Unbounded | Limit

let feasibility_tolerance = 1e-7
let eps = 1e-9

exception Unbounded_exn
exception Iteration_limit

(* A standard-form tableau: minimize cost . x  s.t.  a x = b, x >= 0, with
   [basis.(r)] holding the column basic in row [r]. The cost row is kept
   reduced with respect to the basis. *)
type tableau = {
  m : int;
  ncols : int;
  a : float array array;  (* m x ncols *)
  b : float array;  (* m *)
  cost : float array;  (* ncols, reduced *)
  mutable z : float;  (* objective value of current basis *)
  basis : int array;  (* m *)
}

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  for j = 0 to t.ncols - 1 do
    arow.(j) <- arow.(j) /. p
  done;
  t.b.(row) <- t.b.(row) /. p;
  for r = 0 to t.m - 1 do
    if r <> row then begin
      let f = t.a.(r).(col) in
      if Float.abs f > 0. then begin
        let target = t.a.(r) in
        for j = 0 to t.ncols - 1 do
          target.(j) <- target.(j) -. (f *. arow.(j))
        done;
        t.b.(r) <- t.b.(r) -. (f *. t.b.(row))
      end
    end
  done;
  let f = t.cost.(col) in
  if Float.abs f > 0. then begin
    for j = 0 to t.ncols - 1 do
      t.cost.(j) <- t.cost.(j) -. (f *. arow.(j))
    done;
    t.z <- t.z -. (f *. t.b.(row))
  end;
  t.basis.(row) <- col

(* Bland's rule: entering = smallest column index with cost < -eps;
   leaving = min ratio, ties broken by smallest basis column. Bland's
   rule cannot cycle, but on degenerate big-M models it can stall for
   many pivots, so the cap does bind: node LPs of the 5-task monolithic
   ILP (415 rows) reach it, and the solve then returns [Limit] (an
   unresolved node, not an infeasible one). (Dantzig pricing was tried
   and performs worse here: the big-M disjunctive models keep
   attracting it to near-degenerate columns.) *)
let iterate ?(allowed = fun _ -> true) ?(deadline = infinity) t =
  let limit = 2000 + (64 * (t.m + t.ncols)) in
  let iter = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr iter;
    if !iter > limit then raise Iteration_limit;
    if !iter land 63 = 0 && Unix.gettimeofday () > deadline then
      raise Iteration_limit;
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && t.cost.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering = -1 then continue_ := false
    else begin
      let col = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref infinity in
      for r = 0 to t.m - 1 do
        let arc = t.a.(r).(col) in
        if arc > eps then begin
          let ratio = t.b.(r) /. arc in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
                && (!best_row = -1 || t.basis.(r) < t.basis.(!best_row)))
          then begin
            best_row := r;
            best_ratio := ratio
          end
        end
      done;
      if !best_row = -1 then raise Unbounded_exn;
      pivot t ~row:!best_row ~col
    end
  done

(* Recompute the reduced cost row for objective [c] under the current
   basis: cost = c - c_B B^-1 A, z = c_B B^-1 b. In tableau form, simply
   subtract c_B(r) * row_r from the raw cost row. *)
let install_objective t c =
  Array.blit c 0 t.cost 0 t.ncols;
  t.z <- 0.;
  for r = 0 to t.m - 1 do
    let cb = c.(t.basis.(r)) in
    if Float.abs cb > 0. then begin
      let arow = t.a.(r) in
      for j = 0 to t.ncols - 1 do
        t.cost.(j) <- t.cost.(j) -. (cb *. arow.(j))
      done;
      t.z <- t.z -. (cb *. t.b.(r))
    end
  done

let solve_arrays ?deadline ~goal ~obj ~lb ~ub ~rows () =
  let n = Array.length obj in
  (* Infeasible bound boxes short-circuit (branch-and-bound produces
     them). *)
  let bad_box = ref false in
  for j = 0 to n - 1 do
    if not (Float.is_finite lb.(j)) then
      invalid_arg "Simplex: variables must have a finite lower bound";
    if lb.(j) > ub.(j) +. eps then bad_box := true
  done;
  if !bad_box then Infeasible
  else begin
    (* Shift x = lb + x'; finite upper bounds become extra rows. *)
    let shift_rhs terms rhs =
      List.fold_left (fun acc (v, c) -> acc -. (c *. lb.(v))) rhs terms
    in
    let base_rows =
      Array.to_list rows
      |> List.map (fun (terms, sense, rhs) -> (terms, sense, shift_rhs terms rhs))
    in
    let bound_rows = ref [] in
    for j = n - 1 downto 0 do
      if Float.is_finite ub.(j) then
        bound_rows := ([ (j, 1.) ], Lp.Le, ub.(j) -. lb.(j)) :: !bound_rows
    done;
    let all_rows = base_rows @ !bound_rows in
    let m = List.length all_rows in
    (* Column layout: n shifted vars, then one slack/surplus per Le/Ge
       row, then one artificial per row that needs one. *)
    let slack_count =
      List.fold_left
        (fun acc (_, sense, _) ->
          match sense with Lp.Eq -> acc | Lp.Le | Lp.Ge -> acc + 1)
        0 all_rows
    in
    (* Normalize rhs >= 0 first to know which rows need artificials. *)
    let normalized =
      List.map
        (fun (terms, sense, rhs) ->
          if rhs < 0. then begin
            let terms = List.map (fun (v, c) -> (v, -.c)) terms in
            let sense =
              match sense with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
            in
            (terms, sense, -.rhs)
          end
          else (terms, sense, rhs))
        all_rows
    in
    let needs_artificial =
      List.map
        (fun (_, sense, _) ->
          match sense with Lp.Le -> false | Lp.Ge | Lp.Eq -> true)
        normalized
    in
    let art_count = List.fold_left (fun a b -> if b then a + 1 else a) 0 needs_artificial in
    let ncols = n + slack_count + art_count in
    let a = Array.init m (fun _ -> Array.make ncols 0.) in
    let b = Array.make m 0. in
    let basis = Array.make m (-1) in
    let next_slack = ref n in
    let next_art = ref (n + slack_count) in
    List.iteri
      (fun r (terms, sense, rhs) ->
        List.iter (fun (v, c) -> a.(r).(v) <- a.(r).(v) +. c) terms;
        b.(r) <- rhs;
        (match sense with
        | Lp.Le ->
          a.(r).(!next_slack) <- 1.;
          basis.(r) <- !next_slack;
          incr next_slack
        | Lp.Ge ->
          a.(r).(!next_slack) <- -1.;
          incr next_slack
        | Lp.Eq -> ());
        if basis.(r) = -1 then begin
          a.(r).(!next_art) <- 1.;
          basis.(r) <- !next_art;
          incr next_art
        end)
      normalized;
    let t = { m; ncols; a; b; cost = Array.make ncols 0.; z = 0.; basis } in
    let art_start = n + slack_count in
    (* Phase 1: minimize the artificial sum. *)
    let result =
      if art_count > 0 then begin
        let phase1 = Array.make ncols 0. in
        for j = art_start to ncols - 1 do
          phase1.(j) <- 1.
        done;
        install_objective t phase1;
        match iterate ?deadline t with
        | () ->
          if -.t.z > feasibility_tolerance then Some Infeasible else None
        | exception Unbounded_exn -> Some Infeasible (* cannot happen *)
        | exception Iteration_limit -> Some Limit
      end
      else None
    in
    match result with
    | Some r -> r
    | None ->
      (* Drive any remaining artificial out of the basis (degenerate
         rows); rows where that is impossible are redundant. *)
      for r = 0 to m - 1 do
        if t.basis.(r) >= art_start then begin
          let col = ref (-1) in
          (try
             for j = 0 to art_start - 1 do
               if Float.abs t.a.(r).(j) > eps then begin
                 col := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !col >= 0 then pivot t ~row:r ~col:!col
        end
      done;
      (* Phase 2: forbid artificial columns and optimize the real goal. *)
      let sign = match goal with Lp.Minimize -> 1. | Lp.Maximize -> -1. in
      let phase2 = Array.make ncols 0. in
      for j = 0 to n - 1 do
        phase2.(j) <- sign *. obj.(j)
      done;
      install_objective t phase2;
      let allowed j = j < art_start in
      (match iterate ~allowed ?deadline t with
      | () ->
        let values = Array.make n 0. in
        for r = 0 to m - 1 do
          if t.basis.(r) < n then values.(t.basis.(r)) <- t.b.(r)
        done;
        for j = 0 to n - 1 do
          values.(j) <- values.(j) +. lb.(j)
        done;
        let offset =
          let acc = ref 0. in
          for j = 0 to n - 1 do
            acc := !acc +. (obj.(j) *. lb.(j))
          done;
          !acc
        in
        (* t.z tracks -(phase2 objective of basis). *)
        let objective = (sign *. -.t.z) +. offset in
        Optimal { objective; values }
      | exception Unbounded_exn -> Unbounded
      | exception Iteration_limit -> Limit)
  end

let solve_with_bounds ?deadline model ~lb ~ub =
  let n = Lp.num_vars model in
  if Array.length lb <> n || Array.length ub <> n then
    invalid_arg "Simplex.solve_with_bounds: bounds length mismatch";
  solve_arrays ?deadline ~goal:(Lp.objective model) ~obj:(Lp.obj_coeffs model)
    ~lb ~ub ~rows:(Lp.rows model) ()

let solve model =
  solve_with_bounds model ~lb:(Lp.lb_array model) ~ub:(Lp.ub_array model)
