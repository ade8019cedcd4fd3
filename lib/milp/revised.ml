(* Revised simplex with native bounded variables.

   Where a dense tableau (the test oracle [Milp_oracle.Simplex]) turns
   every finite upper bound into an extra row (a model with n variables
   and m rows becomes an (m+n)-row tableau), this solver keeps bounds in
   the ratio test: a nonbasic variable sits At_lower or At_upper and can
   cross to the opposite bound without a basis change (a "bound flip").
   Each constraint row carries one logical variable (slack, surplus or
   fixed-at-zero for equalities), so the basis is always m x m and is
   maintained as an LU factorization plus an eta file ({!Basis}). Rows
   are equilibrated at load time (exact power-of-two scaling to unit max
   coefficient), which keeps the big-M scheduling models of [Ilp_exact]
   numerically tame.

   Three solve modes:
   - primal phase 1: composite (piecewise-linear) infeasibility
     minimization from the all-logical basis, with relaxed bounds on the
     infeasible basics and +-1 costs recomputed every iteration;
   - primal phase 2: standard bounded-variable primal;
   - dual: for warm starts. A branch-and-bound child differs from its
     parent by one variable bound, so the parent's optimal basis stays
     dual feasible and a handful of dual pivots restore primal
     feasibility — no two-phase solve from scratch.

   All loops are deterministic: Dantzig pricing with smallest-index tie
   breaks, switching to Bland's rule while the objective stalls. *)

let feas_tol = 1e-7
let dual_tol = 1e-7
let pivot_tol = 1e-9
let ratio_tol = 1e-9

type solution = { objective : float; values : float array }

type result = Optimal of solution | Infeasible | Unbounded | Limit

type status = At_lower | At_upper | Basic

type t = {
  n : int;  (* structural variables *)
  m : int;  (* rows = logical variables *)
  ncols : int;  (* n + m *)
  col_idx : int array array;
  col_val : float array array;
  c : float array;  (* minimization costs; logicals 0 *)
  obj_sign : float;  (* user objective = obj_sign * (c . x) *)
  rhs : float array;
  lb : float array;  (* ncols; structural entries mutated per B&B node *)
  ub : float array;
  status : status array;
  basis : int array;  (* m; column basic in each position *)
  x : float array;  (* ncols *)
  fac : Basis.t;
  y : float array;  (* m; dual prices scratch *)
  w : float array;  (* m; FTRAN scratch *)
  rho : float array;  (* m; BTRAN row scratch *)
  pcost : float array;  (* ncols; phase-1 costs *)
  mutable infeas : float;
  mutable pivots : int;  (* cumulative *)
  mutable last_pivots : int;  (* pivots of the most recent solve *)
  mutable factored : bool;
}

type snapshot = { s_status : status array; s_basis : int array }

let make ?(refactor_every = 48) ~goal ~obj ~lb ~ub ~rows () =
  let n = Array.length obj in
  let m = Array.length rows in
  let ncols = n + m in
  (* Row equilibration: big-M scheduling rows mix coefficients of 1 and
     ~1e5, which makes B^-1 rows tiny along some directions and forces
     the dual ratio test into microscopic pivots. Scale each row by the
     power of two bringing its largest coefficient into [0.5, 1) — exact
     in floating point, so the solved x and objective are bit-unaffected
     by everything except pivot order. The row's logical column keeps
     coefficient 1 (the slack simply lives in scaled row units). *)
  let row_scale =
    Array.map
      (fun (terms, _, _) ->
        let amax =
          List.fold_left (fun a (_, cf) -> Float.max a (Float.abs cf)) 0. terms
        in
        if amax > 0. then ldexp 1. (-snd (Float.frexp amax)) else 1.)
      rows
  in
  let buckets = Array.make n [] in
  Array.iteri
    (fun i (terms, _, _) ->
      List.iter
        (fun (v, cf) -> buckets.(v) <- (i, row_scale.(i) *. cf) :: buckets.(v))
        terms)
    rows;
  let col_idx = Array.make ncols [||] and col_val = Array.make ncols [||] in
  for j = 0 to n - 1 do
    let entries = List.rev buckets.(j) in
    col_idx.(j) <- Array.of_list (List.map fst entries);
    col_val.(j) <- Array.of_list (List.map snd entries)
  done;
  let lb_all = Array.make ncols 0. and ub_all = Array.make ncols 0. in
  Array.blit lb 0 lb_all 0 n;
  Array.blit ub 0 ub_all 0 n;
  let rhs_arr = Array.make m 0. in
  Array.iteri
    (fun i (_, sense, rhs) ->
      col_idx.(n + i) <- [| i |];
      col_val.(n + i) <- [| 1. |];
      rhs_arr.(i) <- row_scale.(i) *. rhs;
      match sense with
      | Lp.Le ->
        lb_all.(n + i) <- 0.;
        ub_all.(n + i) <- infinity
      | Lp.Ge ->
        lb_all.(n + i) <- neg_infinity;
        ub_all.(n + i) <- 0.
      | Lp.Eq ->
        lb_all.(n + i) <- 0.;
        ub_all.(n + i) <- 0.)
    rows;
  let sign = match goal with Lp.Minimize -> 1. | Lp.Maximize -> -1. in
  let c = Array.make ncols 0. in
  for j = 0 to n - 1 do
    if not (Float.is_finite lb.(j)) then
      invalid_arg "Revised: variables must have a finite lower bound";
    c.(j) <- sign *. obj.(j)
  done;
  {
    n;
    m;
    ncols;
    col_idx;
    col_val;
    c;
    obj_sign = sign;
    rhs = rhs_arr;
    lb = lb_all;
    ub = ub_all;
    status = Array.make ncols At_lower;
    basis = Array.init m (fun i -> n + i);
    x = Array.make ncols 0.;
    fac = Basis.create ~refactor_every m;
    y = Array.make m 0.;
    w = Array.make m 0.;
    rho = Array.make m 0.;
    pcost = Array.make ncols 0.;
    infeas = 0.;
    pivots = 0;
    last_pivots = 0;
    factored = false;
  }

let of_model model =
  make ~goal:(Lp.objective model) ~obj:(Lp.obj_coeffs model)
    ~lb:(Lp.lb_array model) ~ub:(Lp.ub_array model) ~rows:(Lp.rows model) ()

let set_bounds t ~lb ~ub =
  if Array.length lb <> t.n || Array.length ub <> t.n then
    invalid_arg "Revised.set_bounds: length mismatch";
  Array.blit lb 0 t.lb 0 t.n;
  Array.blit ub 0 t.ub 0 t.n

let save_basis t =
  { s_status = Array.copy t.status; s_basis = Array.copy t.basis }

let last_pivots t = t.last_pivots

(* ------------------------------------------------------------------ *)
(* Linear algebra plumbing                                             *)

let refactor t =
  Basis.refactor t.fac ~column:(fun k ->
      let j = t.basis.(k) in
      (t.col_idx.(j), t.col_val.(j)));
  t.factored <- true

(* Nonbasic variables to their bounds, basic values by FTRAN. *)
let compute_primal t =
  for j = 0 to t.ncols - 1 do
    match t.status.(j) with
    | Basic -> ()
    | At_lower ->
      t.x.(j) <- (if Float.is_finite t.lb.(j) then t.lb.(j) else t.ub.(j))
    | At_upper ->
      t.x.(j) <- (if Float.is_finite t.ub.(j) then t.ub.(j) else t.lb.(j))
  done;
  Array.blit t.rhs 0 t.w 0 t.m;
  for j = 0 to t.ncols - 1 do
    if t.status.(j) <> Basic && t.x.(j) <> 0. then begin
      let idx = t.col_idx.(j) and v = t.col_val.(j) in
      let xj = t.x.(j) in
      Array.iteri (fun p r -> t.w.(r) <- t.w.(r) -. (v.(p) *. xj)) idx
    end
  done;
  Basis.ftran t.fac t.w;
  for pos = 0 to t.m - 1 do
    t.x.(t.basis.(pos)) <- t.w.(pos)
  done

let load_basis t { s_status; s_basis } =
  Array.blit s_status 0 t.status 0 t.ncols;
  Array.blit s_basis 0 t.basis 0 t.m;
  match refactor t with
  | () ->
    compute_primal t;
    true
  | exception Basis.Singular -> false

(* y = B^-T c_B, indexed by original row. *)
let prices t costs =
  for pos = 0 to t.m - 1 do
    t.y.(pos) <- costs.(t.basis.(pos))
  done;
  Basis.btran t.fac t.y

let col_dot t j v =
  let idx = t.col_idx.(j) and cv = t.col_val.(j) in
  let acc = ref 0. in
  Array.iteri (fun p r -> acc := !acc +. (cv.(p) *. v.(r))) idx;
  !acc

let fetch_column t j =
  Array.fill t.w 0 t.m 0.;
  let idx = t.col_idx.(j) and v = t.col_val.(j) in
  Array.iteri (fun p r -> t.w.(r) <- v.(p)) idx;
  Basis.ftran t.fac t.w

let fixed t j = t.ub.(j) -. t.lb.(j) < 1e-12

let objective_value t =
  let acc = ref 0. in
  for j = 0 to t.n - 1 do
    acc := !acc +. (t.c.(j) *. t.x.(j))
  done;
  !acc

(* Total violation of the true bounds by the basic variables, and the
   composite phase-1 cost row (+1 above ub, -1 below lb). *)
let refresh_pcost t =
  Array.fill t.pcost 0 t.ncols 0.;
  let infeas = ref 0. in
  for pos = 0 to t.m - 1 do
    let k = t.basis.(pos) in
    let xb = t.x.(k) in
    if xb < t.lb.(k) -. feas_tol then begin
      t.pcost.(k) <- -1.;
      infeas := !infeas +. (t.lb.(k) -. xb)
    end
    else if xb > t.ub.(k) +. feas_tol then begin
      t.pcost.(k) <- 1.;
      infeas := !infeas +. (xb -. t.ub.(k))
    end
  done;
  t.infeas <- !infeas

(* ------------------------------------------------------------------ *)
(* Primal iterations (phases 1 and 2)                                  *)

(* Entering column: Dantzig (largest reduced-cost violation, ties to the
   smallest index) or Bland (first violating index) while stalling. *)
let choose_entering t costs ~bland =
  let best = ref (-1) and best_score = ref dual_tol in
  (try
     for j = 0 to t.ncols - 1 do
       if t.status.(j) <> Basic && not (fixed t j) then begin
         let d = costs.(j) -. col_dot t j t.y in
         let score =
           match t.status.(j) with
           | At_lower -> if d < -.dual_tol then -.d else 0.
           | At_upper -> if d > dual_tol then d else 0.
           | Basic -> 0.
         in
         if score > 0. then
           if bland then begin
             best := j;
             raise Exit
           end
           else if score > !best_score then begin
             best := j;
             best_score := score
           end
       end
     done
   with Exit -> ());
  !best

(* Bounded-variable ratio test. [dir] is the entering variable's motion
   (+1 from At_lower, -1 from At_upper); basic position [pos] moves by
   [-dir * w.(pos)] per unit step. In phase 1, an infeasible basic
   moving toward its violated bound blocks there (where its composite
   cost flips to zero) and is unblocked on its relaxed side. Returns
   [Some (step, leaving_pos, bound)] with [leaving_pos = -1] for a bound
   flip of the entering variable, or [None] when unbounded. *)
let ratio_test t ~dir ~phase1 q ~bland =
  let limit = ref (t.ub.(q) -. t.lb.(q)) in
  let leaving = ref (-1) and leave_bound = ref nan and leave_w = ref 0. in
  for pos = 0 to t.m - 1 do
    let wi = t.w.(pos) in
    if Float.abs wi > pivot_tol then begin
      let delta = -.dir *. wi in
      let k = t.basis.(pos) in
      let xb = t.x.(k) in
      let bound =
        if phase1 then
          if delta > 0. then
            if xb < t.lb.(k) -. feas_tol then t.lb.(k)
            else if xb <= t.ub.(k) +. feas_tol then t.ub.(k)
            else infinity
          else if xb > t.ub.(k) +. feas_tol then t.ub.(k)
          else if xb >= t.lb.(k) -. feas_tol then t.lb.(k)
          else neg_infinity
        else if delta > 0. then t.ub.(k)
        else t.lb.(k)
      in
      if Float.is_finite bound then begin
        let step = Float.max 0. ((bound -. xb) /. delta) in
        let better =
          step < !limit -. ratio_tol
          || (step < !limit +. ratio_tol
             && !leaving >= 0
             &&
             if bland then k < t.basis.(!leaving)
             else Float.abs wi > Float.abs !leave_w)
        in
        if better then begin
          limit := step;
          leaving := pos;
          leave_bound := bound;
          leave_w := wi
        end
      end
    end
  done;
  if Float.is_finite !limit then Some (!limit, !leaving, !leave_bound)
  else None

let leave_status t k bound =
  if Float.is_finite t.lb.(k) && Float.abs (bound -. t.lb.(k)) <= feas_tol
  then At_lower
  else At_upper

let apply_primal_step t ~q ~dir ~step ~leaving ~leave_bound =
  for pos = 0 to t.m - 1 do
    let k = t.basis.(pos) in
    t.x.(k) <- t.x.(k) -. (dir *. step *. t.w.(pos))
  done;
  if leaving < 0 then begin
    (* Bound flip: no basis change. *)
    t.x.(q) <- (if dir > 0. then t.ub.(q) else t.lb.(q));
    t.status.(q) <- (if dir > 0. then At_upper else At_lower);
    false
  end
  else begin
    t.x.(q) <- t.x.(q) +. (dir *. step);
    let out = t.basis.(leaving) in
    t.x.(out) <- leave_bound;
    t.status.(out) <- leave_status t out leave_bound;
    t.basis.(leaving) <- q;
    t.status.(q) <- Basic;
    t.pivots <- t.pivots + 1;
    Basis.update t.fac ~row:leaving ~w:t.w
  end

let iteration_cap t = 2000 + (64 * (t.m + t.ncols))

let primal t ~phase1 ~deadline =
  let cap = iteration_cap t in
  let iter = ref 0 in
  let bland = ref false and stall = ref 0 and last = ref infinity in
  let result = ref None in
  while !result = None do
    incr iter;
    if !iter > cap then result := Some `Limit
    else if !iter land 31 = 0 && Unix.gettimeofday () > deadline then
      result := Some `Limit
    else begin
      if phase1 then refresh_pcost t;
      if phase1 && t.infeas <= feas_tol then result := Some `Feasible
      else begin
        let measure = if phase1 then t.infeas else objective_value t in
        if measure < !last -. 1e-12 then begin
          stall := 0;
          last := measure;
          bland := false
        end
        else begin
          incr stall;
          if !stall > (2 * t.m) + 32 then bland := true
        end;
        let costs = if phase1 then t.pcost else t.c in
        prices t costs;
        match choose_entering t costs ~bland:!bland with
        | -1 ->
          result :=
            Some
              (if not phase1 then `Optimal
               else if t.infeas <= feas_tol then `Feasible
               else `Infeasible)
        | q ->
          let dir = match t.status.(q) with At_upper -> -1. | _ -> 1. in
          fetch_column t q;
          (match ratio_test t ~dir ~phase1 q ~bland:!bland with
          | None ->
            (* A genuinely unbounded phase-1 ray cannot decrease the
               infeasibility forever; treat it as numerical trouble. *)
            result := Some (if phase1 then `Limit else `Unbounded)
          | Some (step, leaving, leave_bound) ->
            if apply_primal_step t ~q ~dir ~step ~leaving ~leave_bound
            then begin
              match refactor t with
              | () -> compute_primal t
              | exception Basis.Singular -> result := Some `Limit
            end)
      end
    end
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Dual iterations (warm starts)                                       *)

(* Warm starts only: restore primal feasibility from a dual-feasible
   basis. Capped well below the primal's budget — a warm start that
   needs thousands of pivots is not a warm start, and the caller falls
   back to {!solve_fresh} on [`Limit]. *)
let dual_iteration_cap t = 100 + (4 * t.m)

let dual t ~deadline =
  let cap = dual_iteration_cap t in
  let iter = ref 0 and bland = ref false and stall = ref 0 in
  let last = ref infinity in
  let viol0 = ref infinity in
  let result = ref None in
  while !result = None do
    incr iter;
    if !iter > cap then result := Some `Limit
    else if !iter land 31 = 0 && Unix.gettimeofday () > deadline then
      result := Some `Limit
    else begin
      (* Leaving: the basic variable most outside its bounds. *)
      let r = ref (-1) and viol = ref feas_tol and total = ref 0. in
      for pos = 0 to t.m - 1 do
        let k = t.basis.(pos) in
        let v =
          if t.x.(k) > t.ub.(k) then t.x.(k) -. t.ub.(k)
          else if t.x.(k) < t.lb.(k) then t.lb.(k) -. t.x.(k)
          else 0.
        in
        total := !total +. v;
        if
          v > !viol
          || (!bland && v > feas_tol && (!r = -1 || t.basis.(pos) < t.basis.(!r)))
        then begin
          r := pos;
          viol := v
        end
      done;
      if !viol0 = infinity then viol0 := !total;
      if !r = -1 then result := Some `Optimal
      else if !total > 100. *. (!viol0 +. 1.) then
        (* The iterate is drifting away from feasibility instead of
           toward it (ill-conditioned pivots); a fresh two-phase solve
           is cheaper than riding this out. *)
        result := Some `Limit
      else begin
        if !viol < !last -. 1e-12 then begin
          stall := 0;
          last := !viol
        end
        else begin
          incr stall;
          if !stall > (2 * t.m) + 32 then bland := true
        end;
        let pos = !r in
        let out = t.basis.(pos) in
        let above = t.x.(out) > t.ub.(out) in
        (* rho = B^-T e_pos; alpha_j = rho . A_j. *)
        Array.fill t.rho 0 t.m 0.;
        t.rho.(pos) <- 1.;
        Basis.btran t.fac t.rho;
        prices t t.c;
        (* Sign-eligible columns and their dual ratios. [above] means the
           leaving variable exits at its upper bound (d'_out <= 0), so
           the dual step d_q / alpha_q must be >= 0 for the listed
           status/alpha sign combinations; symmetric below. *)
        let ratio_of j =
          if t.status.(j) = Basic || fixed t j then None
          else
            let alpha = col_dot t j t.rho in
            if Float.abs alpha <= pivot_tol then None
            else
              let ok =
                match (t.status.(j), above) with
                | At_lower, true -> alpha > 0.
                | At_upper, true -> alpha < 0.
                | At_lower, false -> alpha < 0.
                | At_upper, false -> alpha > 0.
                | Basic, _ -> false
              in
              if not ok then None
              else
                let d = t.c.(j) -. col_dot t j t.y in
                let ratio = if above then d /. alpha else -.(d /. alpha) in
                Some (alpha, Float.max 0. ratio)
        in
        (* Pass 1: the textbook minimum ratio. *)
        let theta = ref infinity in
        for j = 0 to t.ncols - 1 do
          match ratio_of j with
          | Some (_, ratio) -> if ratio < !theta then theta := ratio
          | None -> ()
        done;
        if !theta = infinity then result := Some `Infeasible
        else begin
          (* Pass 2 (Harris-style): any column within a dual-feasibility
             tolerance of the minimum ratio is an acceptable entering
             candidate; among those take the largest |alpha| — a
             microscopic pivot element turns a sub-unit bound violation
             into a 1e4-unit step that throws dozens of basics out of
             their bounds. Under Bland's rule take the smallest index. *)
          let window = !theta +. dual_tol in
          let q = ref (-1) and best_alpha = ref 0. in
          (try
             for j = 0 to t.ncols - 1 do
               match ratio_of j with
               | Some (alpha, ratio) when ratio <= window ->
                 if !bland then begin
                   q := j;
                   raise Exit
                 end
                 else if Float.abs alpha > Float.abs !best_alpha then begin
                   q := j;
                   best_alpha := alpha
                 end
               | _ -> ()
             done
           with Exit -> ());
          let q = !q in
          fetch_column t q;
          if Float.abs t.w.(pos) < pivot_tol then
            (* Disagreement between rho-pricing and the FTRAN column:
               refactorize and retry this iteration. *)
            if Basis.eta_count t.fac = 0 then result := Some `Limit
            else begin
              match refactor t with
              | () -> compute_primal t
              | exception Basis.Singular -> result := Some `Limit
            end
          else begin
            let target = if above then t.ub.(out) else t.lb.(out) in
            let delta = (t.x.(out) -. target) /. t.w.(pos) in
            for p = 0 to t.m - 1 do
              let k = t.basis.(p) in
              t.x.(k) <- t.x.(k) -. (delta *. t.w.(p))
            done;
            t.x.(q) <- t.x.(q) +. delta;
            t.x.(out) <- target;
            t.status.(out) <- leave_status t out target;
            t.basis.(pos) <- q;
            t.status.(q) <- Basic;
            t.pivots <- t.pivots + 1;
            if Basis.update t.fac ~row:pos ~w:t.w then begin
              match refactor t with
              | () -> compute_primal t
              | exception Basis.Singular -> result := Some `Limit
            end
          end
        end
      end
    end
  done;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Solves                                                              *)

let optimal t =
  let values = Array.sub t.x 0 t.n in
  Optimal { objective = t.obj_sign *. objective_value t; values }

let bad_box t =
  let bad = ref false in
  for j = 0 to t.n - 1 do
    if t.lb.(j) > t.ub.(j) +. 1e-9 then bad := true
  done;
  !bad

let solve_fresh ?(deadline = infinity) t =
  let p0 = t.pivots in
  let result =
    if bad_box t then Infeasible
    else begin
      for j = 0 to t.n - 1 do
        t.status.(j) <- At_lower
      done;
      for i = 0 to t.m - 1 do
        t.basis.(i) <- t.n + i;
        t.status.(t.n + i) <- Basic
      done;
      match refactor t with
      | exception Basis.Singular -> Limit (* cannot happen: B = I *)
      | () -> (
        compute_primal t;
        refresh_pcost t;
        let feasible =
          if t.infeas <= feas_tol then `Feasible
          else primal t ~phase1:true ~deadline
        in
        match feasible with
        | `Infeasible -> Infeasible
        | `Limit | `Unbounded | `Optimal -> Limit
        | `Feasible -> (
          match primal t ~phase1:false ~deadline with
          | `Optimal -> optimal t
          | `Unbounded -> Unbounded
          | `Limit | `Feasible | `Infeasible -> Limit))
    end
  in
  t.last_pivots <- t.pivots - p0;
  result

(* Re-solve after a bound change, from the current basis: the basis is
   still dual feasible, so dual pivots restore primal feasibility. A
   final (usually zero-iteration) primal phase 2 certifies optimality
   independently of the warm start's dual-feasibility assumption. *)
let solve_warm ?(deadline = infinity) t =
  if not t.factored then solve_fresh ~deadline t
  else if bad_box t then Infeasible
  else begin
    let p0 = t.pivots in
    compute_primal t;
    match dual t ~deadline with
    | `Infeasible ->
      t.last_pivots <- t.pivots - p0;
      Infeasible
    | `Limit ->
      t.last_pivots <- t.pivots - p0;
      solve_fresh ~deadline t
    | `Optimal -> (
      match primal t ~phase1:false ~deadline with
      | `Optimal ->
        t.last_pivots <- t.pivots - p0;
        optimal t
      | `Unbounded ->
        t.last_pivots <- t.pivots - p0;
        Unbounded
      | `Limit | `Feasible | `Infeasible ->
        t.last_pivots <- t.pivots - p0;
        solve_fresh ~deadline t)
  end

(* ------------------------------------------------------------------ *)
(* One-shot entry points                                               *)

let solve model = solve_fresh (of_model model)
