(* Tests for the revised-simplex engine: the dense tableau of the
   oracle library [milp_oracle] acts as the oracle on randomized bounded
   LPs and MILPs, plus unit tests for the mechanisms the tableau does
   not have — bound flips in the ratio test, LU refactorization after
   eta-file growth, and dual warm starts after a single bound change. *)

module Lp = Resched_milp.Lp
module Simplex = Milp_oracle.Simplex
module Tableau = Milp_oracle.Tableau
module Revised = Resched_milp.Revised
module Basis = Resched_milp.Basis
module Branch_bound = Resched_milp.Branch_bound
module Rng = Resched_util.Rng

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Random model generation (shared by the equivalence properties)      *)

let random_model rng ~nvars ~nrows ~integer_vars =
  let maximize = Rng.int_in rng 0 1 = 1 in
  let m =
    Lp.create ~objective:(if maximize then Lp.Maximize else Lp.Minimize) ()
  in
  let vars =
    Array.init nvars (fun _ ->
        let lb = float_of_int (Rng.int_in rng 0 3) in
        let ub = lb +. float_of_int (Rng.int_in rng 1 8) in
        Lp.add_var m ~lb ~ub ~integer:(integer_vars && Rng.int_in rng 0 2 > 0)
          ~obj:(float_of_int (Rng.int_in rng (-10) 10))
          ())
  in
  for _ = 1 to nrows do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Rng.int_in rng 0 99 < 70 then
               Some (v, float_of_int (Rng.int_in rng (-5) 5))
             else None)
    in
    if terms <> [] then begin
      let sense =
        match Rng.int_in rng 0 2 with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq
      in
      Lp.add_constraint m terms sense (float_of_int (Rng.int_in rng (-10) 30))
    end
  done;
  m

(* Both engines must agree on the LP relaxation: same status, and equal
   objectives when Optimal. Bounded boxes rule out Unbounded. *)
let prop_lp_equivalence =
  QCheck.Test.make ~count:300 ~name:"revised = tableau on random bounded LPs"
    QCheck.(pair int (pair (int_range 1 8) (int_range 0 6)))
    (fun (seed, (nvars, nrows)) ->
      let rng = Rng.create (seed lxor 0x1ee7) in
      let m = random_model rng ~nvars ~nrows ~integer_vars:false in
      match (Simplex.solve m, Revised.solve m) with
      | Revised.Optimal a, Revised.Optimal b ->
        Float.abs (a.Revised.objective -. b.Revised.objective) < 1e-5
      | Revised.Infeasible, Revised.Infeasible -> true
      | _ -> false)

(* And on full MILPs through the branch-and-bound (same optimum; node
   counts may differ because branching rules differ). *)
let prop_milp_equivalence =
  QCheck.Test.make ~count:150 ~name:"revised = tableau on random MILPs"
    QCheck.(pair int (pair (int_range 1 7) (int_range 0 5)))
    (fun (seed, (nvars, nrows)) ->
      let rng = Rng.create (seed lxor 0xb0b0) in
      let m = random_model rng ~nvars ~nrows ~integer_vars:true in
      let tab = Tableau.solve ~node_limit:50_000 m in
      let rev = Branch_bound.solve ~node_limit:50_000 m in
      match (tab, rev) with
      | Branch_bound.Optimal a, Branch_bound.Optimal b ->
        Float.abs (a.Branch_bound.objective -. b.Branch_bound.objective)
        < 1e-5
      | Branch_bound.Infeasible, Branch_bound.Infeasible -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Bound flips                                                         *)

let test_bound_flip () =
  (* maximize x + 2y with x in [0,5], y in [0,3] and a slack constraint
     that never binds: the optimum is reached purely by flipping both
     variables to their upper bounds — no basis change, zero pivots. *)
  let t =
    Revised.make ~goal:Lp.Maximize ~obj:[| 1.; 2. |] ~lb:[| 0.; 0. |]
      ~ub:[| 5.; 3. |]
      ~rows:[| ([ (0, 1.); (1, 1.) ], Lp.Le, 100.) |]
      ()
  in
  (match Revised.solve_fresh t with
  | Revised.Optimal s ->
    check_float "flip objective" 11. s.Revised.objective;
    check_float "x at upper" 5. s.Revised.values.(0);
    check_float "y at upper" 3. s.Revised.values.(1)
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check int) "no pivots, only flips" 0 (Revised.last_pivots t)

let test_bound_flip_blocked () =
  (* maximize x, x in [0,10], x <= 4: the flip to ub = 10 is blocked by
     the slack leaving its bound first, so x enters the basis at 4. *)
  let t =
    Revised.make ~goal:Lp.Maximize ~obj:[| 1. |] ~lb:[| 0. |] ~ub:[| 10. |]
      ~rows:[| ([ (0, 1.) ], Lp.Le, 4.) |]
      ()
  in
  (match Revised.solve_fresh t with
  | Revised.Optimal s -> check_float "blocked at row" 4. s.Revised.objective
  | _ -> Alcotest.fail "expected Optimal");
  Alcotest.(check bool) "one real pivot" true (Revised.last_pivots t >= 1)

(* ------------------------------------------------------------------ *)
(* LU factorization and eta updates                                    *)

let test_basis_lu_roundtrip () =
  (* Factor a fixed 3x3 matrix and check FTRAN/BTRAN against solutions
     computed by hand:  B = [[2,1,0],[1,3,1],[0,1,4]]. *)
  let cols =
    [|
      ([| 0; 1 |], [| 2.; 1. |]);
      ([| 0; 1; 2 |], [| 1.; 3.; 1. |]);
      ([| 1; 2 |], [| 1.; 4. |]);
    |]
  in
  let b = Basis.create 3 in
  Basis.refactor b ~column:(fun k -> cols.(k));
  (* B x = [3;6;9]  ->  x = [1;1;2]. *)
  let rhs = [| 3.; 6.; 9. |] in
  Basis.ftran b rhs;
  check_float "x0" 1. rhs.(0);
  check_float "x1" 1. rhs.(1);
  check_float "x2" 2. rhs.(2);
  (* B^T y = [4;10;14] -> y = [1;2;3]. *)
  let c = [| 4.; 10.; 14. |] in
  Basis.btran b c;
  check_float "y0" 1. c.(0);
  check_float "y1" 2. c.(1);
  check_float "y2" 3. c.(2)

let test_basis_eta_and_refactor_request () =
  (* Replace basis position 1's column by a = [1;1;1] via an eta update
     and verify FTRAN now solves against the updated matrix; after
     [refactor_every] updates, [update] must request refactorization. *)
  let cols =
    [|
      ([| 0; 1 |], [| 2.; 1. |]);
      ([| 0; 1; 2 |], [| 1.; 3.; 1. |]);
      ([| 1; 2 |], [| 1.; 4. |]);
    |]
  in
  let b = Basis.create ~refactor_every:3 3 in
  Basis.refactor b ~column:(fun k -> cols.(k));
  let w = [| 1.; 1.; 1. |] in
  Basis.ftran b w;
  let req1 = Basis.update b ~row:1 ~w in
  Alcotest.(check bool) "first eta fits" false req1;
  Alcotest.(check int) "one eta" 1 (Basis.eta_count b);
  (* New B' = [[2,1,0],[1,1,1],[0,1,4]];  B' x = [3;3;5] -> x = [1;1;1]. *)
  let rhs = [| 3.; 3.; 5. |] in
  Basis.ftran b rhs;
  check_float "x0 after eta" 1. rhs.(0);
  check_float "x1 after eta" 1. rhs.(1);
  check_float "x2 after eta" 1. rhs.(2);
  (* And B'^T y = [3;3;5] -> y = [1;1;1]. *)
  let c = [| 3.; 3.; 5. |] in
  Basis.btran b c;
  check_float "y0 after eta" 1. c.(0);
  check_float "y1 after eta" 1. c.(1);
  check_float "y2 after eta" 1. c.(2);
  (* Two more (identity-ish) updates exhaust refactor_every = 3. *)
  let e2 = [| 0.; 1.; 0. |] in
  Basis.ftran b e2;
  let req2 = Basis.update b ~row:1 ~w:e2 in
  Alcotest.(check bool) "second eta fits" false req2;
  let e3 = [| 0.; 1.; 0. |] in
  Basis.ftran b e3;
  let req3 = Basis.update b ~row:1 ~w:e3 in
  Alcotest.(check bool) "third eta requests refactor" true req3

let test_solver_with_tiny_eta_file () =
  (* Forcing a refactor after every single pivot must not change any
     result: run a branching-heavy knapsack with refactor_every = 1 at
     the Revised.make level via of-model default vs tiny. *)
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let m = random_model rng ~nvars:6 ~nrows:4 ~integer_vars:false in
    let t1 = Revised.of_model m in
    let t2 =
      Revised.make ~refactor_every:1 ~goal:(Lp.objective m)
        ~obj:(Lp.obj_coeffs m) ~lb:(Lp.lb_array m) ~ub:(Lp.ub_array m)
        ~rows:(Lp.rows m) ()
    in
    match (Revised.solve_fresh t1, Revised.solve_fresh t2) with
    | Revised.Optimal a, Revised.Optimal b ->
      check_float "tiny eta file same optimum" a.Revised.objective
        b.Revised.objective
    | Revised.Infeasible, Revised.Infeasible -> ()
    | _ -> Alcotest.fail "status mismatch with refactor_every = 1"
  done

(* ------------------------------------------------------------------ *)
(* Dual warm start                                                     *)

let test_warm_start_single_bound_change () =
  (* Solve, tighten one bound (what a branch-and-bound child does), and
     re-solve warm: the result must equal a from-scratch solve and take
     only a few dual pivots, strictly fewer than the cold solve took. *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let xs =
    Array.init 8 (fun i ->
        Lp.add_var m
          ~lb:0. ~ub:4.
          ~obj:(float_of_int (3 + (i * 2 mod 7)))
          ())
  in
  Array.iteri
    (fun r _ ->
      if r < 5 then
        Lp.add_constraint m
          (Array.to_list
             (Array.mapi (fun i x -> (x, float_of_int (1 + ((i + r) mod 4)))) xs))
          Lp.Le
          (float_of_int (10 + (3 * r))))
    (Array.make 5 ());
  let t = Revised.of_model m in
  let cold =
    match Revised.solve_fresh t with
    | Revised.Optimal s -> s
    | _ -> Alcotest.fail "root solve failed"
  in
  let cold_pivots = Revised.last_pivots t in
  Alcotest.(check bool) "cold solve pivots" true (cold_pivots > 0);
  (* Child: x0 <= floor(x0_root) - style bound tightening. *)
  let lb = Lp.lb_array m and ub = Lp.ub_array m in
  ub.(0) <- Float.max lb.(0) (Float.floor (cold.Revised.values.(0) /. 2.));
  Revised.set_bounds t ~lb ~ub;
  let warm =
    match Revised.solve_warm t with
    | Revised.Optimal s -> s
    | _ -> Alcotest.fail "warm solve failed"
  in
  let warm_pivots = Revised.last_pivots t in
  (* Reference: fresh solve of the child model. *)
  let t2 = Revised.of_model m in
  Revised.set_bounds t2 ~lb ~ub;
  (match Revised.solve_fresh t2 with
  | Revised.Optimal s ->
    check_float "warm = fresh on child" s.Revised.objective
      warm.Revised.objective
  | _ -> Alcotest.fail "child fresh solve failed");
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) < cold pivots (%d)" warm_pivots
       cold_pivots)
    true
    (warm_pivots < cold_pivots)

let test_snapshot_roundtrip () =
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~lb:0. ~ub:7. ~obj:2. () in
  let y = Lp.add_var m ~lb:0. ~ub:7. ~obj:3. () in
  Lp.add_constraint m [ (x, 1.); (y, 2.) ] Lp.Le 10.;
  Lp.add_constraint m [ (x, 2.); (y, 1.) ] Lp.Le 11.;
  let t = Revised.of_model m in
  let obj0 =
    match Revised.solve_fresh t with
    | Revised.Optimal s -> s.Revised.objective
    | _ -> Alcotest.fail "solve failed"
  in
  let snap = Revised.save_basis t in
  (* Perturb the solver thoroughly, then restore and re-solve warm. *)
  let lb = Lp.lb_array m and ub = Lp.ub_array m in
  ub.(0) <- 1.;
  Revised.set_bounds t ~lb ~ub;
  ignore (Revised.solve_warm t);
  Revised.set_bounds t ~lb:(Lp.lb_array m) ~ub:(Lp.ub_array m);
  Alcotest.(check bool) "snapshot loads" true (Revised.load_basis t snap);
  match Revised.solve_warm t with
  | Revised.Optimal s -> check_float "restored optimum" obj0 s.Revised.objective
  | _ -> Alcotest.fail "restored solve failed"

(* ------------------------------------------------------------------ *)
(* Branch-and-bound determinism                                       *)

let hard_knapsack seed =
  let rng = Rng.create seed in
  let m = Lp.create ~objective:Lp.Maximize () in
  let vars =
    Array.init 12 (fun _ ->
        Lp.add_var m
          ~lb:0.
          ~ub:(float_of_int (Rng.int_in rng 1 4))
          ~integer:true
          ~obj:(float_of_int (Rng.int_in rng 3 20))
          ())
  in
  for _ = 1 to 5 do
    Lp.add_constraint m
      (Array.to_list
         (Array.map (fun v -> (v, float_of_int (Rng.int_in rng 1 9))) vars))
      Lp.Le
      (float_of_int (Rng.int_in rng 12 40))
  done;
  m

let solution_exn = function
  | Branch_bound.Optimal s -> s
  | _ -> Alcotest.fail "expected Optimal"

(* The production search and the tableau oracle, each with an optional
   time limit. *)
let searches =
  [ (fun time_limit m -> Branch_bound.solve ?time_limit m);
    (fun time_limit m -> Tableau.solve ?time_limit m) ]

let test_jobs1_determinism () =
  (* Two identical sequential runs must visit the same node count and
     produce the same incumbent, for both searches. *)
  List.iter
    (fun solve ->
      let m = hard_knapsack 4242 in
      let a = solution_exn (solve None m) in
      let b = solution_exn (solve None m) in
      Alcotest.(check int) "same node count" a.Branch_bound.nodes
        b.Branch_bound.nodes;
      check_float "same objective" a.Branch_bound.objective
        b.Branch_bound.objective;
      Array.iteri
        (fun i v -> check_float "same values" v b.Branch_bound.values.(i))
        a.Branch_bound.values)
    searches

let test_limit_not_infeasible () =
  (* A deadline in the past forces every LP to report Limit; the search
     must answer Node_limit/Feasible, never claim Infeasible (the bug
     this engine revision fixed: Iteration_limit used to masquerade as
     phase-1/phase-2 infeasibility and silently prune subtrees). *)
  List.iter
    (fun solve ->
      let m = hard_knapsack 7 in
      match solve (Some 1e-9) m with
      | Branch_bound.Infeasible -> Alcotest.fail "Limit leaked as Infeasible"
      | Branch_bound.Node_limit | Branch_bound.Feasible _
      | Branch_bound.Optimal _ | Branch_bound.Unbounded ->
        ())
    searches

let () =
  Alcotest.run "milp-revised"
    [
      ( "bound-flips",
        [
          Alcotest.test_case "pure flip optimum" `Quick test_bound_flip;
          Alcotest.test_case "blocked flip pivots" `Quick
            test_bound_flip_blocked;
        ] );
      ( "basis",
        [
          Alcotest.test_case "LU ftran/btran roundtrip" `Quick
            test_basis_lu_roundtrip;
          Alcotest.test_case "eta update + refactor request" `Quick
            test_basis_eta_and_refactor_request;
          Alcotest.test_case "refactor_every=1 solver" `Quick
            test_solver_with_tiny_eta_file;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "single bound change" `Quick
            test_warm_start_single_bound_change;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_snapshot_roundtrip;
        ] );
      ( "branch-bound",
        [
          Alcotest.test_case "jobs=1 deterministic" `Quick
            test_jobs1_determinism;
          Alcotest.test_case "Limit is not Infeasible" `Quick
            test_limit_not_infeasible;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_lp_equivalence;
          QCheck_alcotest.to_alcotest prop_milp_equivalence;
        ] );
    ]
