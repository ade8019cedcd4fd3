(* Tests for the LP/MILP substrate: known optima, degenerate cases and
   randomized properties that cross-check the simplex against certificates
   of feasibility. Every LP case runs on the production revised simplex
   and on the dense-tableau oracle. *)

module Lp = Resched_milp.Lp
module Revised = Resched_milp.Revised
module Branch_bound = Resched_milp.Branch_bound
module Rng = Resched_util.Rng

let check_float = Alcotest.(check (float 1e-6))

let lp_solvers =
  [ ("revised", Revised.solve); ("tableau", Milp_oracle.Simplex.solve) ]

(* Run an LP case once per solver; [check] prefixes its messages with
   the solver's name. *)
let on_each_solver case () =
  List.iter
    (fun (name, solve) ->
      let check what = check_float (name ^ ": " ^ what) in
      case ~check solve)
    lp_solvers

let opt_exn = function
  | Revised.Optimal s -> s
  | Revised.Infeasible -> Alcotest.fail "expected Optimal, got Infeasible"
  | Revised.Unbounded -> Alcotest.fail "expected Optimal, got Unbounded"
  | Revised.Limit -> Alcotest.fail "expected Optimal, got Limit"

(* maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
   The classic Dantzig example. *)
let test_lp_textbook ~check solve =
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~obj:3. () in
  let y = Lp.add_var m ~obj:5. () in
  Lp.add_constraint m [ (x, 1.) ] Lp.Le 4.;
  Lp.add_constraint m [ (y, 2.) ] Lp.Le 12.;
  Lp.add_constraint m [ (x, 3.); (y, 2.) ] Lp.Le 18.;
  let s = opt_exn (solve m) in
  check "objective" 36. s.objective;
  check "x" 2. s.values.(0);
  check "y" 6. s.values.(1)

(* minimize 2x + 3y s.t. x + y >= 10, x - y <= 2, x,y >= 0.
   Optimum: push y as low as allowed: x - y <= 2 and x + y = 10 ->
   x = 6, y = 4 gives 24; check against x=0,y=10 -> 30. *)
let test_lp_min_with_ge ~check solve =
  let m = Lp.create () in
  let x = Lp.add_var m ~obj:2. () in
  let y = Lp.add_var m ~obj:3. () in
  Lp.add_constraint m [ (x, 1.); (y, 1.) ] Lp.Ge 10.;
  Lp.add_constraint m [ (x, 1.); (y, -1.) ] Lp.Le 2.;
  let s = opt_exn (solve m) in
  check "objective" 24. s.objective;
  check "x" 6. s.values.(0);
  check "y" 4. s.values.(1)

let test_lp_equality_and_bounds ~check solve =
  (* minimize x + 2y s.t. x + y = 5, 1 <= x <= 3 -> x = 3, y = 2, obj 7. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~lb:1. ~ub:3. ~obj:1. () in
  let y = Lp.add_var m ~obj:2. () in
  Lp.add_constraint m [ (x, 1.); (y, 1.) ] Lp.Eq 5.;
  let s = opt_exn (solve m) in
  check "objective" 7. s.objective;
  check "x" 3. s.values.(0);
  check "y" 2. s.values.(1)

let test_lp_infeasible ~check:_ solve =
  let m = Lp.create () in
  let x = Lp.add_var m ~obj:1. () in
  Lp.add_constraint m [ (x, 1.) ] Lp.Le 1.;
  Lp.add_constraint m [ (x, 1.) ] Lp.Ge 2.;
  match solve m with
  | Revised.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_lp_unbounded ~check:_ solve =
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~obj:1. () in
  let y = Lp.add_var m ~obj:0. () in
  Lp.add_constraint m [ (x, 1.); (y, -1.) ] Lp.Le 3.;
  match solve m with
  | Revised.Unbounded -> ()
  | Revised.Optimal s -> Alcotest.failf "expected Unbounded, got %g" s.objective
  | Revised.Infeasible -> Alcotest.fail "expected Unbounded, got Infeasible"
  | Revised.Limit -> Alcotest.fail "expected Unbounded, got Limit"

let test_lp_degenerate ~check solve =
  (* A degenerate vertex (redundant constraint through the optimum) must
     not cycle thanks to Bland's rule. maximize x + y s.t. x <= 2, y <= 2,
     x + y <= 4 (redundant at optimum) -> 4. *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~obj:1. () in
  let y = Lp.add_var m ~obj:1. () in
  Lp.add_constraint m [ (x, 1.) ] Lp.Le 2.;
  Lp.add_constraint m [ (y, 1.) ] Lp.Le 2.;
  Lp.add_constraint m [ (x, 1.); (y, 1.) ] Lp.Le 4.;
  let s = opt_exn (solve m) in
  check "objective" 4. s.objective

let test_lp_negative_rhs ~check solve =
  (* minimize x s.t. -x <= -3  (i.e. x >= 3) -> 3. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~obj:1. () in
  Lp.add_constraint m [ (x, -1.) ] Lp.Le (-3.);
  let s = opt_exn (solve m) in
  check "objective" 3. s.objective

let test_lp_duplicate_terms ~check solve =
  (* Terms on the same variable must be combined: x + x <= 4 -> x <= 2. *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~obj:1. () in
  Lp.add_constraint m [ (x, 1.); (x, 1.) ] Lp.Le 4.;
  let s = opt_exn (solve m) in
  check "objective" 2. s.objective

let bb_opt_exn = function
  | Branch_bound.Optimal s -> s
  | Branch_bound.Feasible _ -> Alcotest.fail "hit node limit"
  | Branch_bound.Infeasible -> Alcotest.fail "expected Optimal, got Infeasible"
  | Branch_bound.Unbounded -> Alcotest.fail "expected Optimal, got Unbounded"
  | Branch_bound.Node_limit -> Alcotest.fail "expected Optimal, got Node_limit"

(* Knapsack: values 10,13,7,8; weights 5,6,4,3; capacity 10.
   Best: items 2 and 4 -> value 21 (w 9); check 1+4=18, 3+4=15, 1+3=17. *)
let test_milp_knapsack () =
  let m = Lp.create ~objective:Lp.Maximize () in
  let values = [| 10.; 13.; 7.; 8. |] in
  let weights = [| 5.; 6.; 4.; 3. |] in
  let xs = Array.map (fun v -> Lp.add_binary m ~obj:v ()) values in
  Lp.add_constraint m
    (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs))
    Lp.Le 10.;
  let s = bb_opt_exn (Branch_bound.solve m) in
  check_float "objective" 21. s.objective;
  check_float "x1" 1. s.values.(1);
  check_float "x3" 1. s.values.(3)

let test_milp_integer_rounding_matters () =
  (* maximize x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5). *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let x = Lp.add_var m ~ub:10. ~integer:true ~obj:1. () in
  Lp.add_constraint m [ (x, 2.) ] Lp.Le 7.;
  let s = bb_opt_exn (Branch_bound.solve m) in
  check_float "objective" 3. s.objective

let test_milp_infeasible_integer () =
  (* 0.4 <= x <= 0.6, x integer: LP feasible, MILP infeasible. *)
  let m = Lp.create () in
  let _ = Lp.add_var m ~lb:0.4 ~ub:0.6 ~integer:true ~obj:1. () in
  match Branch_bound.solve m with
  | Branch_bound.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_milp_mixed () =
  (* minimize y - x with x integer, y continuous:
     y >= 0.5 x, x <= 4.3 (x integer -> x <= 4), y free-ish up to 100.
     Optimal: x = 4, y = 2 -> -2. *)
  let m = Lp.create () in
  let x = Lp.add_var m ~ub:4.3 ~integer:true ~obj:(-1.) () in
  let y = Lp.add_var m ~ub:100. ~obj:1. () in
  Lp.add_constraint m [ (y, 1.); (x, -0.5) ] Lp.Ge 0.;
  let s = bb_opt_exn (Branch_bound.solve m) in
  check_float "objective" (-2.) s.objective;
  check_float "x" 4. s.values.(0);
  check_float "y" 2. s.values.(1)

let test_milp_time_limit () =
  (* A hard knapsack-style model with a microscopic time budget must
     come back quickly and never claim optimality. *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let rng = Rng.create 99 in
  let xs = List.init 24 (fun _ -> Lp.add_binary m ~obj:(Rng.float rng 10.) ()) in
  Lp.add_constraint m
    (List.map (fun x -> (x, 1. +. Rng.float rng 5.)) xs)
    Lp.Le 30.;
  let t0 = Unix.gettimeofday () in
  let r = Branch_bound.solve ~time_limit:0.05 m in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returned promptly" true (dt < 5.);
  match r with
  | Branch_bound.Optimal s ->
    (* Finishing under the budget is fine, but optimality must be real:
       proved flag set. *)
    Alcotest.(check bool) "proved" true s.Branch_bound.proved_optimal
  | Branch_bound.Feasible s ->
    Alcotest.(check bool) "not proved" false s.Branch_bound.proved_optimal
  | Branch_bound.Node_limit -> ()
  | Branch_bound.Infeasible -> Alcotest.fail "spurious Infeasible"
  | Branch_bound.Unbounded -> Alcotest.fail "spurious Unbounded"

let test_milp_node_limit () =
  (* A tiny limit must report Node_limit or Feasible, never crash. *)
  let m = Lp.create ~objective:Lp.Maximize () in
  let xs = List.init 12 (fun _ -> Lp.add_binary m ~obj:1. ()) in
  Lp.add_constraint m (List.map (fun x -> (x, 2.)) xs) Lp.Le 11.;
  match Branch_bound.solve ~node_limit:2 m with
  | Branch_bound.Node_limit | Branch_bound.Feasible _ | Branch_bound.Optimal _
    -> ()
  | Branch_bound.Infeasible -> Alcotest.fail "spurious Infeasible"
  | Branch_bound.Unbounded -> Alcotest.fail "spurious Unbounded"

(* Property: for random LPs constructed around a known feasible point x0
   with constraints a.x <= a.x0 + slack, each simplex (a) declares
   feasibility and (b) returns an objective no worse than c.x0. *)
let prop_simplex_beats_witness =
  QCheck.Test.make ~count:200 ~name:"simplex objective beats witness point"
    QCheck.(pair int (int_range 1 6))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let x0 = Array.init n (fun _ -> Rng.float rng 10.) in
      let m = Lp.create () in
      let xs =
        Array.init n (fun _ -> Lp.add_var m ~obj:(Rng.float rng 4. -. 2.) ())
      in
      for _ = 1 to 2 * n do
        let coeffs = Array.init n (fun _ -> Rng.float rng 4. -. 2.) in
        let lhs_at_x0 = ref 0. in
        Array.iteri (fun i c -> lhs_at_x0 := !lhs_at_x0 +. (c *. x0.(i))) coeffs;
        Lp.add_constraint m
          (Array.to_list (Array.mapi (fun i x -> (x, coeffs.(i))) xs))
          Lp.Le
          (!lhs_at_x0 +. Rng.float rng 5.)
      done;
      (* Bound the box so the LP cannot be unbounded. *)
      Array.iter (fun x -> Lp.add_constraint m [ (x, 1.) ] Lp.Le 50.) xs;
      let witness_obj =
        let c = Lp.obj_coeffs m in
        let acc = ref 0. in
        Array.iteri (fun i v -> acc := !acc +. (c.(i) *. v)) x0;
        !acc
      in
      List.for_all
        (fun (_, solve) ->
          match solve m with
          | Revised.Optimal s -> s.objective <= witness_obj +. 1e-6
          | Revised.Infeasible | Revised.Unbounded | Revised.Limit -> false)
        lp_solvers)

(* Property: branch-and-bound on pure binary knapsacks matches a
   brute-force enumeration. *)
let prop_bb_matches_bruteforce =
  QCheck.Test.make ~count:60 ~name:"branch&bound matches brute force"
    QCheck.(pair int (int_range 1 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed lxor 0x5f5f) in
      let values = Array.init n (fun _ -> float_of_int (Rng.int_in rng 1 30)) in
      let weights = Array.init n (fun _ -> float_of_int (Rng.int_in rng 1 12)) in
      let cap = float_of_int (Rng.int_in rng 5 40) in
      let m = Lp.create ~objective:Lp.Maximize () in
      let xs = Array.map (fun v -> Lp.add_binary m ~obj:v ()) values in
      Lp.add_constraint m
        (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) xs))
        Lp.Le cap;
      let best = ref 0. in
      for mask = 0 to (1 lsl n) - 1 do
        let v = ref 0. and w = ref 0. in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then begin
            v := !v +. values.(i);
            w := !w +. weights.(i)
          end
        done;
        if !w <= cap && !v > !best then best := !v
      done;
      match Branch_bound.solve m with
      | Branch_bound.Optimal s -> Float.abs (s.objective -. !best) < 1e-6
      | _ -> false)

let () =
  Alcotest.run "milp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook maximize" `Quick
            (on_each_solver test_lp_textbook);
          Alcotest.test_case "minimize with >=" `Quick
            (on_each_solver test_lp_min_with_ge);
          Alcotest.test_case "equality and var bounds" `Quick
            (on_each_solver test_lp_equality_and_bounds);
          Alcotest.test_case "infeasible" `Quick
            (on_each_solver test_lp_infeasible);
          Alcotest.test_case "unbounded" `Quick
            (on_each_solver test_lp_unbounded);
          Alcotest.test_case "degenerate no-cycle" `Quick
            (on_each_solver test_lp_degenerate);
          Alcotest.test_case "negative rhs" `Quick
            (on_each_solver test_lp_negative_rhs);
          Alcotest.test_case "duplicate terms combined" `Quick
            (on_each_solver test_lp_duplicate_terms);
        ] );
      ( "branch-bound",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "integer rounding" `Quick
            test_milp_integer_rounding_matters;
          Alcotest.test_case "integer infeasible" `Quick
            test_milp_infeasible_integer;
          Alcotest.test_case "mixed integer" `Quick test_milp_mixed;
          Alcotest.test_case "node limit" `Quick test_milp_node_limit;
          Alcotest.test_case "time limit" `Quick test_milp_time_limit;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_simplex_beats_witness;
          QCheck_alcotest.to_alcotest prop_bb_matches_bruteforce;
        ] );
    ]
