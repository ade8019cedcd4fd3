type solution = {
  objective : float;
  values : float array;
  proved_optimal : bool;
  nodes : int;
}

type result =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Unbounded
  | Node_limit

(* A relaxation value this close to an integer counts as integral. *)
let integrality_tolerance = 1e-6

(* Min-heap on LP bound (converted to minimization direction). Starts
   empty and grows lazily, so no placeholder element is ever needed. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key v =
    if h.size = Array.length h.data then begin
      let cap = Stdlib.max 16 (2 * h.size) in
      let bigger = Array.make cap (key, v) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (key, v);
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest = !i then continue_ := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done;
      Some top
    end
end

(* A search node stores only the bound it changed relative to its parent
   (plus the chain to the root), never full bound arrays: materializing
   on pop is O(depth), where the old copy-per-push was O(2n) per child.
   [snap] is the parent's optimal basis, shared by both children, so a
   popped node can warm-start even after a best-first jump across the
   tree. *)
type node = {
  nkey : float;  (* parent LP bound, minimization direction *)
  nvar : int;  (* branched variable; -1 for the root *)
  nlower : bool;  (* true: [nvalue] is a new lower bound (up branch) *)
  nvalue : float;
  ndist : float;  (* |parent relaxation value - new bound| *)
  nparent : node option;
  nsnap : Revised.snapshot option;
}

let root_node =
  {
    nkey = neg_infinity;
    nvar = -1;
    nlower = false;
    nvalue = 0.;
    ndist = 0.;
    nparent = None;
    nsnap = None;
  }

(* Fill [lb]/[ub] (preloaded with the base bounds) with the node's
   effective box. Deltas on the same variable only ever tighten, so
   max/min makes the child-to-root walk order-insensitive. *)
let materialize nd lb ub =
  let rec walk = function
    | None -> ()
    | Some n ->
      if n.nvar >= 0 then
        if n.nlower then lb.(n.nvar) <- Float.max lb.(n.nvar) n.nvalue
        else ub.(n.nvar) <- Float.min ub.(n.nvar) n.nvalue;
      walk n.nparent
  in
  walk (Some nd)

let make_children parent ~key ~var ~value snap =
  let floor_v = Float.floor value in
  let frac = value -. floor_v in
  let parent = Some parent in
  let down =
    {
      nkey = key;
      nvar = var;
      nlower = false;
      nvalue = floor_v;
      ndist = frac;
      nparent = parent;
      nsnap = snap;
    }
  and up =
    {
      nkey = key;
      nvar = var;
      nlower = true;
      nvalue = floor_v +. 1.;
      ndist = 1. -. frac;
      nparent = parent;
      nsnap = snap;
    }
  in
  (down, up)

(* ------------------------------------------------------------------ *)
(* Pseudo-costs                                                        *)

(* Per-variable average objective degradation per unit of bound motion,
   one account per direction. Seeded by strong branching at the root;
   thereafter every solved child updates its parent's branching
   variable. *)
type pseudo = {
  dsum : float array;
  dcnt : int array;
  usum : float array;
  ucnt : int array;
}

let pseudo_create n =
  {
    dsum = Array.make n 0.;
    dcnt = Array.make n 0;
    usum = Array.make n 0.;
    ucnt = Array.make n 0;
  }

let pseudo_update p nd child_key =
  if nd.nvar >= 0 && nd.ndist > 1e-9 && Float.is_finite nd.nkey then begin
    let unit = Float.max 0. (child_key -. nd.nkey) /. nd.ndist in
    if nd.nlower then begin
      p.usum.(nd.nvar) <- p.usum.(nd.nvar) +. unit;
      p.ucnt.(nd.nvar) <- p.ucnt.(nd.nvar) + 1
    end
    else begin
      p.dsum.(nd.nvar) <- p.dsum.(nd.nvar) +. unit;
      p.dcnt.(nd.nvar) <- p.dcnt.(nd.nvar) + 1
    end
  end

(* Product rule over the estimated down/up degradations; variables with
   no history use the average of the initialized ones. Returns -1 when
   the point is integral. When no account is initialized at all (e.g.
   strong branching disabled by a tiny node budget), falls back to the
   most fractional variable. *)
let choose_branch_pc ~integer pseudo values =
  let n = Array.length values in
  let tot_d = ref 0. and ntot_d = ref 0 in
  let tot_u = ref 0. and ntot_u = ref 0 in
  for i = 0 to n - 1 do
    if pseudo.dcnt.(i) > 0 then begin
      tot_d := !tot_d +. (pseudo.dsum.(i) /. float_of_int pseudo.dcnt.(i));
      incr ntot_d
    end;
    if pseudo.ucnt.(i) > 0 then begin
      tot_u := !tot_u +. (pseudo.usum.(i) /. float_of_int pseudo.ucnt.(i));
      incr ntot_u
    end
  done;
  let avg_d = if !ntot_d > 0 then !tot_d /. float_of_int !ntot_d else 0. in
  let avg_u = if !ntot_u > 0 then !tot_u /. float_of_int !ntot_u else 0. in
  let have_history = !ntot_d > 0 || !ntot_u > 0 in
  let best = ref (-1) and best_score = ref neg_infinity in
  let most_frac = ref (-1) and best_frac = ref integrality_tolerance in
  for i = 0 to n - 1 do
    if integer.(i) then begin
      let v = values.(i) in
      let frac = Float.abs (v -. Float.round v) in
      if frac > integrality_tolerance then begin
        if frac > !best_frac then begin
          most_frac := i;
          best_frac := frac
        end;
        let fd = v -. Float.floor v in
        let fu = 1. -. fd in
        let est_d =
          (if pseudo.dcnt.(i) > 0 then
             pseudo.dsum.(i) /. float_of_int pseudo.dcnt.(i)
           else avg_d)
          *. fd
        and est_u =
          (if pseudo.ucnt.(i) > 0 then
             pseudo.usum.(i) /. float_of_int pseudo.ucnt.(i)
           else avg_u)
          *. fu
        in
        let score = Float.max est_d 1e-12 *. Float.max est_u 1e-12 in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    end
  done;
  if !most_frac = -1 then -1 else if have_history then !best else !most_frac

let most_fractional ~integer values =
  let best = ref (-1) in
  let best_frac = ref integrality_tolerance in
  Array.iteri
    (fun i v ->
      if integer.(i) then begin
        let frac = Float.abs (v -. Float.round v) in
        if frac > !best_frac then begin
          best := i;
          best_frac := frac
        end
      end)
    values;
  !best

(* ------------------------------------------------------------------ *)
(* Node evaluation                                                     *)

(* The search's LP solver and the basis snapshot it sits at: popping a
   node whose [nsnap] is physically that basis (the common
   first-child-after-parent case) skips the O(m^3) refactorization, and
   the dual simplex starts from the parent's optimum. *)
type lp = { solver : Revised.t; mutable at : Revised.snapshot option }

let solve_node ~deadline lp nd ~lb ~ub =
  Revised.set_bounds lp.solver ~lb ~ub;
  let warm =
    match nd.nsnap with
    | None -> false
    | Some s when (match lp.at with Some l -> l == s | None -> false) ->
      true (* already in this context; current basis is dual feasible *)
    | Some s ->
      lp.at <- nd.nsnap;
      Revised.load_basis lp.solver s
  in
  let r =
    if warm then Revised.solve_warm ~deadline lp.solver
    else Revised.solve_fresh ~deadline lp.solver
  in
  (* On [Optimal] the solver sits at this node's optimum. *)
  (match r with Revised.Optimal _ -> () | _ -> lp.at <- None);
  r

(* The basis of the node just solved, for its children. *)
let node_snapshot lp =
  let s = Revised.save_basis lp.solver in
  lp.at <- Some s;
  Some s

(* Strong branching at the root: actually solve both children of each
   candidate (most fractional first, capped) and seed the pseudo-cost
   accounts with the observed per-unit degradations. An infeasible or
   cut-off child is recorded as a large degradation — branching there
   closes the subtree outright. *)
let strong_branch_cap = 8
let infeasible_degradation = 1e7

let strong_branch ~deadline ~integer ~base_lb ~base_ub ~sign ~root_key solver
    pseudo values =
  let n = Array.length values in
  let cands = ref [] in
  for i = n - 1 downto 0 do
    if integer.(i) then begin
      let frac = Float.abs (values.(i) -. Float.round values.(i)) in
      if frac > integrality_tolerance then cands := (frac, i) :: !cands
    end
  done;
  let cands =
    List.sort (fun (fa, ia) (fb, ib) -> compare (-.fa, ia) (-.fb, ib)) !cands
  in
  let cands = List.filteri (fun k _ -> k < strong_branch_cap) cands in
  let snap0 = Revised.save_basis solver in
  let lb = Array.copy base_lb and ub = Array.copy base_ub in
  let probe () =
    Revised.set_bounds solver ~lb ~ub;
    Revised.solve_warm ~deadline solver
  in
  (* The degradation of the child whose bounds [lb]/[ub] now hold. *)
  let degradation () =
    if not (Revised.load_basis solver snap0) then None
    else
      match probe () with
      | Revised.Optimal { objective; _ } ->
        Some (Float.max 0. ((sign *. objective) -. root_key))
      | Revised.Infeasible -> Some infeasible_degradation
      | Revised.Unbounded | Revised.Limit -> None
  in
  List.iter
    (fun (_, v) ->
      let x = values.(v) in
      let floor_v = Float.floor x in
      let fd = x -. floor_v and fu = floor_v +. 1. -. x in
      ub.(v) <- floor_v;
      let d_down = degradation () in
      ub.(v) <- base_ub.(v);
      lb.(v) <- floor_v +. 1.;
      let d_up = degradation () in
      lb.(v) <- base_lb.(v);
      (match d_down with
      | Some d when fd > 1e-9 ->
        pseudo.dsum.(v) <- pseudo.dsum.(v) +. (d /. fd);
        pseudo.dcnt.(v) <- pseudo.dcnt.(v) + 1
      | _ -> ());
      match d_up with
      | Some d when fu > 1e-9 ->
        pseudo.usum.(v) <- pseudo.usum.(v) +. (d /. fu);
        pseudo.ucnt.(v) <- pseudo.ucnt.(v) + 1
      | _ -> ())
    cands;
  (* Leave the solver back at the root basis and bounds. *)
  Revised.set_bounds solver ~lb:base_lb ~ub:base_ub;
  ignore (Revised.load_basis solver snap0);
  snap0

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let solve ?(node_limit = 1_000_000) ?time_limit model =
  let deadline =
    match time_limit with
    | None -> infinity
    | Some s ->
      if s <= 0. then invalid_arg "Branch_bound.solve: time_limit";
      Unix.gettimeofday () +. s
  in
  let n = Lp.num_vars model in
  let base_lb = Lp.lb_array model in
  let base_ub = Lp.ub_array model in
  let integer = Lp.integer_array model in
  Array.iteri
    (fun i isint ->
      if isint && not (Float.is_finite base_ub.(i)) then
        invalid_arg "Branch_bound.solve: integer variables need finite bounds")
    integer;
  (* key = sign * user objective, minimized *)
  let sign =
    match Lp.objective model with Lp.Minimize -> 1. | Maximize -> -1.
  in
  let incumbent = ref None in
  let incumbent_key = ref infinity in
  let nodes = ref 0 in
  let exhausted = ref false in
  let heap = Heap.create () in
  let pseudo = pseudo_create n in
  let solver = Revised.of_model model in
  let lp = { solver; at = None } in
  let choose values = choose_branch_pc ~integer pseudo values in
  let lbbuf = Array.copy base_lb and ubbuf = Array.copy base_ub in
  let evaluate nd =
    incr nodes;
    Array.blit base_lb 0 lbbuf 0 n;
    Array.blit base_ub 0 ubbuf 0 n;
    materialize nd lbbuf ubbuf;
    match solve_node ~deadline lp nd ~lb:lbbuf ~ub:ubbuf with
    | Revised.Infeasible -> `Pruned
    | Revised.Unbounded -> `Unbounded
    | Revised.Limit ->
      (* The LP hit its iteration cap or the deadline: the node is
         unresolved, not infeasible. Give up on proving optimality but
         never prune the subtree as if it were empty. *)
      exhausted := true;
      `Pruned
    | Revised.Optimal { objective; values } ->
      let key = sign *. objective in
      pseudo_update pseudo nd key;
      if key >= !incumbent_key -. 1e-9 then `Pruned
      else begin
        match choose values with
        | -1 ->
          incumbent := Some (objective, values);
          incumbent_key := key;
          `Integer
        | branch_var -> `Branch (key, branch_var, values)
      end
  in
  let push_children nd ~key ~var values =
    let d, u =
      make_children nd ~key ~var ~value:values.(var) (node_snapshot lp)
    in
    Heap.push heap key d;
    Heap.push heap key u
  in
  let unbounded = ref false in
  (match evaluate root_node with
  | `Pruned | `Integer -> ()
  | `Unbounded -> unbounded := true
  | `Branch (key, var, values) ->
    ignore
      (strong_branch ~deadline ~integer ~base_lb ~base_ub ~sign ~root_key:key
         solver pseudo values);
    (* Re-pick the branching variable with the seeded pseudo-costs. *)
    let var = match choose values with -1 -> var | v -> v in
    push_children root_node ~key ~var values);
  if not !unbounded then begin
    let continue_ = ref true in
    while !continue_ do
      if !nodes >= node_limit || Unix.gettimeofday () > deadline then begin
        exhausted := true;
        continue_ := false
      end
      else begin
        match Heap.pop heap with
        | None -> continue_ := false
        | Some (key, nd) ->
          if key >= !incumbent_key -. 1e-9 then
            (* Best-first: every remaining node is at least as bad. *)
            continue_ := false
          else begin
            match evaluate nd with
            | `Pruned | `Integer | `Unbounded -> ()
            | `Branch (key, var, values) -> push_children nd ~key ~var values
          end
      end
    done
  end;
  if Unix.gettimeofday () > deadline then exhausted := true;
  if !unbounded then Unbounded
  else begin
    match !incumbent with
    | Some (objective, values) ->
      let sol =
        { objective; values; proved_optimal = not !exhausted; nodes = !nodes }
      in
      if !exhausted then Feasible sol else Optimal sol
    | None -> if !exhausted then Node_limit else Infeasible
  end
