type var = int

type sense = Le | Ge | Eq

type objective = Minimize | Maximize

type row = { terms : (int * float) list; sense : sense; rhs : float }

type t = {
  goal : objective;
  mutable nvars : int;
  mutable obj : float list;  (* reversed *)
  mutable lb : float list;
  mutable ub : float list;
  mutable integer : bool list;
  mutable constraints : row list;  (* reversed *)
  mutable nrows : int;
}

let create ?(objective = Minimize) () =
  { goal = objective; nvars = 0; obj = []; lb = []; ub = []; integer = [];
    constraints = []; nrows = 0 }

let add_var t ?(lb = 0.) ?(ub = infinity) ?(integer = false) ~obj () =
  if Float.is_nan lb || Float.is_nan ub then invalid_arg "Lp.add_var: NaN bound";
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  let idx = t.nvars in
  t.nvars <- idx + 1;
  t.obj <- obj :: t.obj;
  t.lb <- lb :: t.lb;
  t.ub <- ub :: t.ub;
  t.integer <- integer :: t.integer;
  idx

let add_binary t ~obj () = add_var t ~lb:0. ~ub:1. ~integer:true ~obj ()

let combine_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      let prev = try Hashtbl.find tbl v with Not_found -> 0. in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let add_constraint t terms sense rhs =
  List.iter
    (fun ((v : var), _) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Lp.add_constraint: variable out of range")
    terms;
  t.constraints <- { terms = combine_terms terms; sense; rhs } :: t.constraints;
  t.nrows <- t.nrows + 1

let num_vars t = t.nvars
let num_constraints t = t.nrows
let objective t = t.goal

let rev_array l = Array.of_list (List.rev l)

let obj_coeffs t = rev_array t.obj

let nth_rev t l (v : var) =
  (* list is reversed: element for var v sits at position nvars-1-v *)
  List.nth l (t.nvars - 1 - v)

let var_lb t v = nth_rev t t.lb v
let var_ub t v = nth_rev t t.ub v

let lb_array t = rev_array t.lb
let ub_array t = rev_array t.ub
let integer_array t = rev_array t.integer

let rows t =
  rev_array t.constraints
  |> Array.map (fun r -> (r.terms, r.sense, r.rhs))
