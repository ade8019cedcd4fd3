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
  mutable names : string list;
  mutable constraints : row list;  (* reversed *)
  mutable nrows : int;
}

let create ?(objective = Minimize) () =
  { goal = objective; nvars = 0; obj = []; lb = []; ub = []; integer = [];
    names = []; constraints = []; nrows = 0 }

let add_var t ?(lb = 0.) ?(ub = infinity) ?(integer = false) ?name ~obj () =
  if Float.is_nan lb || Float.is_nan ub then invalid_arg "Lp.add_var: NaN bound";
  if lb > ub then invalid_arg "Lp.add_var: lb > ub";
  let idx = t.nvars in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" idx in
  t.nvars <- idx + 1;
  t.obj <- obj :: t.obj;
  t.lb <- lb :: t.lb;
  t.ub <- ub :: t.ub;
  t.integer <- integer :: t.integer;
  t.names <- name :: t.names;
  idx

let add_binary t ?name ~obj () =
  add_var t ~lb:0. ~ub:1. ~integer:true ?name ~obj ()

let combine_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun (v, c) ->
      let prev = try Hashtbl.find tbl v with Not_found -> 0. in
      Hashtbl.replace tbl v (prev +. c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0. then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let add_constraint t ?name:_ terms sense rhs =
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
let var_name t v = nth_rev t t.names v

let lb_array t = rev_array t.lb
let ub_array t = rev_array t.ub
let integer_array t = rev_array t.integer

let rows t =
  rev_array t.constraints
  |> Array.map (fun r -> (r.terms, r.sense, r.rhs))

let pp ppf t =
  let names = rev_array t.names in
  let obj = obj_coeffs t in
  let goal = match t.goal with Minimize -> "minimize" | Maximize -> "maximize" in
  Format.fprintf ppf "%s" goal;
  Array.iteri
    (fun i c -> if c <> 0. then Format.fprintf ppf " %+g %s" c names.(i))
    obj;
  Format.fprintf ppf "@\nsubject to@\n";
  Array.iter
    (fun (terms, sense, rhs) ->
      List.iter
        (fun (v, c) -> Format.fprintf ppf " %+g %s" c names.(v))
        terms;
      let s = match sense with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
      Format.fprintf ppf " %s %g@\n" s rhs)
    (rows t);
  let lb = rev_array t.lb and ub = rev_array t.ub in
  let integer = rev_array t.integer in
  Array.iteri
    (fun i name ->
      Format.fprintf ppf "%g <= %s <= %g%s@\n" lb.(i) name ub.(i)
        (if integer.(i) then " (int)" else ""))
    names
