(* The skeleton of a logged bench section. A section measures one row
   of named cells per group, plus totals, and declares its gates; one
   emitter prints the rows as a table and turns them into the section's
   JSON log, and one walk applies the gates to a recorded log
   ([bench check]) or compares two logs' must-be-true gates
   ([bench ab]). *)

module Json = Resched_util.Json
module Table = Resched_util.Table

(* A measured value, and how its table cell reads. *)
type value =
  | Int of int
  | Float of float  (* 3 decimals *)
  | Fixed of int * float  (* this many decimals *)
  | Ratio of float  (* "x1.23" *)
  | Share of float  (* "95%" *)
  | Bool of bool  (* "yes" / "NO" *)
  | Text of string
  | Log of Json.t  (* logged only, never a cell *)

(* One measurement, declared once: its JSON path (dotted; "" when it is
   only printed), its table header ("" when it is only logged) and its
   value. *)
type cell = { key : string; header : string; value : value }

let c ?(h = "") key value = { key; header = h; value }

let to_json = function
  | Int i -> Json.Int i
  | Float f | Fixed (_, f) | Ratio f | Share f -> Json.float f
  | Bool b -> Json.Bool b
  | Text s -> Json.String s
  | Log j -> j

let to_cell = function
  | Int i -> string_of_int i
  | Float f -> Table.cell_f f
  | Fixed (decimals, f) -> Table.cell_f ~decimals f
  | Ratio f -> Printf.sprintf "x%.2f" f
  | Share f -> Printf.sprintf "%.0f%%" (100. *. f)
  | Bool b -> if b then "yes" else "NO"
  | Text s -> s
  | Log _ -> "-"

(* The logged cells as one JSON object, dotted keys nested in order of
   first appearance. *)
let obj cells =
  let rec nest fields =
    let keys =
      List.fold_left
        (fun acc (path, _) ->
          match path with
          | k :: _ when not (List.mem k acc) -> k :: acc
          | _ -> acc)
        [] fields
      |> List.rev
    in
    Json.Obj
      (List.map
         (fun k ->
           match
             List.filter_map
               (function
                 | k' :: rest, v when k' = k -> Some (rest, v) | _ -> None)
               fields
           with
           | [ ([], v) ] -> (k, v)
           | sub -> (k, nest sub))
         keys)
  in
  nest
    (List.filter_map
       (fun c ->
         if c.key = "" then None
         else Some (String.split_on_char '.' c.key, to_json c.value))
       cells)

(* Print rows (lists of cells, the same headers in each) as a table of
   their headed cells, and return them as the JSON list the log keeps. *)
let emit rows =
  (match rows with
  | [] -> ()
  | first :: _ ->
    let headed r = List.filter (fun c -> c.header <> "") r in
    let t = Table.create (List.map (fun c -> c.header) (headed first)) in
    List.iter
      (fun r ->
        Table.add_row t (List.map (fun c -> to_cell c.value) (headed r)))
      rows;
    Table.print t);
  Log (Json.List (List.map obj rows))

(* Print the headed totals, one "header: cell" line each. *)
let print_totals cells =
  List.iter
    (fun c ->
      if c.header <> "" then
        Printf.printf "  %s: %s\n" c.header (to_cell c.value))
    cells

(* Reading a row back, by its JSON key. *)
let mem row key = List.exists (fun c -> c.key = key) row

let find row key =
  match List.find_opt (fun c -> c.key = key) row with
  | Some c -> c.value
  | None -> invalid_arg ("Skeleton.find: no cell " ^ key)

let int row key =
  match find row key with
  | Int i -> i
  | _ -> invalid_arg ("Skeleton.int: " ^ key)

let bool row key =
  match find row key with
  | Bool b -> b
  | _ -> invalid_arg ("Skeleton.bool: " ^ key)

let num row key =
  match find row key with
  | Int i -> float_of_int i
  | Float f | Fixed (_, f) | Ratio f | Share f -> f
  | _ -> invalid_arg ("Skeleton.num: " ^ key)

let sum rows key = List.fold_left (fun acc r -> acc + int r key) 0 rows

(* A column's least value, and its greatest (0 when no row is above). *)
let least rows key =
  List.fold_left (fun a r -> Float.min a (num r key)) infinity rows

let most rows key = List.fold_left (fun a r -> Float.max a (num r key)) 0. rows

(* A gate: a JSON path of the log that must be true, at least a bound,
   or at most a bound. A path that is missing (or null) fails. *)
type gate =
  | True of string
  | At_least of string * float
  | At_most of string * float

(* The gates whose bound the profile sets. *)
let at_least key = Option.fold ~none:[] ~some:(fun b -> [ At_least (key, b) ])
let at_most key = Option.fold ~none:[] ~some:(fun b -> [ At_most (key, b) ])

let path_of key = String.split_on_char '.' key

(* Whether the log passes the gate, and the line that says so. *)
let apply log gate =
  let num key = Option.bind (Json.path (path_of key) log) Json.get_float in
  let line key ok got want =
    ( ok,
      Printf.sprintf "%s %s (%s)" key
        (Option.fold ~none:"missing" ~some:(Printf.sprintf "%g") got)
        want )
  in
  match gate with
  | True key ->
    let v = Option.bind (Json.path (path_of key) log) Json.get_bool in
    ( v = Some true,
      Printf.sprintf "%s %s (must be true)" key
        (Option.fold ~none:"missing" ~some:string_of_bool v) )
  | At_least (key, b) ->
    let v = num key in
    line key (match v with Some x -> x >= b | None -> false) v
      (Printf.sprintf ">= %g" b)
  | At_most (key, b) ->
    let v = num key in
    line key (match v with Some x -> x <= b | None -> false) v
      (Printf.sprintf "<= %g" b)

(* A logged section: its name, its run (prints its tables; returns its
   log's fields) and its gates under a profile. *)
type section = {
  name : string;
  run : Profile.t -> cell list;
  gates : Profile.t -> gate list;
}
