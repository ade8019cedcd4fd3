type t = {
  headers : string array;
  mutable rows : string array list; (* reversed *)
}

let create headers = { headers = Array.of_list headers; rows = [] }

let add_row t row =
  let row = Array.of_list row in
  if Array.length row <> Array.length t.headers then
    invalid_arg "Table.add_row: row length mismatch";
  t.rows <- row :: t.rows


(* Headers are centred, cells right-aligned. *)
let pad ~center width s =
  let missing = width - String.length s in
  if missing <= 0 then s
  else if center then
    let left = missing / 2 in
    String.make left ' ' ^ s ^ String.make (missing - left) ' '
  else String.make missing ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  let widen row =
    Array.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  List.iter widen rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line ~center row =
    Buffer.add_char buf '|';
    for i = 0 to ncols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad ~center widths.(i) row.(i));
      Buffer.add_string buf " |"
    done;
    Buffer.add_char buf '\n'
  in
  rule ();
  line ~center:true t.headers;
  rule ();
  List.iter (line ~center:false) rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_f ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v

let cell_pct v =
  if v >= 0. then Printf.sprintf "+%.1f%%" v else Printf.sprintf "%.1f%%" v
