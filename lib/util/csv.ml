let needs_quotes s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if not (needs_quotes s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let row_to_string row = String.concat "," (List.map escape row)

let write oc rows =
  List.iter (fun r -> output_string oc (row_to_string r ^ "\n")) rows
