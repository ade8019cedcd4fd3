let render ~label g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph taskgraph {\n";
  Buffer.add_string buf "  rankdir=TB;\n  node [shape=box];\n";
  for u = 0 to Graph.size g - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" u (label u))
  done;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_channel oc ?(label = string_of_int) g =
  output_string oc (render ~label g)
