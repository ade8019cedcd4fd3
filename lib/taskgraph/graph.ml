type t = {
  n : int;
  succ : int list array; (* reversed insertion order *)
  pred : int list array;
  mutable edge_count : int;
}

exception Cycle of int list

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; succ = Array.make n []; pred = Array.make n []; edge_count = 0 }

let size g = g.n

let copy g =
  { n = g.n;
    succ = Array.copy g.succ;
    pred = Array.copy g.pred;
    edge_count = g.edge_count }

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg ("Graph." ^ name ^ ": node out of range")

let has_edge g u v =
  check_node g u "has_edge";
  check_node g v "has_edge";
  List.mem v g.succ.(u)

let add_edge g u v =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if not (List.mem v g.succ.(u)) then begin
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.edge_count <- g.edge_count + 1
  end

let succs g u =
  check_node g u "succs";
  List.rev g.succ.(u)

let succs_rev g u =
  check_node g u "succs_rev";
  g.succ.(u)

let preds g u =
  check_node g u "preds";
  List.rev g.pred.(u)

let preds_rev g u =
  check_node g u "preds_rev";
  g.pred.(u)

let edge_count g = g.edge_count

let edges g =
  (* g.succ.(u) is newest-first; prepending while iterating it leaves the
     per-node edges oldest-first in the result. *)
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter (fun v -> acc := (u, v) :: !acc) g.succ.(u)
  done;
  !acc

(* Kahn's algorithm; on failure, extract a cycle by walking unprocessed
   predecessors. *)
let topological_order g =
  let indeg = Array.make g.n 0 in
  for u = 0 to g.n - 1 do
    List.iter (fun v -> indeg.(v) <- indeg.(v) + 1) g.succ.(u)
  done;
  let queue = Queue.create () in
  for u = 0 to g.n - 1 do
    if indeg.(u) = 0 then Queue.add u queue
  done;
  let order = Array.make g.n 0 in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!filled) <- u;
    incr filled;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      g.succ.(u)
  done;
  if !filled = g.n then order
  else begin
    (* Every remaining node (indeg > 0) lies on or leads into a cycle;
       follow predecessors among remaining nodes until a repeat. *)
    let remaining = Array.map (fun d -> d > 0) indeg in
    let start = ref (-1) in
    Array.iteri (fun u r -> if r && !start = -1 then start := u) remaining;
    let seen = Array.make g.n (-1) in
    let rec walk u path depth =
      if seen.(u) >= 0 then begin
        let cycle = ref [] in
        List.iteri (fun i v -> if List.length path - i <= depth - seen.(u) then cycle := v :: !cycle) path;
        raise (Cycle (u :: List.filter (fun v -> v <> u) !cycle))
      end;
      seen.(u) <- depth;
      match List.filter (fun p -> remaining.(p)) g.pred.(u) with
      | [] -> raise (Cycle [ u ])
      | p :: _ -> walk p (u :: path) (depth + 1)
    in
    walk !start [] 0
  end

let is_acyclic g =
  match topological_order g with _ -> true | exception Cycle _ -> false

let reachable g u =
  check_node g u "reachable";
  let mark = Array.make g.n false in
  let rec go v =
    if not mark.(v) then begin
      mark.(v) <- true;
      List.iter go g.succ.(v)
    end
  in
  go u;
  mark

let check_mark g mark name =
  if Array.length mark <> g.n then
    invalid_arg ("Graph." ^ name ^ ": mark length mismatch")

let mark_reachable g u mark =
  check_node g u "mark_reachable";
  check_mark g mark "mark_reachable";
  let rec go v =
    if not mark.(v) then begin
      mark.(v) <- true;
      List.iter go g.succ.(v)
    end
  in
  go u

let mark_coreachable g u mark =
  check_node g u "mark_coreachable";
  check_mark g mark "mark_coreachable";
  let rec go v =
    if not mark.(v) then begin
      mark.(v) <- true;
      List.iter go g.pred.(v)
    end
  in
  go u

type closure = { cn : int; stride : int; bits : Bytes.t }

type closure_buf = {
  mutable cb_bits : Bytes.t;
  mutable cb_indeg : int array; (* doubles as Kahn queue scratch *)
  mutable cb_queue : int array;
}

let make_closure_buf () =
  { cb_bits = Bytes.empty; cb_indeg = [||]; cb_queue = [||] }

let closure_with buf g =
  let n = g.n in
  let stride = (n + 7) / 8 in
  let need = n * stride in
  if Bytes.length buf.cb_bits < need then
    buf.cb_bits <- Bytes.make (max need (2 * Bytes.length buf.cb_bits)) '\000'
  else Bytes.fill buf.cb_bits 0 need '\000';
  if Array.length buf.cb_indeg < n then begin
    buf.cb_indeg <- Array.make n 0;
    buf.cb_queue <- Array.make n 0
  end;
  let bits = buf.cb_bits in
  let indeg = buf.cb_indeg and queue = buf.cb_queue in
  Array.fill indeg 0 n 0;
  for u = 0 to n - 1 do
    List.iter (fun v -> indeg.(v) <- indeg.(v) + 1) g.succ.(u)
  done;
  (* FIFO Kahn over the scratch queue; [queue.(0 .. filled-1)] ends up
     holding a topological order. *)
  let filled = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      queue.(!filled) <- u;
      incr filled
    end
  done;
  let head = ref 0 in
  while !head < !filled do
    let u = queue.(!head) in
    incr head;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          queue.(!filled) <- v;
          incr filled
        end)
      g.succ.(u)
  done;
  if !filled <> n then ignore (topological_order g : int array);
  let set_bit u v =
    let off = (u * stride) + (v lsr 3) in
    Bytes.unsafe_set bits off
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get bits off) lor (1 lsl (v land 7))))
  in
  let or_row ~into ~from =
    let a = into * stride and b = from * stride in
    for i = 0 to stride - 1 do
      Bytes.unsafe_set bits (a + i)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get bits (a + i))
           lor Char.code (Bytes.unsafe_get bits (b + i))))
    done
  in
  for i = n - 1 downto 0 do
    let u = queue.(i) in
    set_bit u u;
    List.iter (fun v -> or_row ~into:u ~from:v) g.succ.(u)
  done;
  { cn = n; stride; bits }

let in_closure c u v =
  if u < 0 || u >= c.cn || v < 0 || v >= c.cn then
    invalid_arg "Graph.in_closure: node out of range";
  let byte = Char.code (Bytes.unsafe_get c.bits ((u * c.stride) + (v lsr 3))) in
  byte land (1 lsl (v land 7)) <> 0

let restore ~from g =
  if from.n <> g.n then invalid_arg "Graph.restore: size mismatch";
  Array.blit from.succ 0 g.succ 0 g.n;
  Array.blit from.pred 0 g.pred 0 g.n;
  g.edge_count <- from.edge_count
