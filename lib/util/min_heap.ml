type t = {
  heap : int array;  (* the first [len] slots *)
  mutable len : int;
  queued : bool array;
}

let create n = { heap = Array.make n 0; len = 0; queued = Array.make n false }
let capacity q = Array.length q.queued
let is_empty q = q.len = 0

(* The key arrays are annotated [int array]: left generic, the compiler
   would compile every comparison below as a call to the polymorphic
   [compare] primitives. *)
let rec sift_up heap ~(key : int array) x i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let y = heap.(p) in
    if key.(y) > key.(x) then begin
      heap.(i) <- y;
      sift_up heap ~key x p
    end
    else heap.(i) <- x
  end
  else heap.(i) <- x

let rec sift_down heap ~(key : int array) len x i =
  let l = (2 * i) + 1 in
  if l >= len then heap.(i) <- x
  else begin
    let c =
      if l + 1 < len && key.(heap.(l + 1)) < key.(heap.(l)) then l + 1 else l
    in
    let y = heap.(c) in
    if key.(y) < key.(x) then begin
      heap.(i) <- y;
      sift_down heap ~key len x c
    end
    else heap.(i) <- x
  end

let add q ~(key : int array) x =
  if not q.queued.(x) then begin
    q.queued.(x) <- true;
    sift_up q.heap ~key x q.len;
    q.len <- q.len + 1
  end

let pop q ~(key : int array) =
  let heap = q.heap in
  let x = heap.(0) in
  let len = q.len - 1 in
  q.len <- len;
  if len > 0 then sift_down heap ~key len heap.(len) 0;
  q.queued.(x) <- false;
  x

let pop_budget nodes = (4 * nodes) + 64

let clear q =
  for i = 0 to q.len - 1 do
    q.queued.(q.heap.(i)) <- false
  done;
  q.len <- 0
