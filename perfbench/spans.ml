(* In-memory span recorder for the traced run.

   A span is a name, a start and an end (wall-clock seconds), the span
   that caused it, the domain it ran on and a request or instance id.
   Spans stay in memory and are written once, at the end, as Chrome
   trace-event JSON (https://ui.perfetto.dev opens it). Recording is off
   until [enabled] is set, and then {!span} costs two clock reads and one
   locked list push. *)

type t = {
  idx : int;
  name : string;
  id : string;
  tid : int;
  parent : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next = Atomic.make 0
let now = Unix.gettimeofday
let domain_id () = (Domain.self () :> int)

(* Innermost open span of each domain. *)
let stack : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let current () =
  match !(Domain.DLS.get stack) with p :: _ -> p | [] -> -1

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Record a span whose bounds were read by the caller (a restart whose
   name depends on what it did, or a slice seen only through a hook). *)
let add ?(id = "") ?(parent = current ()) ?(tid = domain_id ()) ~t0 ~t1 name =
  if !enabled then
    push { idx = Atomic.fetch_and_add next 1; name; id; tid; parent; t0; t1 }

let span ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get stack in
    let idx = Atomic.fetch_and_add next 1 in
    let parent = match !st with p :: _ -> p | [] -> -1 in
    st := idx :: !st;
    let t0 = now () in
    let close () =
      let t1 = now () in
      st := List.tl !st;
      push { idx; name; id; tid = domain_id (); parent; t0; t1 }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span's start. [args] carries the span's
   own index and its parent's, so parent links survive the export. *)
let write_chrome path =
  let spans = List.rev !recorded in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let esc s = Resched_util.Json.to_string ~indent:0 (Resched_util.Json.String s) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          let cat =
            match String.index_opt s.name '.' with
            | Some j -> String.sub s.name 0 j
            | None -> s.name
          in
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"idx\":%d,\"parent\":%d,\
             \"id\":%s}}\n"
            (if i = 0 then "" else ",")
            (esc s.name) (esc cat) s.tid
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.idx s.parent (esc s.id))
        spans;
      output_string oc "]}\n");
  List.length spans
