(* Multiplexing jsonl transport: one select loop, N clients, reusable
   per-connection ring buffers. See the mli for the contract.

   Threading: the loop (poll/run) is single-threaded. Worker domains
   enter only through a connection's responder closure, which appends
   to that connection's write buffer under [c_wlock] and pokes the
   self-pipe. Loop-side per-connection counters are plain fields; the
   stats snapshot may read them racily from a metrics request, which
   is safe in OCaml (word-sized reads, bounded staleness) and fine for
   monitoring. *)

module Json = Resched_util.Json
module Lineio = Resched_util.Lineio

type conn = {
  c_id : int;
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_source : string;  (* dispatch source key: "conn:<id>" *)
  c_reader : Lineio.Reader.t;
  c_writer : Lineio.Writer.t;
  c_wlock : Mutex.t;
  c_owns_fds : bool;
  c_close_server_on_eof : bool;
  c_respond : Protocol.response -> unit;
  c_fill : Bytes.t -> int -> int -> int;
  c_flush : Bytes.t -> int -> int -> int;
  mutable c_open : bool;  (* accepts responses; under c_wlock *)
  mutable c_kill : bool;  (* reap immediately; under c_wlock *)
  mutable c_inflight : int;  (* submitted, not yet answered; c_wlock *)
  mutable c_eof : bool;  (* loop only *)
  mutable c_bytes_in : int;  (* loop only *)
  mutable c_bytes_out : int;  (* loop only *)
}

type t = {
  srv : Server.t;
  max_clients : int;
  max_line : int;
  drive : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  scratch : Bytes.t;  (* wake-pipe drain buffer; loop only *)
  mutable listen_fd : Unix.file_descr option;
  mutable conns : conn list;  (* replaced wholesale, never mutated *)
  mutable next_id : int;
  mutable accepted : int;
  mutable closed_conns : int;
  mutable total_in : int;
  mutable total_out : int;
  mutable oversized : int;
  dropped : int Atomic.t;  (* responses to dead connections *)
}

(* One shared byte for self-pipe pokes; its content is irrelevant. *)
let wake_byte = Bytes.make 1 '!'

let wake t =
  try ignore (Unix.write t.wake_w wake_byte 0 1 : int)
  with Unix.Unix_error _ -> ()
(* A full pipe (EAGAIN) still wakes the loop; EBADF after the loop is
   gone is a straggler monitoring write, equally ignorable. *)

(* The slow-consumer guard: the bytes of responses one connection may
   leave unread before it is disconnected. *)
let max_buffered_response_bytes = 8 lsl 20

(* Worker-side response delivery: append to the submitting
   connection's write buffer, disconnect a peer that stopped reading
   (the buffer cap), count what could not be delivered. *)
let conn_respond t c resp =
  let line = Protocol.response_to_line resp in
  Mutex.lock c.c_wlock;
  if c.c_inflight > 0 then c.c_inflight <- c.c_inflight - 1;
  let accepted =
    c.c_open
    && Lineio.Writer.add_line ~max:max_buffered_response_bytes c.c_writer line
  in
  if (not accepted) && c.c_open then begin
    c.c_open <- false;
    c.c_kill <- true;
    Lineio.Writer.clear c.c_writer
  end;
  Mutex.unlock c.c_wlock;
  if not accepted then Atomic.incr t.dropped;
  wake t

let add_conn t ~in_fd ~out_fd ~owns_fds ~close_server_on_eof =
  let id = t.next_id in
  t.next_id <- id + 1;
  let rec c =
    {
      c_id = id;
      c_in = in_fd;
      c_out = out_fd;
      c_source = Printf.sprintf "conn:%d" id;
      c_reader = Lineio.Reader.create ~max_line:t.max_line ();
      c_writer = Lineio.Writer.create ();
      c_wlock = Mutex.create ();
      c_owns_fds = owns_fds;
      c_close_server_on_eof = close_server_on_eof;
      c_respond = (fun resp -> conn_respond t c resp);
      c_fill = (fun b p l -> Unix.read in_fd b p l);
      c_flush = (fun b p l -> Unix.write out_fd b p l);
      c_open = true;
      c_kill = false;
      c_inflight = 0;
      c_eof = false;
      c_bytes_in = 0;
      c_bytes_out = 0;
    }
  in
  t.accepted <- t.accepted + 1;
  t.conns <- t.conns @ [ c ]

let bump_inflight c =
  Mutex.lock c.c_wlock;
  c.c_inflight <- c.c_inflight + 1;
  Mutex.unlock c.c_wlock

(* Extract complete lines and hand them to the server, each stamped
   with this connection's responder and dispatch source. Input past a
   shutdown is never read into requests (matching the single-client
   transport this replaces). *)
let rec drain_lines t c =
  if not (Server.closed t.srv) then
    match Lineio.Reader.next c.c_reader with
    | `Pending -> ()
    | `Overflow _ ->
      t.oversized <- t.oversized + 1;
      bump_inflight c;
      Server.reject_oversized ~respond:c.c_respond t.srv;
      drain_lines t c
    | `Line line ->
      let line = String.trim line in
      if line <> "" then begin
        bump_inflight c;
        Server.submit_line ~respond:c.c_respond ~source:c.c_source t.srv line
      end;
      drain_lines t c

let mark_eof t c =
  if not c.c_eof then begin
    c.c_eof <- true;
    if not (Server.closed t.srv) then (
      match Lineio.Reader.pending_line c.c_reader with
      | Some line ->
        let line = String.trim line in
        if line <> "" then begin
          bump_inflight c;
          Server.submit_line ~respond:c.c_respond ~source:c.c_source t.srv
            line
        end
      | None -> ());
    if c.c_close_server_on_eof then Server.close t.srv
  end

let read_conn t c =
  match Lineio.Reader.fill c.c_reader c.c_fill with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> mark_eof t c
  | 0 -> mark_eof t c
  | n ->
    c.c_bytes_in <- c.c_bytes_in + n;
    t.total_in <- t.total_in + n;
    drain_lines t c

let flush_conn t c =
  Mutex.lock c.c_wlock;
  let wrote =
    match Lineio.Writer.write_with c.c_writer c.c_flush with
    | n -> n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> 0
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (* Peer is gone: abandon its responses, reap the connection. *)
      c.c_open <- false;
      c.c_kill <- true;
      Lineio.Writer.clear c.c_writer;
      0
  in
  Mutex.unlock c.c_wlock;
  c.c_bytes_out <- c.c_bytes_out + wrote;
  t.total_out <- t.total_out + wrote

let reap t =
  let dead, alive =
    List.partition
      (fun c ->
        Mutex.lock c.c_wlock;
        let d =
          c.c_kill
          || c.c_eof && c.c_inflight = 0 && Lineio.Writer.is_empty c.c_writer
        in
        if d then c.c_open <- false;
        Mutex.unlock c.c_wlock;
        d)
      t.conns
  in
  if dead <> [] then begin
    List.iter
      (fun c ->
        t.closed_conns <- t.closed_conns + 1;
        if c.c_owns_fds then begin
          (try Unix.close c.c_in with Unix.Unix_error _ -> ());
          if c.c_out <> c.c_in then
            try Unix.close c.c_out with Unix.Unix_error _ -> ()
        end)
      dead;
    t.conns <- alive
  end

let rec accept_loop t lfd =
  if List.length t.conns < t.max_clients && not (Server.closed t.srv) then
    match Unix.accept ~cloexec:true lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      add_conn t ~in_fd:fd ~out_fd:fd ~owns_fds:true
        ~close_server_on_eof:false;
      accept_loop t lfd
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()

let drain_wake t =
  let cap = Bytes.length t.scratch in
  let rec go () =
    match Unix.read t.wake_r t.scratch 0 cap with
    | n when n = cap -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  go ()

let has_output c =
  Mutex.lock c.c_wlock;
  let w = (not (Lineio.Writer.is_empty c.c_writer)) && not c.c_kill in
  Mutex.unlock c.c_wlock;
  w

let poll t ~timeout_s =
  ignore (Server.sweep_expired t.srv : int);
  let srv_closed = Server.closed t.srv in
  let reads =
    (t.wake_r
     ::
     (match t.listen_fd with
     | Some fd when (not srv_closed) && List.length t.conns < t.max_clients
       ->
       [ fd ]
     | _ -> []))
    @ List.filter_map
        (fun c -> if c.c_eof || srv_closed then None else Some c.c_in)
        t.conns
  in
  let writes =
    List.filter_map
      (fun c -> if has_output c then Some c.c_out else None)
      t.conns
  in
  let rd, wr, _ =
    try Unix.select reads writes [] timeout_s
    with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
  in
  if List.mem t.wake_r rd then drain_wake t;
  (match t.listen_fd with
  | Some fd when List.mem fd rd -> accept_loop t fd
  | _ -> ());
  List.iter
    (fun c -> if (not c.c_eof) && List.mem c.c_in rd then read_conn t c)
    t.conns;
  List.iter (fun c -> if List.mem c.c_out wr then flush_conn t c) t.conns;
  reap t

let finished t =
  Server.closed t.srv
  && Server.drained t.srv
  && List.for_all
       (fun c ->
         Mutex.lock c.c_wlock;
         let done_ = Lineio.Writer.is_empty c.c_writer || c.c_kill in
         Mutex.unlock c.c_wlock;
         done_)
       t.conns

(* The wake pipe is deliberately left open: a worker's poke races the
   teardown, and closing the descriptors could hand their numbers to
   an unrelated file mid-write. Two idle descriptors per transport is
   the price of never writing to a recycled fd. *)
let cleanup t =
  (match t.listen_fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.listen_fd <- None
  | None -> ());
  List.iter
    (fun c ->
      Mutex.lock c.c_wlock;
      c.c_open <- false;
      Mutex.unlock c.c_wlock;
      t.closed_conns <- t.closed_conns + 1;
      if c.c_owns_fds then begin
        (try Unix.close c.c_in with Unix.Unix_error _ -> ());
        if c.c_out <> c.c_in then
          try Unix.close c.c_out with Unix.Unix_error _ -> ()
      end)
    t.conns;
  t.conns <- []

let run t =
  while not (finished t) do
    let timeout =
      if t.drive then
        match Server.step t.srv with
        | Server.Did_work -> 0.
        | Server.Backoff d -> Float.max 0.001 (Float.min d 0.05)
        | Server.Idle | Server.Drained -> 0.05
      else 0.2
    in
    poll t ~timeout_s:timeout
  done;
  cleanup t

(* Connection counters for the metrics reply: active/accepted/closed
   connections, total and per-connection bytes in/out, oversized-line
   and dropped-response counts. Readable from any thread (monitoring
   reads are racy but never unsafe). *)
let stats_json t =
  let conns = t.conns in
  Json.Obj
    [
      ("active", Json.Int (List.length conns));
      ("accepted", Json.Int t.accepted);
      ("closed", Json.Int t.closed_conns);
      ("bytes_in", Json.Int t.total_in);
      ("bytes_out", Json.Int t.total_out);
      ("oversized_lines", Json.Int t.oversized);
      ("dropped_responses", Json.Int (Atomic.get t.dropped));
      ( "per_connection",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("id", Json.Int c.c_id);
                   ("source", Json.String c.c_source);
                   ("bytes_in", Json.Int c.c_bytes_in);
                   ("bytes_out", Json.Int c.c_bytes_out);
                   ("inflight", Json.Int c.c_inflight);
                 ])
             conns) );
    ]

let create ?(max_clients = 32) ?(max_line_bytes = 1 lsl 20)
    ?(drive_server = false) srv =
  (* A peer that disconnects mid-write must surface as EPIPE in
     [flush_conn] (which reaps the connection), not as a SIGPIPE that
     kills the whole daemon. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      srv;
      max_clients = Stdlib.max 1 max_clients;
      max_line = Stdlib.max 1 max_line_bytes;
      drive = drive_server;
      wake_r;
      wake_w;
      scratch = Bytes.create 256;
      listen_fd = None;
      conns = [];
      next_id = 0;
      accepted = 0;
      closed_conns = 0;
      total_in = 0;
      total_out = 0;
      oversized = 0;
      dropped = Atomic.make 0;
    }
  in
  Server.set_connection_stats srv (fun () -> stats_json t);
  t

let listen t fd =
  Unix.set_nonblock fd;
  t.listen_fd <- Some fd

let add_channel t ?(close_server_on_eof = false) ?(owns_fds = true) ~in_fd
    ~out_fd () =
  add_conn t ~in_fd ~out_fd ~owns_fds ~close_server_on_eof

let add_socket t fd =
  Unix.set_nonblock fd;
  add_conn t ~in_fd:fd ~out_fd:fd ~owns_fds:true ~close_server_on_eof:false
