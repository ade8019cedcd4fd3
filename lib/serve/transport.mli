(** Multiplexing jsonl transport for {!Server}: one [Unix.select]
    event loop carrying any number of simultaneous socket and pipe
    clients.

    Each connection owns a reusable {!Resched_util.Lineio} read ring
    and write buffer (allocated once at accept time — the steady state
    allocates no per-request transport buffers), a per-connection
    dispatch source key (so {!Server}'s round-robin dispatch keeps a
    flooding client from head-of-line-blocking the rest), and a small
    state machine: bytes read when [select] reports them, complete
    lines submitted to the server, responses appended to the
    connection's write buffer by whichever worker domain finished the
    request, and flushed — many responses coalesced into single
    [write] calls — when the socket is writable. A self-pipe wakes the
    loop when a worker enqueues a response, so the loop never spins
    and never sleeps through a finished request.

    Framing guards: a line longer than [max_line_bytes] is answered
    with a structured [rejected]/[line_too_long] response and
    discarded, without dropping the connection; a peer that stops
    reading until 8 MiB of responses pile up is disconnected
    (slow-consumer guard); at [max_clients] the listen
    socket stops being polled, leaving further connections in the
    kernel backlog.

    The loop itself is single-threaded (run it on one domain — with
    [drive_server] it also pumps {!Server.step} between polls, the
    [--jobs 1] topology); [add_*] before {!run}, and response delivery
    from worker domains, are the only cross-thread entry points. *)

type t

val create :
  ?max_clients:int ->
  ?max_line_bytes:int ->
  ?drive_server:bool ->
  Server.t ->
  t
(** Defaults: 32 clients, 1 MiB lines, [drive_server] false. Registers
    the transport's connection counters with
    {!Server.set_connection_stats}, and (on Unix) sets SIGPIPE to ignore
    so a peer disconnecting mid-write surfaces as EPIPE — reaping that
    one connection — instead of killing the process. *)

val listen : t -> Unix.file_descr -> unit
(** Adopt a bound, listening socket; the loop accepts (up to
    [max_clients] concurrent) connections from it. The transport owns
    the descriptor from here on. *)

val add_channel :
  t ->
  ?close_server_on_eof:bool ->
  ?owns_fds:bool ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  unit ->
  unit
(** Add a pre-connected client carried by two descriptors (the CLI's
    stdin/stdout pipe mode; socketpairs in tests). With
    [close_server_on_eof] (default false), EOF on [in_fd] closes the
    server after submitting a final unterminated line, so a piped
    request file drains to completion and the process exits. With
    [owns_fds] (default true) the descriptors are closed when the
    connection dies. *)

val add_socket : t -> Unix.file_descr -> unit
(** Add a pre-connected bidirectional socket client (tests, benches). *)

val poll : t -> timeout_s:float -> unit
(** One event-loop iteration: sweep expired requests, select, accept,
    read + submit, flush, reap dead connections. Exposed so tests and
    benches can interleave polls with {!Server.step} under a virtual
    clock. *)

val run : t -> unit
(** Loop {!poll} until the server is closed and drained and every
    response is flushed or abandoned. With [drive_server] each iteration
    also runs {!Server.step}, and the poll timeout tracks the step
    result (0 after work, the backoff remainder otherwise). *)
