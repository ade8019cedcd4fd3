(** Fan-out over OCaml 5 domains: one-shot spawns and a persistent pool.

    {!Pool} keeps the worker domains resident so a *batch* of fan-outs
    (the bench's per-group PA-R runs, a server's request stream) pays
    the domain-spawn and first-touch cost once instead of per call.
    {!run} is a one-shot pool: spawn the workers, run an indexed job on
    each, join them all, propagate failures.

    {!plan_jobs} is the honest-parallelism helper: it reconciles a
    requested fan-out with the machine's core count and says loudly
    (via {!warn_downgrade}) when the two differ, so no benchmark can
    silently report a 1-core run as a parallel comparison. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()] — the number of workers beyond
    which extra domains only timeshare. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
(** [with_lock m f] runs [f] with [m] held, releasing it on any exit. *)

(* ------------------------------------------------------------------ *)

type plan = {
  requested : int;  (** what the caller asked for *)
  effective : int;  (** what will actually run *)
  cores : int;  (** {!available_cores} at planning time *)
}

val plan_jobs : requested:int -> unit -> plan
(** Clamp [requested] to [[1 .. available_cores]] — domains beyond the
    core count don't just timeshare under OCaml 5, they stall each other
    on minor-GC stop-the-world rendezvous. *)

val downgraded : plan -> bool
(** [effective < requested]. *)

val warn_downgrade : ?out:out_channel -> label:string -> plan -> unit
(** When {!downgraded}, print a loud, unmissable multi-line warning to
    [out] (default [stderr]) explaining that the run is NOT the parallel
    configuration that was requested. No output otherwise. *)

(* ------------------------------------------------------------------ *)

(** Persistent worker pool: [jobs - 1] resident domains plus the caller
    (which always executes job index 0, preserving {!run}'s property
    that worker 0's work happens on the calling domain — sequential
    replays stay bit-identical). *)
module Pool : sig
  type t

  val create : jobs:int -> unit -> t
  (** [jobs >= 1] resident workers. *)

  val map : t -> (int -> 'a) -> 'a array
  (** Run [f i] for [i] in [0 .. jobs-1] on the resident workers (index 0
      on the calling domain) and return results in index order. Like
      {!run}, every worker finishes before the call returns and the
      first exception (by index) is re-raised. Not reentrant: one [map]
      at a time per pool (concurrent calls raise [Invalid_argument]). *)

  val run_chunked : t -> ?chunk:int -> n:int -> (int -> unit) -> unit
  (** Process items [0 .. n-1] with all workers pulling fixed-size chunks
      off a shared atomic cursor — one pool dispatch for the whole batch
      instead of one per item, and dynamic load balance across chunks.
      [chunk] defaults to a size targeting ~8 chunks per worker. *)

  val shutdown : t -> unit
  (** Join the resident domains. Idempotent; the pool is unusable
      afterwards ([map] raises). *)
end

(* ------------------------------------------------------------------ *)

val run : jobs:int -> (int -> 'a) -> 'a array
(** [run ~jobs f] is {!Pool.map} on a pool of [jobs] workers made for
    the call and shut down after it: [f i] for every [i] in
    [0 .. jobs-1], each on its own domain except [f 0], which runs on the
    calling domain, results in index order. All domains are joined
    before the call returns, even when a job raises; the first exception
    (by index) is then re-raised. [jobs] must be >= 1. *)

val fan_out_jobs : caller:string -> jobs:int option -> pool:Pool.t option ->
  int
(** The width of a fan-out whose caller takes an optional [jobs] and an
    optional [pool]: the pool's width when a pool is given, else [jobs],
    else {!available_cores}. [Invalid_argument] (naming [caller]) when
    [jobs < 1] or when both are given and differ. *)
