(** Committed partial schedules for the iterative IS-k baseline
    (Deiana et al. [6]).

    IS-k fixes tasks chunk by chunk; this module is the bookkeeping of
    everything already committed: per-region occupation and currently
    loaded module, per-processor occupation, the reconfiguration
    controller timeline, and per-task decisions. Engines explore
    extensions by {!copy}ing the state, {!apply}ing options and comparing
    {!makespan}s, then commit the best. *)

module Resource = Resched_fabric.Resource

type region = {
  rid : int;
  res : Resource.t;
  reconf : int;  (** reconf_s in ticks *)
  free_at : int;
  loaded_module : int option;
  hosted_rev : (int * int * int) list;  (** (task, start, end), newest first *)
  recs_rev : (int * int * int * int) list;
      (** (t_in, t_out, start, end), newest first *)
}

type t = {
  inst : Resched_platform.Instance.t;
  max_res : Resource.t;
  module_reuse : bool;
  regions : region list;  (** newest first *)
  nregions : int;
  used : Resource.t;
  proc_free : int array;
  proc_tasks_rev : (int * int * int) list array;
  ctrl_free : int;
  finish : int array;  (** committed end per task; -1 when unscheduled *)
  impl_sel : int array;
  place : int array;  (** region id, or -(processor+1), or min_int *)
  makespan : int;
}

type option_ =
  | Opt_sw of { impl_idx : int; proc : int }
  | Opt_existing of { impl_idx : int; rid : int }
  | Opt_new of { impl_idx : int }

val create : ?module_reuse:bool -> ?resource_scale:float ->
  Resched_platform.Instance.t -> t

val options : t -> int -> option_ list
(** All legal options for scheduling the task next: its fastest software
    implementation on each processor, every hardware implementation on
    every existing region it fits, and every hardware implementation on a
    fresh region when FPGA capacity allows. Never empty (software always
    exists). *)

val apply : t -> task:int -> option_ -> t
(** Commit the option with earliest-start semantics: the task (and its
    reconfiguration, when joining a configured region) is placed at the
    earliest instants compatible with dependencies, the region/processor
    occupation and the reconfiguration controller. Reconfiguration
    prefetching falls out naturally (the reconfiguration does not wait
    for the task's inputs). *)

val to_schedule : t -> Resched_core.Schedule.t
(** Freeze a fully-committed state ([finish] everywhere >= 0) into a
    checkable schedule. Raises [Invalid_argument] otherwise. *)
