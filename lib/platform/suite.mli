(** The paper's synthetic benchmark suite (Sec. VII-A).

    100 pseudo-random task graphs in 10 groups of 10; the graphs of a
    group share the task count, which ranges over 10..100 across groups.
    Every task has one software implementation and three hardware
    implementations with heterogeneous CLB/BRAM/DSP requirements trading
    execution time against area (fast/large, medium, slow/small — exactly
    the trade-off of Fig. 1). Some tasks share a common implementation
    (same [module_id]s) so that module reuse is exploitable.

    The generator is seeded and fully deterministic. *)

type params = {
  fast_time_min : int;
  fast_time_max : int;  (** fastest HW implementation time range (ticks) *)
  medium_time_factor : float;  (** medium impl time = factor * fast *)
  small_time_factor : float;  (** small impl time = factor * fast *)
  medium_area_factor : float;  (** medium impl area = factor * large *)
  small_area_factor : float;  (** small impl area = factor * large *)
  sw_factor_min : float;
  sw_factor_max : float;  (** SW time = factor * fast HW time *)
  clb_min : int;
  clb_max : int;  (** CLB demand of the large implementation *)
  p_dsp_heavy : float;  (** probability a task also needs DSPs *)
  p_bram_heavy : float;  (** probability a task also needs BRAMs *)
  p_shared_impl : float;
      (** probability a task reuses an implementation template generated
          for an earlier task of the same instance *)
  width_of_tasks : int -> int;  (** DAG layer width per task count *)
  edge_probability : float;
}

val default_params : params
(** Calibrated against the XC7Z020 so that FPGA contention appears from
    roughly 20 tasks on, as in the paper's result discussion. *)

val instance : ?params:params -> ?arch:Arch.t -> Resched_util.Rng.t ->
  tasks:int -> Instance.t
(** One pseudo-random instance ([arch] defaults to {!Arch.zedboard}). *)

val group : ?params:params -> ?arch:Arch.t -> seed:int -> tasks:int ->
  count:int -> unit -> Instance.t list
(** [count] instances of [tasks] tasks each, derived from [seed]. *)

val full : ?graphs_per_group:int -> seed:int -> unit ->
  (int * Instance.t list) list
(** The whole suite: groups of [graphs_per_group] (default 10) default
    XC7Z020 instances for task counts 10, 20, ..., 100, as
    [(tasks, instances)] pairs. *)
