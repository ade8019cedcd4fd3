(** Implementation cost and resource-efficiency metrics (Sec. V-A/V-C).

    All three quantities depend on the (possibly virtually reduced) FPGA
    resource availability [max_res]:
    - the weights [weightRes_r] (eq. 4), fixed by {!make}, give more
      importance to resource kinds that are scarcer on the device;
    - [cost] (eq. 3) scores an implementation by its relative resource
      footprint plus its execution time normalized by [maxT];
    - [efficiency] (eq. 5) is the time/weighted-area ratio: high values
      identify the *resource-efficient* implementations the scheduler
      prioritizes. *)

type t
(** Precomputed weights for one (instance, max_res) pair. *)

val make : Resched_platform.Instance.t ->
  max_res:Resched_fabric.Resource.t -> t
(** Raises [Invalid_argument] when [max_res] is the zero vector. *)

val cost : t -> Resched_platform.Impl.t -> float
(** Eq. 3. Defined for hardware implementations; a software
    implementation gets only its time term (zero resource term). *)

val efficiency : t -> Resched_platform.Impl.t -> float
(** Eq. 5. Requires a hardware implementation (raises otherwise). *)

val best_hw : t -> Resched_platform.Instance.t -> int ->
  (int * Resched_platform.Impl.t) option
(** The hardware implementation of the given task with the lowest
    {!cost} (ties broken by lower index), with its index. *)
