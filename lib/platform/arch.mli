(** Target architecture description (Sec. III): a set of homogeneous
    processor cores tightly coupled with a partially-reconfigurable FPGA
    served by a single reconfiguration controller. *)

type t = {
  processors : int;  (** |P|, number of cores *)
  device : Resched_fabric.Device.t;
  bits_per_tick : float;
      (** [recFreq]: configuration bits loaded per tick by the single
          reconfiguration controller *)
}

val make : processors:int -> device:Resched_fabric.Device.t ->
  ?bits_per_tick:float -> unit -> t
(** [bits_per_tick] defaults to
    {!Resched_fabric.Device.icap_default_bits_per_us}. Raises
    [Invalid_argument] if [processors <= 0], or if [bits_per_tick] is
    not positive and finite. *)

val zedboard : t
(** The paper's target: ZedBoard (dual-core ARM Cortex-A9 + XC7Z020). *)

val microzed : t
(** MicroZed-class: dual-core ARM + XC7Z010 (half the fabric). *)

val zc706 : t
(** ZC706-class: dual-core ARM + XC7Z045 (4x the fabric). *)

val mini : t
(** A single-core architecture over {!Resched_fabric.Device.minifab}, for
    tests and the quickstart. *)

val max_res : t -> Resched_fabric.Resource.t
(** [maxRes_r] for all kinds: the device's total resources. *)

val reconf_ticks : t -> Resched_fabric.Resource.t -> int
(** Reconfiguration time (eq. 2) of a region with the given resources on
    this architecture. *)

val pp : Format.formatter -> t -> unit
