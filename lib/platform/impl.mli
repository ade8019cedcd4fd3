(** Task implementations (Sec. III).

    Every application task offers a set of implementations [I_t]: software
    ones ([I_t^S], executed on a processor core, no FPGA resources) and
    hardware ones ([I_t^H], executed inside a reconfigurable region whose
    resources must cover [res_i]). *)

type kind = Hw | Sw

type t = {
  kind : kind;
  time : int;
      (** execution time in ticks (includes data movement, per Sec. III) *)
  res : Resched_fabric.Resource.t;
      (** [res_{i,r}]; {!Resched_fabric.Resource.zero} for SW *)
  module_id : int option;
      (** identity of the synthesized hardware module: two tasks whose
          selected implementations share a [module_id] can reuse a
          configured region without reconfiguring (module reuse,
          Sec. II / future work of Sec. VIII) *)
}

val sw : time:int -> t
(** A software implementation. Raises [Invalid_argument] if
    [time <= 0]. *)

val hw : ?module_id:int -> time:int -> res:Resched_fabric.Resource.t -> unit -> t
(** A hardware implementation. Raises [Invalid_argument] if
    [time <= 0], or if [res] has a negative component or is zero. *)

val is_hw : t -> bool
val is_sw : t -> bool
val pp : Format.formatter -> t -> unit
