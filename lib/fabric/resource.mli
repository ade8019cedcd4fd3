(** Reconfigurable resource vectors.

    The paper's resource set [R] for the evaluated platform is
    {CLB, BRAM, DSP} (Sec. VII-A). We fix the same three kinds; a vector
    counts how many units of each kind an implementation requires, a
    reconfigurable region provides, or a device offers in total. *)

type kind = Clb | Bram | Dsp

val kinds : kind array
(** All resource kinds, in a fixed order (CLB, BRAM, DSP). *)

val kind_name : kind -> string

type t = { clb : int; bram : int; dsp : int }
(** A resource vector; components are unit counts and must be >= 0 in all
    well-formed values. *)

val zero : t
val make : clb:int -> bram:int -> dsp:int -> t
val get : t -> kind -> int
val set : t -> kind -> int -> t
val add : t -> t -> t
val sub : t -> t -> t
(** Component-wise; [sub] may produce negative components (use [fits] to
    test containment first). *)

val scale : t -> float -> t
(** [scale v f] multiplies every component by [f] and truncates toward
    zero. Used for the "virtually reduce [maxRes]" floorplan-retry rule. *)

val fits : t -> within:t -> bool
(** [fits v ~within:w] iff every component of [v] is <= that of [w]. *)

val max_components : t -> t -> t
(** Component-wise maximum. *)

val total_units : t -> int
(** Sum of all components (the denominator of eq. 4). *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val weighted_sum : weights:(kind -> float) -> t -> float
(** [weighted_sum ~weights v] = Σ_r weights r * v_r, the building block of
    eqs. 3 and 5. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
