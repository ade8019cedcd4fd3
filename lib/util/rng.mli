(** Deterministic pseudo-random number generation.

    A small, fast, splittable SplitMix64 generator. All randomized parts of
    the library (instance generation, the PA-R scheduler, property tests)
    draw from this module so that every experiment is reproducible from a
    single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val shuffle : t -> 'a list -> 'a list
(** [shuffle t l] is a uniformly shuffled copy of [l]. *)
