(** Plain-text table rendering for the benchmark harness and the CLI.

    Produces aligned, boxed ASCII tables similar to the ones in the paper
    (e.g. Table I). *)

type t
(** A table under construction. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers:
    headers are centred, cells right-aligned. *)

val add_row : t -> string list -> unit
(** Append a row; the row length must match the header length. *)

val render : t -> string
(** Render to a string, including a trailing newline. *)

val print : t -> unit
(** [print t] writes [render t] to stdout. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float cell with fixed [decimals] (default 3). *)

val cell_pct : float -> string
(** Format a percentage cell as e.g. ["+14.8%"]. *)
