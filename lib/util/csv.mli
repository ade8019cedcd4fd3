(** Minimal CSV writing, used to dump benchmark series (the figures'
    underlying data) next to the printed tables. *)

val escape : string -> string
(** RFC-4180 escaping of a single field. *)

val row_to_string : string list -> string
(** Join escaped fields with commas (no newline). *)

val write : out_channel -> string list list -> unit
(** Write all rows, one per line. *)
