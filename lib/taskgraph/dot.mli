(** Graphviz export of task graphs, for debugging and documentation. *)

val to_string : Graph.t -> string
(** [to_string g] renders [g] in DOT syntax as the digraph [taskgraph],
    each node labelled with its index. *)

val to_channel : out_channel -> ?label:(int -> string) -> Graph.t -> unit
(** Writes the same digraph with node labels [label] (default: the node
    index). *)
