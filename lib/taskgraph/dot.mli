(** Graphviz export of task graphs, for debugging and documentation. *)

val to_channel : out_channel -> ?label:(int -> string) -> Graph.t -> unit
(** Writes [g] in DOT syntax as the digraph [taskgraph], each node
    labelled with [label] (default: the node index). *)
