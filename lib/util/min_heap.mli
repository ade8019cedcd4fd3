(** Worklists of node ids popped least key first.

    A worklist over nodes [0 .. n-1] holds each node at most once, in a
    binary min-heap ordered by a caller-owned key array indexed by node
    id. Nothing allocates after {!create}, so the scheduler's incremental
    re-timing loops keep one per arena. A key that changes while its
    node is queued only makes later pops less ordered: every queued node
    is still popped exactly once. *)

type t

val create : int -> t
(** An empty worklist for nodes [0 .. n-1]. *)

val capacity : t -> int
(** The [n] it was created for. *)

val is_empty : t -> bool

val add : t -> key:int array -> int -> unit
(** Queue a node; nothing happens when it is queued already. *)

val pop : t -> key:int array -> int
(** Remove and return a queued node of least key. The worklist must not
    be empty. *)

val clear : t -> unit
(** Drop every queued node. *)
