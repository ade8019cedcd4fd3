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

val pop_budget : int -> int
(** [pop_budget nodes] = [4 * nodes + 64]: how many pops a settle over a
    DAG of [nodes] nodes may spend before it hands the work left over to
    its exact from-scratch pass. A legal settle pops each node about
    once; a budget far above that is only exhausted by a cycle spinning
    the worklist (or a pathological settle order), and the exact pass
    gives the same times either way and reports the cycle. *)
