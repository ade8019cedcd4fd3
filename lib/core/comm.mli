(** Communication-overhead modelling (the paper's second future-work
    item, Sec. VIII).

    The problem representation does not model inter-task communication
    explicitly; Sec. III notes that "the time needed to read and write
    data for a given implementation can be included within its execution
    time". This module automates exactly that: it folds per-edge data
    transfer costs into the execution times of the consumer's
    implementations, so any scheduler in this repository becomes
    communication-aware without changes. *)

val uniform_cost : int -> src:int -> dst:int -> int
(** The same transfer cost on every edge. *)

val inflate : cost:(src:int -> dst:int -> int) ->
  Resched_platform.Instance.t -> Resched_platform.Instance.t
(** [inflate ~cost inst] returns an instance in which every
    implementation of every task [t] has its execution time increased by
    [factor * Σ_{(p,t) ∈ E} cost ~src:p ~dst:t], rounded up, where
    [factor] is 1.0 for hardware implementations (accelerators pay DMA
    in full) and 0.5 for software ones (cores read through the cache
    hierarchy). Costs must be >= 0; the graph and resource requirements
    are shared, not copied. *)
