(** Memoized floorplan feasibility checks.

    PA-R consults the floorplanner once per improving candidate, and
    candidates drawn from different random orderings frequently produce
    the same multiset of region resource requirements. The cache is a
    plain memo: it keys a {!Floorplanner.check} verdict on the device,
    the engine and the {e canonically sorted} needs array, so any
    permutation of an already-checked region set is a hit. Cached
    placements are permuted back to the query's region order before
    being returned.

    Every verdict handed out is the engine's answer for the sorted
    needs, whatever the cache held before: a warm and a cold cache give
    the same verdicts. Every scheduler in [lib/] checks its region sets
    here (a private cache when the caller passes none), so a cache
    changes how fast a schedule is found, never which one.

    {b One table.} The memo is one hash table behind one mutex, shared
    by every domain that queries it: a lookup and its counter update
    happen under the lock, a miss's check runs outside it, and its
    verdict is inserted under it. Two domains that miss on the same key
    at once both run the check and compute the same verdict. *)

type t

type stats = {
  l1_hits : int;
      (** always [0]. The per-domain memo that fed this counter was
          removed; the field stays because the benchmark harness
          ([perfbench/harness.ml]) still reads it. *)
  hits : int;  (** lookups answered from the table *)
  sub_hits : int;
      (** always [0]. The subsumption index that fed this counter was
          removed; the field stays because the benchmark harness
          ([perfbench/harness.ml]) still reads it. *)
  misses : int;  (** full misses: a fresh check ran *)
  inserts : int;  (** misses whose fresh verdict was stored *)
}

val zero_stats : stats

val diff : stats -> stats -> stats
(** [diff after before] is the component-wise difference — the activity
    between two snapshots of the same cache. *)

val lookups : stats -> int
(** [hits + misses]. *)

val hit_rate : stats -> float
(** [hits] over {!lookups}; [0.] when there were none. *)

val create : ?subsumption:bool -> unit -> t
(** An empty cache with zeroed counters.

    [subsumption] defaults to [false], the only accepted value: [true]
    raises [Invalid_argument]. The dominance index it once enabled was
    removed because it made verdicts depend on insertion history and
    did not pay for itself; the parameter stays because the benchmark
    harness ([perfbench/harness.ml]) still passes it. *)

val stats : t -> stats
(** The counters, read under the table's lock: each lookup lands in
    exactly one of [hits] and [misses]. *)

val check : t -> ?engine:Floorplanner.engine -> Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> Floorplanner.report
(** The verdict of [Floorplanner.check ~engine device sorted], where
    [sorted] is [needs] in canonical order: from the table when it holds
    one, else from a fresh check whose verdict is stored. Feasible
    placements are reported in the caller's region order. Empty [needs]
    bypass the table. *)
