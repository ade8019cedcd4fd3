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
    the same verdicts, and so does no cache at all when the caller's
    needs are already sorted. (Where the engine's node budget bites, a
    cache-less check on an unsorted order can differ, since the search
    then explores the regions in a different order.)

    {b Two-level read path.} Each domain owns a private, bounded L1 memo
    (domain-local storage, no locks or shared cache lines at all) in
    front of the shared L2. L1 entries are flushed lazily whenever the
    cache's {e invalidation epoch} moves ({!clear},
    {!invalidate_device}), so a stale verdict never outlives an
    invalidation. The shared L2 table is sharded into stripes whose read
    path is an {e optimistic versioned read} ({!Resched_util.Seqlock})
    over an immutable snapshot — parallel workers take a stripe mutex
    only to insert, never to look up. Counters are [Atomic.t]
    everywhere, so {!stats} and {!stripe_stats} never block a worker. *)

type t

type stats = {
  l1_hits : int;
      (** hits served by a domain-local L1 memo (no shared state
          touched) *)
  hits : int;  (** hits in the shared L2 *)
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
(** [l1_hits + hits + misses]. *)

val hit_rate : stats -> float
(** Combined (L1 + L2) hit rate over {!lookups}; [0.] when there were
    none. *)

val create : ?stripes:int -> ?l1_capacity:int -> ?subsumption:bool ->
  unit -> t
(** An empty cache with zeroed counters, sharded into [stripes]
    (default 16, clamped to >= 1) L2 stripes. [l1_capacity] (default
    4096) bounds each domain's L1 memo — when full it is dropped
    wholesale, which only costs future hits; [0] disables the L1
    entirely (every read goes to the shared L2 — used by tests that
    probe L2 behaviour directly).

    [subsumption] defaults to [false], the only accepted value: [true]
    raises [Invalid_argument]. The dominance index it once enabled was
    removed because it made verdicts depend on insertion history and
    did not pay for itself; the parameter stays because the benchmark
    harness ([perfbench/harness.ml]) still passes it. *)

val stats : t -> stats
(** L2 counters summed over all stripes, plus the L1 counters of every
    domain that has touched this cache. Lock-free: a racing lookup may
    or may not be included, but each lookup lands in exactly one
    counter, so totals never double-count. *)

val stripe_stats : t -> stats array
(** Per-stripe L2 counters; sums to {!stats} minus its [l1_hits] (L1
    hits are domain-local and belong to no stripe, so every row reports
    [l1_hits = 0]). A heavily skewed distribution indicates key-hash
    contention between parallel workers. *)

val stripe_read_retries : t -> int array
(** Per-stripe optimistic-read retries ({!Resched_util.Seqlock.retries})
    — the residual read/write contention on the L2 table. All zeros
    means no lookup ever collided with an insert. *)

val epoch : t -> int
(** Current invalidation epoch; moves on {!clear} and
    {!invalidate_device}. Domain-local L1 memos compare their stamp
    against this and flush when behind. *)

val clear : t -> unit
(** Drop every entry, reset the counters and advance the epoch so every
    domain's L1 flushes on its next use. *)

val invalidate_device : t -> Resched_fabric.Device.t -> unit
(** Drop the L2 entries for one device (e.g. after re-targeting an
    instance); other devices' entries and the counters are kept. Also
    advances the epoch, so every domain's L1 flushes wholesale (the L1
    is not indexed by device; dropping it entirely is the conservative,
    correct choice). *)

val check : t -> ?engine:Floorplanner.engine -> Resched_fabric.Device.t ->
  Resched_fabric.Resource.t array -> Floorplanner.report
(** Drop-in replacement for {!Floorplanner.check}: the verdict of
    [Floorplanner.check ~engine device sorted], where [sorted] is
    [needs] in canonical order. Lookup order: the calling domain's L1
    memo, then the L2 stripe (optimistic versioned read), then a fresh
    check whose verdict is stored in both; every L2 answer is also
    copied into the caller's L1. Feasible placements are reported in the
    caller's region order. Empty [needs] bypass the cache. *)
