(** Search for a non-overlapping assignment of one feasible placement to
    every reconfigurable region. *)

type outcome =
  | Placed of Placement.rect array
      (** one placement per input region, in input order *)
  | Infeasible  (** exhaustively proven: no packing exists *)
  | Unknown  (** node budget exhausted before a conclusion *)

val capacity_bounds_ok :
  Resched_fabric.Device.t -> Resched_fabric.Resource.t array -> bool
(** Cheap necessary conditions for a packing to exist: per-kind
    column x row tile budgets and a total-area bound over each region's
    minimal rectangular footprint. [false] is a proof of infeasibility;
    [true] promises nothing. Used by {!pack} as an early exit. *)

val node_limit : int
(** Search nodes one {!pack} query may spend: 200_000. *)

val pack : Resched_fabric.Device.t -> Resched_fabric.Resource.t array ->
  outcome
(** [pack device needs] searches for placements of all regions within
    a budget of {!node_limit} search nodes, with the column-interval
    packer over flat candidate tables: one immutable table per
    (device, need), memoized across calls, holding the candidates of
    {!Placement.candidates} and their dominance-pruned subset as packed
    ints plus the need's minimum tile vector. Searched with tile-demand
    lower bounds, symmetry breaking over identical demands, bitset
    occupancy, an infeasible-suffix memo and a deterministic restart
    portfolio over several region orders. Each search node ORs the
    occupancy over every row span once, so a candidate's overlap test
    is at most two [land]s against its span's mask, and a run of
    clashing candidates is skipped and counted in one step: the same
    node count, and the same budget exits, as testing them one by one.

    When every restart runs out of budget it replays v1's search (the
    original greedy plus naive backtracking, now the test oracle
    [Packer_oracle.pack_v1]) on the same tables and occupancy, so its
    verdicts never contradict v1's and are never less decisive.

    Raises [Invalid_argument] if any requirement is zero, or if the
    device is too large for the one-int rect encoding (a [Device.make]
    fabric hundreds of columns or rows across; no preset comes close). *)

(** {2 Introspection}

    For the golden-corpus and property tests: which exit decided a
    query, and the candidate table it searched. *)

type path =
  | Capacity_bound  (** {!capacity_bounds_ok} failed: [Infeasible] *)
  | Root_tile_bound
      (** the regions' minimum tile vectors oversubscribe the fabric:
          [Infeasible] *)
  | Greedy  (** a first-fit pre-pass placed every region (or there were none) *)
  | Portfolio  (** a restart of the exact search decided *)
  | Fallback  (** every restart ran out of budget; v1's search answered *)

val pack_path : Resched_fabric.Device.t -> Resched_fabric.Resource.t array ->
  path * int * outcome
(** [pack device needs] with the exit that decided it and the search
    nodes it spent: every candidate the exact search tried, clashing ones
    included, summed over the restarts and the fallback (0 when no search
    ran). A search that ran out of budget counts its whole budget. *)

val observe :
  (Resched_fabric.Device.t -> Resched_fabric.Resource.t array -> path ->
   nodes:int -> outcome -> unit) -> (unit -> 'a) -> 'a
(** [observe f thunk] runs [thunk], calling [f] on every {!pack}
    query any domain makes meanwhile. Not reentrant:
    one observer at a time. *)

val candidates : Resched_fabric.Device.t -> Resched_fabric.Resource.t ->
  Placement.rect array * Placement.rect array
(** [(raw, pruned)] of the table {!pack} searches for one need. [raw] is exactly {!Placement.candidates}; [pruned] keeps, in
    order, the rects that contain no other rect of [raw]. Raises
    [Invalid_argument] on the zero requirement. *)
