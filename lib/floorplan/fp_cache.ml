module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource
module Domain_pool = Resched_util.Domain_pool
module Seqlock = Resched_util.Seqlock
module Smap = Map.Make (String)

type stats = {
  l1_hits : int;
  hits : int;
  sub_hits : int;
  misses : int;
  inserts : int;
}

let zero_stats = { l1_hits = 0; hits = 0; sub_hits = 0; misses = 0; inserts = 0 }

let diff a b =
  {
    l1_hits = a.l1_hits - b.l1_hits;
    hits = a.hits - b.hits;
    sub_hits = 0;
    misses = a.misses - b.misses;
    inserts = a.inserts - b.inserts;
  }

let lookups s = s.l1_hits + s.hits + s.misses

let hit_rate s =
  let n = lookups s in
  if n = 0 then 0. else float_of_int (s.l1_hits + s.hits) /. float_of_int n

(* The L2 table, sharded by fused-key hash. Each stripe's map is an
   immutable snapshot published through a seqlock — lookups never block,
   writers replace the snapshot under the seqlock's mutex. Verdicts are
   stored as computed on the sorted needs (placements in sorted order). *)
type stripe = {
  e_map : Floorplanner.verdict Smap.t Seqlock.t;
      (* fused device^\x01^needs key *)
  e_hits : int Atomic.t;
  e_misses : int Atomic.t;
  e_inserts : int Atomic.t;
}

(* Each domain's private memo in front of the shared stripes. Owned
   (table and epoch stamp) exclusively by one domain; the hit counter is
   atomic only so [stats] and [clear] on other domains can read/reset it
   without a data race — the owner is its sole incrementer, so the
   atomic is never contended. *)
type l1 = {
  mutable l1_epoch : int;  (* cache epoch this memo is valid for *)
  l1_tbl : (string, Floorplanner.verdict) Hashtbl.t;
  l1_hits_n : int Atomic.t;
}

type t = {
  exact : stripe array;
  l1_capacity : int;  (* 0 disables the L1 *)
  epoch : int Atomic.t;
  l1_key : l1 Domain.DLS.key;
  l1s : l1 list ref;  (* every domain's memo, for [stats] *)
  l1s_lock : Mutex.t;
  dk_memo : (Device.t * string) option Atomic.t;
      (* last device key, by physical identity — building the key hashes
         the device geometry, far too slow for the per-move query rate
         of the delta kernel (a benign race: both sides write equal
         values for equal devices) *)
}

let default_stripes = 16

let default_l1_capacity = 4096

let create ?(stripes = default_stripes) ?(l1_capacity = default_l1_capacity)
    ?(subsumption = false) () =
  if subsumption then
    invalid_arg "Fp_cache.create: the subsumption index no longer exists";
  let stripes = Stdlib.max 1 stripes in
  let l1_capacity = Stdlib.max 0 l1_capacity in
  let epoch = Atomic.make 0 in
  let l1s = ref [] in
  let l1s_lock = Mutex.create () in
  let l1_key =
    (* Runs on a domain's first lookup through this cache; registering
       the memo lets [stats] fold in hits from every domain. *)
    Domain.DLS.new_key (fun () ->
        let m =
          {
            l1_epoch = Atomic.get epoch;
            l1_tbl = Hashtbl.create (Stdlib.min 64 (Stdlib.max 1 l1_capacity));
            l1_hits_n = Atomic.make 0;
          }
        in
        Domain_pool.with_lock l1s_lock (fun () -> l1s := m :: !l1s);
        m)
  in
  {
    exact =
      Array.init stripes (fun _ ->
          {
            e_map = Seqlock.create Smap.empty;
            e_hits = Atomic.make 0;
            e_misses = Atomic.make 0;
            e_inserts = Atomic.make 0;
          });
    l1_capacity;
    epoch;
    l1_key;
    l1s;
    l1s_lock;
    dk_memo = Atomic.make None;
  }

let epoch t = Atomic.get t.epoch

let stripe_stats t =
  Array.map
    (fun s ->
      {
        zero_stats with
        hits = Atomic.get s.e_hits;
        misses = Atomic.get s.e_misses;
        inserts = Atomic.get s.e_inserts;
      })
    t.exact

let stripe_read_retries t = Array.map (fun s -> Seqlock.retries s.e_map) t.exact

let stats t =
  let l2 =
    Array.fold_left
      (fun acc s ->
        {
          acc with
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          inserts = acc.inserts + s.inserts;
        })
      zero_stats (stripe_stats t)
  in
  let l1_hits =
    Domain_pool.with_lock t.l1s_lock (fun () ->
        List.fold_left (fun acc m -> acc + Atomic.get m.l1_hits_n) 0 !(t.l1s))
  in
  { l2 with l1_hits }

let bump_epoch t = Atomic.incr t.epoch

let clear t =
  Array.iter
    (fun s ->
      Seqlock.set s.e_map Smap.empty;
      Atomic.set s.e_hits 0;
      Atomic.set s.e_misses 0;
      Atomic.set s.e_inserts 0)
    t.exact;
  Domain_pool.with_lock t.l1s_lock (fun () ->
      List.iter (fun m -> Atomic.set m.l1_hits_n 0) !(t.l1s));
  (* Every domain flushes its L1 table itself on next use: resetting a
     foreign domain's Hashtbl here would race with its owner. *)
  bump_epoch t

(* Devices are keyed by name plus a geometry digest: presets have unique
   names, but [Device.make] can reuse a name with a different fabric. *)
let device_key device =
  Printf.sprintf "%s#%x" device.Device.name
    (Hashtbl.hash (device.Device.columns, device.Device.rows))

(* Keys fuse the device and needs keys into one string so the L2
   snapshot can be a plain [Map.Make(String)]; '\x01' cannot start a
   needs key (those begin with an engine tag letter). *)
let fused_key dk nk = dk ^ "\x01" ^ nk

let invalidate_device t device =
  let prefix = device_key device ^ "\x01" in
  Array.iter
    (fun s ->
      Seqlock.update s.e_map (fun m ->
          Smap.filter (fun k _ -> not (String.starts_with ~prefix k)) m))
    t.exact;
  bump_epoch t

let engine_tag = function
  | Floorplanner.Backtracking -> 'b'
  | Floorplanner.Milp -> 'm'

(* [order.(k)] is the original index of the k-th need in canonical order;
   sorting by [Resource.compare] (ties by index, for stability) makes any
   permutation of the same needs hash to the same key. *)
let canonicalize needs =
  let n = Array.length needs in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Resource.compare needs.(i) needs.(j) in
      if c <> 0 then c else compare i j)
    order;
  let sorted = Array.map (fun i -> needs.(i)) order in
  (sorted, order)

(* Decimal digits straight into the buffer: [string_of_int] would
   allocate three short strings per need, a real cost at the query rate
   the delta kernel drives this path at. *)
let rec buf_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    buf_int buf (-n)
  end
  else begin
    if n >= 10 then buf_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

let needs_key ~engine sorted =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (engine_tag engine);
  Array.iter
    (fun (r : Resource.t) ->
      Buffer.add_char buf '|';
      buf_int buf r.Resource.clb;
      Buffer.add_char buf '.';
      buf_int buf r.Resource.bram;
      Buffer.add_char buf '.';
      buf_int buf r.Resource.dsp)
    sorted;
  Buffer.contents buf

let stripe_of t key = t.exact.(Hashtbl.hash key mod Array.length t.exact)

(* ------------------------------------------------------------------ *)
(* Domain-local L1                                                     *)

let get_l1 t =
  let m = Domain.DLS.get t.l1_key in
  let e = Atomic.get t.epoch in
  if m.l1_epoch <> e then begin
    Hashtbl.reset m.l1_tbl;
    m.l1_epoch <- e
  end;
  m

(* Wholesale drop at capacity: simpler than LRU and the table refills
   from L2 hits at memo speed, so the cost is transient. *)
let l1_store t m key verdict =
  if Hashtbl.length m.l1_tbl >= t.l1_capacity then Hashtbl.reset m.l1_tbl;
  Hashtbl.replace m.l1_tbl key verdict

(* Cached placements follow the sorted order; hand them back in the
   caller's order ([sorted.(k) = needs.(order.(k))], so the rectangle
   placed for slot [k] covers original region [order.(k)]). *)
let unpermute order = function
  | Floorplanner.Feasible [||] -> Floorplanner.Feasible [||]
  | Floorplanner.Feasible placements ->
    let out = Array.make (Array.length placements) placements.(0) in
    Array.iteri (fun k rect -> out.(order.(k)) <- rect) placements;
    Floorplanner.Feasible out
  | (Floorplanner.Infeasible | Floorplanner.Unknown) as v -> v

(* A report for a verdict served from L1 or L2. *)
let served ~t0 order verdict =
  {
    Floorplanner.verdict = unpermute order verdict;
    elapsed = Unix.gettimeofday () -. t0;
  }

let check t ?(engine = Floorplanner.Backtracking) device needs =
  if Array.length needs = 0 then Floorplanner.check ~engine device needs
  else begin
    let t0 = Unix.gettimeofday () in
    let dk =
      match Atomic.get t.dk_memo with
      | Some (d, k) when d == device -> k
      | _ ->
        let k = device_key device in
        Atomic.set t.dk_memo (Some (device, k));
        k
    in
    let sorted, order = canonicalize needs in
    let key = fused_key dk (needs_key ~engine sorted) in
    let l1 = if t.l1_capacity > 0 then Some (get_l1 t) else None in
    let l1_cached =
      match l1 with
      | None -> None
      | Some m -> (
        match Hashtbl.find_opt m.l1_tbl key with
        | Some v ->
          Atomic.incr m.l1_hits_n;
          Some v
        | None -> None)
    in
    match l1_cached with
    | Some v -> served ~t0 order v
    | None -> (
      let stripe = stripe_of t key in
      (* Optimistic versioned read of the published snapshot: parallel
         workers never serialize on a stripe to look up. *)
      match Smap.find_opt key (Seqlock.get stripe.e_map) with
      | Some v ->
        Atomic.incr stripe.e_hits;
        (match l1 with Some m -> l1_store t m key v | None -> ());
        served ~t0 order v
      | None ->
        (* Run outside every lock: feasibility is expensive and other
           workers must not stall behind it. A racing duplicate check is
           harmless (both compute the same deterministic verdict). *)
        let report = Floorplanner.check ~engine device sorted in
        let v = report.Floorplanner.verdict in
        Atomic.incr stripe.e_misses;
        let inserted = ref false in
        Seqlock.update stripe.e_map (fun m ->
            if Smap.mem key m then m
            else begin
              inserted := true;
              Smap.add key v m
            end);
        if !inserted then Atomic.incr stripe.e_inserts;
        (match l1 with Some m -> l1_store t m key v | None -> ());
        { report with Floorplanner.verdict = unpermute order v })
  end
