module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource
module Domain_pool = Resched_util.Domain_pool
module Tbl = Hashtbl.Make (String)

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
    zero_stats with
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    inserts = a.inserts - b.inserts;
  }

let lookups s = s.hits + s.misses

let hit_rate s =
  let n = lookups s in
  if n = 0 then 0. else float_of_int s.hits /. float_of_int n

(* One table behind one mutex. Verdicts are stored as computed on the
   sorted needs (placements in sorted order); the counters change only
   under [lock]. *)
type t = {
  lock : Mutex.t;
  table : Floorplanner.verdict Tbl.t;  (* fused device^\x01^needs key *)
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  dk_memo : (Device.t * string) option Atomic.t;
      (* last device key, by physical identity — building the key hashes
         the device geometry, far too slow for the per-move query rate
         of the delta kernel (a benign race: both sides write equal
         values for equal devices) *)
}

let create ?(subsumption = false) () =
  if subsumption then
    invalid_arg "Fp_cache.create: the subsumption index no longer exists";
  {
    lock = Mutex.create ();
    table = Tbl.create 64;
    hits = 0;
    misses = 0;
    inserts = 0;
    dk_memo = Atomic.make None;
  }

let stats t =
  Domain_pool.with_lock t.lock (fun () ->
      { zero_stats with hits = t.hits; misses = t.misses; inserts = t.inserts })

(* Devices are keyed by name plus a geometry digest: presets have unique
   names, but [Device.make] can reuse a name with a different fabric. *)
let device_key t device =
  match Atomic.get t.dk_memo with
  | Some (d, k) when d == device -> k
  | _ ->
    let k =
      Printf.sprintf "%s#%x" device.Device.name
        (Hashtbl.hash (device.Device.columns, device.Device.rows))
    in
    Atomic.set t.dk_memo (Some (device, k));
    k

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

(* The device key, '\x01', then the needs key: '\x01' cannot start a
   needs key (those begin with an engine tag letter). *)
let fused_key t ~engine device sorted =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (device_key t device);
  Buffer.add_char buf '\x01';
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

let check t ?(engine = Floorplanner.Backtracking) device needs =
  if Array.length needs = 0 then Floorplanner.check ~engine device needs
  else begin
    let t0 = Unix.gettimeofday () in
    let sorted, order = canonicalize needs in
    let key = fused_key t ~engine device sorted in
    let cached =
      Domain_pool.with_lock t.lock (fun () ->
          let v = Tbl.find_opt t.table key in
          (match v with
          | Some _ -> t.hits <- t.hits + 1
          | None -> t.misses <- t.misses + 1);
          v)
    in
    match cached with
    | Some v ->
      {
        Floorplanner.verdict = unpermute order v;
        elapsed = Unix.gettimeofday () -. t0;
      }
    | None ->
      (* Run outside the lock: feasibility is expensive and other
         workers must not stall behind it. A racing duplicate check is
         harmless (both compute the same deterministic verdict). *)
      let report = Floorplanner.check ~engine device sorted in
      let v = report.Floorplanner.verdict in
      Domain_pool.with_lock t.lock (fun () ->
          if not (Tbl.mem t.table key) then begin
            Tbl.add t.table key v;
            t.inserts <- t.inserts + 1
          end);
      { report with Floorplanner.verdict = unpermute order v }
  end
