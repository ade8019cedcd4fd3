module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource

type engine = Backtracking_v1 | Column_interval

type outcome =
  | Placed of Placement.rect array
  | Infeasible
  | Unknown

exception Done of Placement.rect array
exception Budget

(* Search nodes either engine may spend on one query. *)
let node_limit = 200_000

(* ------------------------------------------------------------------ *)
(* Capacity lower bounds: cheap necessary conditions, proven before any
   search. All three are counting arguments over disjoint rectangles of
   whole column x clock-region tiles, so a violation is a certificate of
   infeasibility (never a heuristic rejection). *)

let kind_profile device =
  (* (kind, columns of that kind, units per column x clock-region tile) *)
  Array.map
    (fun kind ->
      let cols = ref 0 and units = ref 0 in
      Array.iteri
        (fun c k ->
          if k = kind then begin
            incr cols;
            if !units = 0 then
              units := Resource.get (Device.column_units device ~col:c) kind
          end)
        device.Device.columns;
      (kind, !cols, !units))
    Resource.kinds

(* Minimal tile footprint of one region: any covering rect of height [h]
   must span at least [ceil (need_k / (units_k * h))] columns of EACH
   kind it consumes, and those columns are distinct; minimizing over the
   admissible heights bounds the rect's area from below. *)
let min_tiles ~rows ~profile (need : Resource.t) =
  let best = ref max_int in
  for h = 1 to rows do
    let width = ref 0 and ok = ref true in
    Array.iter
      (fun (kind, cols, units) ->
        let n = Resource.get need kind in
        if n > 0 then begin
          if units = 0 || cols = 0 then ok := false
          else begin
            let w = (n + (units * h) - 1) / (units * h) in
            if w > cols then ok := false else width := !width + w
          end
        end)
      profile;
    if !ok then best := Stdlib.min !best (h * !width)
  done;
  !best  (* max_int when no height admits a cover: region cannot fit *)

let capacity_bounds_ok device needs =
  let rows = device.Device.rows in
  let ncols = Array.length device.Device.columns in
  let profile = kind_profile device in
  (* (a) per-kind row-slot budget: region i consumes at least
     ceil (need_k / units_k) kind-k column x row tiles, and the device
     has only cols_k * rows of them. *)
  let slots_ok =
    Array.for_all
      (fun (kind, cols, units) ->
        let demand =
          Array.fold_left
            (fun acc (need : Resource.t) ->
              let n = Resource.get need kind in
              if n = 0 then acc
              else if units = 0 then max_int / 2
              else acc + ((n + units - 1) / units))
            0 needs
        in
        demand <= cols * rows)
      profile
  in
  (* (b) total tile budget over the regions' minimal footprints. *)
  slots_ok
  &&
  let area = ref 0 and possible = ref true in
  Array.iter
    (fun need ->
      match min_tiles ~rows ~profile need with
      | t when t = max_int -> possible := false
      | t -> area := !area + t)
    needs;
  !possible && !area <= ncols * rows

(* ------------------------------------------------------------------ *)
(* v1: first-fit greedy + naive backtracking over [Placement.candidates]
   lists. Kept verbatim as the oracle for equivalence tests. *)

let greedy needs_order cands =
  let n = Array.length cands in
  let chosen = Array.make n None in
  let ok =
    List.for_all
      (fun region ->
        let free rect =
          Array.for_all
            (function
              | Some placed -> not (Placement.overlap placed rect)
              | None -> true)
            chosen
        in
        match List.find_opt free cands.(region) with
        | Some rect ->
          chosen.(region) <- Some rect;
          true
        | None -> false)
      needs_order
  in
  if ok then
    Some (Array.map (function Some r -> r | None -> assert false) chosen)
  else None

(* The v1 search over prebuilt candidate lists: [pack_v1] passes the
   lists [Placement.candidates] returns; the v2 fallback passes the
   identical lists it already built via [Placement.grid_candidates]
   (same rects, same order — pinned by a qcheck property), skipping the
   re-enumeration. *)
let pack_v1_on needs cands =
  let n = Array.length needs in
  if n = 0 then Placed [||]
  else begin
    if Array.exists (fun c -> c = []) cands then Infeasible
    else begin
      let indices = List.init n (fun i -> i) in
      let by_cand_count =
        List.sort
          (fun a b ->
            let c = compare (List.length cands.(a)) (List.length cands.(b)) in
            if c <> 0 then c
            else
              compare
                (Resource.total_units needs.(b))
                (Resource.total_units needs.(a)))
          indices
      in
      let by_area_desc =
        List.sort
          (fun a b ->
            compare (Resource.total_units needs.(b))
              (Resource.total_units needs.(a)))
          indices
      in
      let greedy_result =
        match greedy by_cand_count cands with
        | Some p -> Some p
        | None -> greedy by_area_desc cands
      in
      match greedy_result with
      | Some placements -> Placed placements
      | None ->
        (* Exact search: hardest regions first, snuggest candidates
           first; [node_limit] bounds the effort. *)
        let order = Array.of_list by_cand_count in
        let chosen = Array.make n None in
        let nodes = ref 0 in
        let rec go k =
          if k = n then begin
            let result =
              Array.map (function Some r -> r | None -> assert false) chosen
            in
            raise (Done result)
          end;
          let region = order.(k) in
          List.iter
            (fun rect ->
              incr nodes;
              if !nodes > node_limit then raise Budget;
              let clash =
                Array.exists
                  (function
                    | Some placed -> Placement.overlap placed rect
                    | None -> false)
                  chosen
              in
              if not clash then begin
                chosen.(region) <- Some rect;
                go (k + 1);
                chosen.(region) <- None
              end)
            cands.(region)
        in
        (match go 0 with
        | () -> Infeasible
        | exception Done placements -> Placed placements
        | exception Budget -> Unknown)
    end
  end

let pack_v1 device needs =
  pack_v1_on needs (Array.map (Placement.candidates device) needs)

(* ------------------------------------------------------------------ *)
(* v2: column-interval packer.

   Same candidate universe as v1 (identical minimal-width rects, same
   snuggest-first cap — see [Placement.grid_candidates]), searched with:
   - greedy pre-passes in hardest-first orders, then an exact search in
     descending-demand order, identical demands adjacent;
   - symmetry breaking: regions with equal needs share one candidate
     array and must pick strictly increasing candidate indices (any
     packing of interchangeable regions can be reordered this way);
   - dominance pruning: a candidate contained in another candidate of
     the same region makes the container redundant (whenever the bigger
     rect is free, so is the smaller one covering the same need);
   - bitset occupancy: overlap tests are word-AND over per-row column
     masks instead of a scan of already-placed rects;
   - a memoized infeasible-suffix set: a (depth, first-admissible-index,
     occupancy) state that exhausted every candidate without completing
     is recorded and never re-explored from a different prefix. *)

type cand = {
  k_rect : Placement.rect;
  k_w0 : int;  (* first occupancy word of the column span *)
  k_masks : int array;  (* per-word column masks, length k_w1-k_w0+1 *)
  k_tiles : int array;
      (* column x row tiles the rect consumes, per kind plus a total in
         the last slot — a rect occupies every column in its span, so a
         CLB-only region placed over interleaved BRAM/DSP columns still
         burns their tiles; the demand bounds below account for that. *)
}

let bits_per_word = 63

let masks_of_rect ~tiles (r : Placement.rect) =
  let w0 = r.Placement.c0 / bits_per_word in
  let w1 = r.Placement.c1 / bits_per_word in
  let masks = Array.make (w1 - w0 + 1) 0 in
  for c = r.Placement.c0 to r.Placement.c1 do
    let w = (c / bits_per_word) - w0 in
    masks.(w) <- masks.(w) lor (1 lsl (c mod bits_per_word))
  done;
  { k_rect = r; k_w0 = w0; k_masks = masks; k_tiles = tiles r }

(* Cross-call memo of per-need candidate sets: [grid_candidates] and the
   dominance prune are pure functions of (device, need), and schedulers
   re-check overlapping need multisets constantly, so the enumeration is
   paid once per distinct need instead of once per [pack] call. One
   entry per device (the presets are physically shared constants);
   devices are compared structurally as a fallback so look-alike custom
   fabrics cannot alias. *)
type need_entry = {
  ne_raw : Placement.rect list;  (* exactly [Placement.candidates] *)
  ne_cands : cand array;  (* dominance-pruned, with masks and tiles *)
}

type device_memo = {
  dm_device : Device.t;
  dm_tbl : (Resource.t, need_entry) Hashtbl.t;
}

let memo : device_memo list ref = ref []
let memo_mutex = Mutex.create ()
let memo_cap = 8192

let device_memo_for device =
  Mutex.lock memo_mutex;
  let dm =
    match
      List.find_opt
        (fun dm ->
          dm.dm_device == device
          || (dm.dm_device.Device.rows = device.Device.rows
             && dm.dm_device.Device.columns = device.Device.columns))
        !memo
    with
    | Some dm -> dm
    | None ->
      let dm = { dm_device = device; dm_tbl = Hashtbl.create 256 } in
      memo := dm :: !memo;
      dm
  in
  Mutex.unlock memo_mutex;
  dm

let pack_v2 device needs =
  let n = Array.length needs in
  if n = 0 then Placed [||]
  else if not (capacity_bounds_ok device needs) then Infeasible
  else begin
    let g = lazy (Placement.grid device) in
    let ncols = Array.length device.Device.columns in
    let rows = device.Device.rows in
    (* Descending demand, equal demands adjacent (ties by index so the
       order is deterministic). *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c =
          compare (Resource.total_units needs.(b))
            (Resource.total_units needs.(a))
        in
        if c <> 0 then c
        else begin
          let c = Resource.compare needs.(b) needs.(a) in
          if c <> 0 then c else compare a b
        end)
      order;
    (* Units one column x row tile of each kind provides (0 when the
       device has no column of that kind). *)
    let nkinds = Array.length Resource.kinds in
    let units_per_tile =
      Array.map
        (fun kind ->
          match
            Array.find_index (fun k -> k = kind) device.Device.columns
          with
          | None -> 0
          | Some col ->
            Resource.get (Device.column_units device ~col) kind)
        Resource.kinds
    in
    let tiles (r : Placement.rect) =
      let res = Placement.grid_resources (Lazy.force g) r in
      Array.init (nkinds + 1) (fun i ->
          if i = nkinds then Placement.width r * Placement.height r
          else if units_per_tile.(i) = 0 then 0
          else Resource.get res Resource.kinds.(i) / units_per_tile.(i))
    in
    (* One candidate array per distinct need (via the cross-call memo):
       equal needs must share the array for the symmetry-breaking index
       order to be meaningful — the memo returns one physical entry per
       need, so they do. The entry is built outside the lock (a racing
       duplicate build is benign; last insert wins). *)
    let dm = device_memo_for device in
    let entry_for need =
      Mutex.lock memo_mutex;
      let hit = Hashtbl.find_opt dm.dm_tbl need in
      Mutex.unlock memo_mutex;
      match hit with
      | Some e -> e
      | None ->
        let rects = Placement.grid_candidates (Lazy.force g) need in
        (* Dominance pruning: the list is sorted snuggest-first, so
           only earlier (cheaper) candidates can be contained in a
           later one; drop any rect containing a kept predecessor. *)
        let kept = ref [] in
        List.iter
          (fun r ->
            let dominated =
              List.exists (fun a -> Placement.contains ~outer:r a) !kept
            in
            if not dominated then kept := r :: !kept)
          rects;
        let e =
          {
            ne_raw = rects;
            ne_cands = Array.of_list (List.rev_map (masks_of_rect ~tiles) !kept);
          }
        in
        Mutex.lock memo_mutex;
        if Hashtbl.length dm.dm_tbl >= memo_cap then Hashtbl.reset dm.dm_tbl;
        Hashtbl.replace dm.dm_tbl need e;
        Mutex.unlock memo_mutex;
        e
    in
    let entries = Array.map entry_for needs in
    let cand_arrays = Array.map (fun e -> e.ne_cands) entries in
    if Array.exists (fun c -> Array.length c = 0) cand_arrays then Infeasible
    else begin
      (* Tile-demand lower bounds: whatever candidate a region ends up
         using, it consumes at least the component-wise minimum of its
         candidates' tile vectors (dominance pruning keeps the minimal
         rects, so the minima are exact for the searched universe). If
         the minima already oversubscribe the fabric's tiles of any
         kind — or tiles overall — no packing of these candidates
         exists. Sound for the same universe v1 searches, so proving
         [Infeasible] here can only refine a v1 [Unknown]. *)
      let tile_capacity =
        Array.init (nkinds + 1) (fun i ->
            if i = nkinds then ncols * rows
            else
              rows
              * Array.fold_left
                  (fun acc k -> if k = Resource.kinds.(i) then acc + 1 else acc)
                  0 device.Device.columns)
      in
      let min_tiles =
        Array.map
          (fun (arr : cand array) ->
            let m = Array.copy arr.(0).k_tiles in
            Array.iter
              (fun c ->
                Array.iteri
                  (fun i t -> if t < m.(i) then m.(i) <- t)
                  c.k_tiles)
              arr;
            m)
          cand_arrays
      in
      let root_demand = Array.make (nkinds + 1) 0 in
      Array.iter
        (Array.iteri (fun i t -> root_demand.(i) <- root_demand.(i) + t))
        min_tiles;
      if Array.exists2 (fun d c -> d > c) root_demand tile_capacity then
        Infeasible
      else begin
      let words_per_row = ((ncols + bits_per_word - 1) / bits_per_word) in
      let occ = Array.make (rows * words_per_row) 0 in
      let occ_clear () = Array.fill occ 0 (Array.length occ) 0 in
      let free (c : cand) =
        let ok = ref true in
        let r = c.k_rect in
        let nw = Array.length c.k_masks in
        for row = r.Placement.r0 to r.Placement.r1 do
          let base = (row * words_per_row) + c.k_w0 in
          for w = 0 to nw - 1 do
            if occ.(base + w) land c.k_masks.(w) <> 0 then ok := false
          done
        done;
        !ok
      in
      let apply op (c : cand) =
        let r = c.k_rect in
        let nw = Array.length c.k_masks in
        for row = r.Placement.r0 to r.Placement.r1 do
          let base = (row * words_per_row) + c.k_w0 in
          for w = 0 to nw - 1 do
            occ.(base + w) <- op occ.(base + w) c.k_masks.(w)
          done
        done
      in
      let place = apply (fun o m -> o lor m) in
      let unplace = apply (fun o m -> o land lnot m) in
      (* Greedy pre-pass (as in v1): first-fit over the pruned candidate
         arrays, under two orders — hardest-first (fewest candidates)
         and biggest-first. Most feasible sets in the schedulers' stream
         pack greedily; the exact search is only for the remainder. *)
      let greedy_try region_order =
        occ_clear ();
        let placed = Array.make n None in
        let ok =
          Array.for_all
            (fun region ->
              let cands = cand_arrays.(region) in
              let m = Array.length cands in
              let i = ref 0 in
              while !i < m && not (free cands.(!i)) do incr i done;
              if !i = m then false
              else begin
                place cands.(!i);
                placed.(region) <- Some cands.(!i).k_rect;
                true
              end)
            region_order
        in
        occ_clear ();
        if ok then
          Some (Array.map (function Some r -> r | None -> assert false) placed)
        else None
      in
      let by_cand_count =
        let o = Array.copy order in
        Array.sort
          (fun a b ->
            let c =
              compare
                (Array.length cand_arrays.(a))
                (Array.length cand_arrays.(b))
            in
            if c <> 0 then c
            else begin
              let c =
                compare (Resource.total_units needs.(b))
                  (Resource.total_units needs.(a))
              in
              if c <> 0 then c
              else begin
                let c = Resource.compare needs.(b) needs.(a) in
                if c <> 0 then c else compare a b
              end
            end)
          o;
        o
      in
      match
        match greedy_try by_cand_count with
        | Some p -> Some p
        | None -> greedy_try order
      with
      | Some placements -> Placed placements
      | None ->
      (* Exact search, run as a restart portfolio: the DFS is cheap per
         node but a single region order can get stuck in a barren part
         of the space (the feasible sets it misses are usually found
         almost immediately under a different order). Each restart gets
         a slice of the node budget, its own failed-state memo (the memo
         keys depth, which is order-relative) and a different region
         order; [Infeasible] needs full exhaustion and is only valid
         from a completed restart, [Done] is valid from any. *)
      let attempt region_order budget =
        occ_clear ();
        let chosen_idx = Array.make n (-1) in
        let failed : (int * int * int array, unit) Hashtbl.t =
          Hashtbl.create 64
        in
        (* Suffix tile demand in search order: what the regions still to
           be placed at depth [k] must consume, at minimum. Compared
           against the free-tile vector at every node, this prunes whole
           subtrees of tight sets — which is what lets exhaustion (an
           infeasibility proof) finish inside the node budget. *)
        let suffix_demand =
          let s = Array.make_matrix (n + 1) (nkinds + 1) 0 in
          for k = n - 1 downto 0 do
            let m = min_tiles.(region_order.(k)) in
            for i = 0 to nkinds do
              s.(k).(i) <- s.(k + 1).(i) + m.(i)
            done
          done;
          s
        in
        let free_tiles = Array.copy tile_capacity in
        let spend c =
          Array.iteri
            (fun i t -> free_tiles.(i) <- free_tiles.(i) - t)
            c.k_tiles
        in
        let refund c =
          Array.iteri
            (fun i t -> free_tiles.(i) <- free_tiles.(i) + t)
            c.k_tiles
        in
        let nodes = ref 0 in
        let rec go k min_idx =
          if k = n then begin
            let result =
              Array.make n (Array.get cand_arrays 0).(0).k_rect
            in
            for j = 0 to n - 1 do
              result.(region_order.(j)) <-
                cand_arrays.(region_order.(j)).(chosen_idx.(j)).k_rect
            done;
            raise (Done result)
          end;
          if Array.exists2 (fun d f -> d > f) suffix_demand.(k) free_tiles
          then
            (* Remaining demand oversubscribes the free tiles: proven
               empty, no need to enumerate (or memoize) the subtree. *)
            ()
          else begin
            let key = (k, min_idx, Array.copy occ) in
            if not (Hashtbl.mem failed key) then begin
              let region = region_order.(k) in
              let cands = cand_arrays.(region) in
              let m = Array.length cands in
              for i = min_idx to m - 1 do
                incr nodes;
                if !nodes > budget then raise Budget;
                let c = cands.(i) in
                if free c then begin
                  place c;
                  spend c;
                  chosen_idx.(k) <- i;
                  let next_min =
                    if
                      k + 1 < n
                      && Resource.equal needs.(region_order.(k + 1))
                           needs.(region)
                    then i + 1
                    else 0
                  in
                  go (k + 1) next_min;
                  refund c;
                  unplace c
                end
              done;
              Hashtbl.add failed key ()
            end
          end
        in
        match go 0 0 with
        | () -> Infeasible
        | exception Done placements -> Placed placements
        | exception Budget -> Unknown
      in
      (* Restart orders. All are deterministic; all keep regions with
         equal needs adjacent (they share a candidate array, so they tie
         on every sort key and fall through to the index tiebreak),
         which the symmetry-breaking floor relies on. *)
      let shuffled =
        (* Deterministic pseudo-random rank per *distinct* need (equal
           needs share the rank and stay adjacent), from an LCG seeded
           by the region count. *)
        let rank = Array.make n 0 in
        let state = ref (0x9E3779B9 + n) in
        let next () =
          state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
          !state
        in
        let seen = ref [] in
        Array.iteri
          (fun i need ->
            match
              List.find_opt (fun (d, _) -> Resource.equal d need) !seen
            with
            | Some (_, r) -> rank.(i) <- r
            | None ->
              let r = next () in
              seen := (need, r) :: !seen;
              rank.(i) <- r)
          needs;
        let o = Array.init n (fun i -> i) in
        Array.sort
          (fun a b ->
            let c = compare rank.(a) rank.(b) in
            if c <> 0 then c else compare a b)
          o;
        o
      in
      let ascending = Array.init n (fun i -> order.(n - 1 - i)) in
      let slice num den = Stdlib.max 1 (node_limit * num / den) in
      let rec portfolio = function
        | [] ->
          (* Portfolio fallback: every restart exhausted its slice;
             retry with the v1 search, whose different ordering
             occasionally reaches a packing the restarts miss. Rare
             (well under 1% of the schedulers' stream), and it makes
             the engine never less decisive than v1 by construction.
             Runs on the raw candidate lists already in hand — the
             same lists v1 would rebuild. *)
          pack_v1_on needs (Array.map (fun e -> e.ne_raw) entries)
        | (region_order, budget) :: rest -> (
          match attempt region_order budget with
          | Unknown -> portfolio rest
          | decisive -> decisive)
      in
      portfolio
        [
          (order, slice 1 2);
          (by_cand_count, slice 1 4);
          (shuffled, slice 1 8);
          (ascending, slice 1 8);
        ]
      end
    end
  end

let pack ?(engine = Column_interval) device needs =
  match engine with
  | Backtracking_v1 -> pack_v1 device needs
  | Column_interval -> pack_v2 device needs
