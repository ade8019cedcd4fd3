module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource

type outcome =
  | Placed of Placement.rect array
  | Infeasible
  | Unknown

type path = Capacity_bound | Root_tile_bound | Greedy | Portfolio | Fallback

exception Done of Placement.rect array
exception Budget

(* Search nodes one query may spend. *)
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
(* Flat candidate tables.

   A [fabric] holds one device's prefix sums: per-row units of each kind
   (any column span's resources in O(1)) and per-kind column counts (the
   tiles of each kind a rect burns — a rect occupies every column of its
   span, so a CLB-only region placed over interleaved BRAM/DSP columns
   still burns their tiles). A rect is one int: fields r0, c0, r1, c1 of
   [f_bits] bits each, high to low, under the rect's area in resource
   units. An ascending int sort is then v1's snuggest-first order with
   its (r0, c0, r1, c1) tiebreak. *)

type table = {
  t_raw : int array;  (* exactly [Placement.candidates], snuggest first *)
  t_pruned : int array;
      (* the raw rects that contain no other raw rect, in raw order; [t_raw]
         itself when none does *)
  t_min : int array;
      (* per-kind tiles, then total tiles: the component-wise minimum over
         the candidates *)
}

type fabric = {
  f_device : Device.t;
  f_ncols : int;
  f_rows : int;
  f_clb : int array;  (* per-row units of columns [0..c-1]; length ncols+1 *)
  f_bram : int array;
  f_dsp : int array;
  f_tot : int array;  (* all kinds together: area in resource units *)
  f_cols : int array array;
      (* per kind: columns of that kind among [0..c-1] (all zero for a kind
         whose columns provide no units, which burns no tiles of it) *)
  f_capacity : int array;  (* per-kind tiles, then all tiles *)
  f_bits : int;  (* field shifts: c1 at 0, r1 at f_bits, c0 at f_b2, r0 at f_b3 *)
  f_b2 : int;
  f_b3 : int;
  f_mask : int;
  f_words : int;  (* occupancy words per clock-region row *)
  f_word : int array;  (* per column: its occupancy word in a row *)
  f_from : int array;
      (* per column: mask of it and the columns after it in its word *)
  f_upto : int array;
      (* per column: mask of it and the columns before it in its word *)
  f_tables : (Resource.t, table) Hashtbl.t;
}

let nslots = Array.length Resource.kinds + 1
let bits_per_word = 63

let rec bit_width x = if x = 0 then 0 else 1 + bit_width (x lsr 1)

let make_fabric device =
  let ncols = Array.length device.Device.columns in
  let rows = device.Device.rows in
  let prefix f =
    let a = Array.make (ncols + 1) 0 in
    for c = 0 to ncols - 1 do
      a.(c + 1) <- a.(c) + f c
    done;
    a
  in
  let units c = Device.column_units device ~col:c in
  let f_cols =
    Array.map
      (fun kind ->
        prefix (fun c ->
            if device.Device.columns.(c) = kind
               && Resource.get (units c) kind > 0
            then 1
            else 0))
      Resource.kinds
  in
  let f_tot = prefix (fun c -> Resource.total_units (units c)) in
  let bits = Stdlib.max 1 (bit_width (Stdlib.max ncols rows)) in
  (* The four rect fields and the largest area share one int. *)
  if (4 * bits) + bit_width (rows * f_tot.(ncols)) > 62 then
    invalid_arg "Packer: fabric too large to pack";
  {
    f_device = device;
    f_ncols = ncols;
    f_rows = rows;
    f_clb = prefix (fun c -> (units c).Resource.clb);
    f_bram = prefix (fun c -> (units c).Resource.bram);
    f_dsp = prefix (fun c -> (units c).Resource.dsp);
    f_tot;
    f_cols;
    f_capacity =
      Array.init nslots (fun i ->
          if i = nslots - 1 then ncols * rows
          else
            rows
            * Array.fold_left
                (fun acc k -> if k = Resource.kinds.(i) then acc + 1 else acc)
                0 device.Device.columns);
    f_bits = bits;
    f_b2 = 2 * bits;
    f_b3 = 3 * bits;
    f_mask = (1 lsl bits) - 1;
    f_words = (ncols + bits_per_word - 1) / bits_per_word;
    f_word = Array.init ncols (fun c -> c / bits_per_word);
    f_from = Array.init ncols (fun c -> -1 lsl (c mod bits_per_word));
    f_upto = Array.init ncols (fun c -> -1 lsr (62 - (c mod bits_per_word)));
    f_tables = Hashtbl.create 256;
  }

let[@inline] c1_of f k = k land f.f_mask
let[@inline] r1_of f k = (k lsr f.f_bits) land f.f_mask
let[@inline] c0_of f k = (k lsr f.f_b2) land f.f_mask
let[@inline] r0_of f k = (k lsr f.f_b3) land f.f_mask

let rect_of f k =
  { Placement.c0 = c0_of f k; c1 = c1_of f k; r0 = r0_of f k; r1 = r1_of f k }

(* Tiles of slot [i] (a kind, or the total in the last slot) a rect
   burns. *)
let tiles f k i =
  let h = r1_of f k - r0_of f k + 1 in
  if i = nslots - 1 then h * (c1_of f k - c0_of f k + 1)
  else h * (f.f_cols.(i).(c1_of f k + 1) - f.f_cols.(i).(c0_of f k))

(* Does the column span [c0..c1] cover [need] over [h] rows? Rows are
   uniform, so only the height matters. *)
let covers f (need : Resource.t) ~h c0 c1 =
  h * (f.f_clb.(c1 + 1) - f.f_clb.(c0)) >= need.Resource.clb
  && h * (f.f_bram.(c1 + 1) - f.f_bram.(c0)) >= need.Resource.bram
  && h * (f.f_dsp.(c1 + 1) - f.f_dsp.(c0)) >= need.Resource.dsp

(* v1's enumeration (see [Placement.candidates]): per row span, a sliding
   window yields every minimal-width column span; the snuggest
   [Placement.candidate_count_cap] survive.

   Dominance: a rect containing another candidate is redundant (whenever
   it is free, so is the smaller one covering the same need). v1's rects
   are minimal windows, so a candidate R = [c0..c1] x h rows contains
   another candidate S iff h > 1 and [c0..c1] already covers the need
   over h-1 rows:
   - S inside R with R's row span would be a proper sub-window of R's
     minimal window, so S is shorter; and covering is monotone in the
     span and the height, so S's cover over fewer rows makes R's columns
     cover over h-1 rows.
   - Conversely, the minimal window inside [c0..c1] over R's top h-1 rows
     is a candidate, strictly smaller in area (the span holds units), so
     it sorts before R and survives the cap whenever R does.
   That is the rule below: O(1) per rect instead of a scan of the kept
   ones. *)
let build_table f (need : Resource.t) =
  if Resource.is_zero need then
    invalid_arg "Placement.candidates: zero requirement";
  let ncols = f.f_ncols and rows = f.f_rows and b = f.f_bits in
  let buf = Array.make (rows * (rows + 1) / 2 * ncols) 0 in
  let len = ref 0 in
  for r0 = 0 to rows - 1 do
    for r1 = r0 to rows - 1 do
      let h = r1 - r0 + 1 in
      let c0 = ref 0 and c1 = ref (-1) in
      let have_fits () = !c1 >= 0 && !c0 <= !c1 && covers f need ~h !c0 !c1 in
      let continue_ = ref true in
      while !continue_ do
        while (not (have_fits ())) && !c1 < ncols - 1 do
          incr c1
        done;
        if not (have_fits ()) then continue_ := false
        else begin
          while !c0 + 1 <= !c1 && covers f need ~h (!c0 + 1) !c1 do
            incr c0
          done;
          let area = h * (f.f_tot.(!c1 + 1) - f.f_tot.(!c0)) in
          buf.(!len) <-
            (((((((area lsl b) lor r0) lsl b) lor !c0) lsl b) lor r1) lsl b)
            lor !c1;
          incr len;
          incr c0;
          if !c0 > !c1 && !c1 = ncols - 1 then continue_ := false
        end
      done
    done
  done;
  let all = Array.sub buf 0 !len in
  Array.stable_sort Int.compare all;
  let raw =
    if !len <= Placement.candidate_count_cap then all
    else Array.sub all 0 Placement.candidate_count_cap
  in
  let keep k =
    let h = r1_of f k - r0_of f k + 1 in
    h = 1 || not (covers f need ~h:(h - 1) (c0_of f k) (c1_of f k))
  in
  let pruned =
    if Array.for_all keep raw then raw
    else Array.of_list (List.filter keep (Array.to_list raw))
  in
  let t_min = Array.make nslots max_int in
  Array.iter
    (fun k ->
      for i = 0 to nslots - 1 do
        t_min.(i) <- Int.min t_min.(i) (tiles f k i)
      done)
    pruned;
  { t_raw = raw; t_pruned = pruned; t_min }

(* Cross-call memo: one fabric per device, one table per need in it.
   Schedulers re-check overlapping need multisets constantly, so a
   table is built once per distinct need instead of once per [pack]
   call. The presets are physically shared constants; other devices are
   compared by geometry and units so look-alike fabrics cannot alias.
   Tables are immutable, so any domain may search one; a racing
   duplicate build is benign (last insert wins). *)
let fabrics : fabric list ref = ref []
let memo_mutex = Mutex.create ()
let memo_cap = 8192

let same_fabric (a : Device.t) (b : Device.t) =
  a == b
  || a.Device.rows = b.Device.rows
     && a.Device.columns = b.Device.columns
     && Array.for_all
          (fun col ->
            Resource.equal (Device.column_units a ~col)
              (Device.column_units b ~col))
          (Array.init (Array.length a.Device.columns) Fun.id)

let fabric_for device =
  Mutex.lock memo_mutex;
  let f =
    match List.find_opt (fun f -> same_fabric f.f_device device) !fabrics with
    | Some f -> f
    | None ->
      let f = make_fabric device in
      fabrics := f :: !fabrics;
      f
  in
  Mutex.unlock memo_mutex;
  f

let table_for f need =
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt f.f_tables need in
  Mutex.unlock memo_mutex;
  match hit with
  | Some t -> t
  | None ->
    let t = build_table f need in
    Mutex.lock memo_mutex;
    if Hashtbl.length f.f_tables >= memo_cap then Hashtbl.reset f.f_tables;
    Hashtbl.replace f.f_tables need t;
    Mutex.unlock memo_mutex;
    t

(* ------------------------------------------------------------------ *)
(* Bitset occupancy: one [bits_per_word]-column word per (row, word of
   the row); a rect is free iff no word of its rows meets its column
   mask. Two rects overlap iff they share a tile, so this is exactly
   v1's [Placement.overlap] scan against every placed rect. *)

(* The columns of span [c0..c1] that fall in word [w] of a row, as a
   mask, for a word the span meets. *)
let word_mask f ~c0 ~c1 w =
  (if w = f.f_word.(c0) then f.f_from.(c0) else -1)
  land (if w = f.f_word.(c1) then f.f_upto.(c1) else -1)

let free f occ k =
  let c0 = c0_of f k and c1 = c1_of f k in
  let ok = ref true and row = ref (r0_of f k) in
  while !ok && !row <= r1_of f k do
    let base = !row * f.f_words in
    for w = f.f_word.(c0) to f.f_word.(c1) do
      if occ.(base + w) land word_mask f ~c0 ~c1 w <> 0 then ok := false
    done;
    incr row
  done;
  !ok

(* Row-span masks. The exact search tests each candidate far more often
   than it places one, and nearly every test clashes, so each DFS node
   first ORs the occupancy over every row span [r0..r1] into
   [f_words] words: rows * (rows + 1) / 2 spans, in [span_index] order
   (12 words on XC7Z020). A candidate is free iff its columns miss its
   own span's mask, which for a rect over at most two words of a row
   is two [land]s and no loop over rows. *)
let span_index f r0 r1 = (r0 * f.f_rows) - (r0 * (r0 - 1) / 2) + (r1 - r0)

let span_words f = f.f_rows * (f.f_rows + 1) / 2 * f.f_words

let fill_spans f occ spans base =
  let words = f.f_words and j = ref base in
  for r0 = 0 to f.f_rows - 1 do
    for w = 0 to words - 1 do
      spans.(!j + w) <- occ.((r0 * words) + w)
    done;
    j := !j + words;
    for r1 = r0 + 1 to f.f_rows - 1 do
      for w = 0 to words - 1 do
        spans.(!j + w) <- spans.(!j - words + w) lor occ.((r1 * words) + w)
      done;
      j := !j + words
    done
  done

(* Each candidate's test against the span masks, laid out flat before
   the search, three ints per candidate: the offset of its first word's
   mask among a node's span masks, its columns' mask in that word, and
   their mask in the next word (0 when they fall in one word). A rect
   over more than two words of a row (only on a fabric wider than 126
   columns) gets offset -1, which sends it to [free]. *)
let probes f codes =
  let p = Array.make (3 * Array.length codes) 0 in
  Array.iteri
    (fun i k ->
      let c0 = c0_of f k and c1 = c1_of f k in
      let w0 = f.f_word.(c0) and w1 = f.f_word.(c1) in
      if w1 > w0 + 1 then p.(3 * i) <- -1
      else begin
        p.(3 * i) <- (span_index f (r0_of f k) (r1_of f k) * f.f_words) + w0;
        p.((3 * i) + 1) <- word_mask f ~c0 ~c1 w0;
        if w1 > w0 then p.((3 * i) + 2) <- word_mask f ~c0 ~c1 w1
      end)
    codes;
  p

let toggle f occ k =
  let c0 = c0_of f k and c1 = c1_of f k in
  for row = r0_of f k to r1_of f k do
    let base = row * f.f_words in
    for w = f.f_word.(c0) to f.f_word.(c1) do
      occ.(base + w) <- occ.(base + w) lxor word_mask f ~c0 ~c1 w
    done
  done

(* Placing a free rect and removing a placed one both flip its bits. *)
let place = toggle
let unplace = toggle

(* First-fit over [codes.(region)] in [region_order]; every region gets
   the first rect clear of the ones placed before it. *)
let greedy_codes f ~occ codes region_order =
  Array.fill occ 0 (Array.length occ) 0;
  let placed = Array.make (Array.length codes) 0 in
  let ok =
    Array.for_all
      (fun region ->
        let cands = codes.(region) in
        let m = Array.length cands in
        let i = ref 0 in
        while !i < m && not (free f occ cands.(!i)) do incr i done;
        !i < m
        && begin
          place f occ cands.(!i);
          placed.(region) <- cands.(!i);
          true
        end)
      region_order
  in
  Array.fill occ 0 (Array.length occ) 0;
  if ok then Some (Array.map (rect_of f) placed) else None

(* Failed-state sets of the exact search, keyed on one int array:
   depth, first admissible candidate index, then the occupancy words. *)
module States = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* Occupancy words differ mostly in their high bits, so every word is
     folded down as well as multiplied up. *)
  let hash (a : int array) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      let x = (!h lxor a.(i)) * 0x2545F4914F6CDD1D in
      h := x lxor (x lsr 29)
    done;
    !h land max_int
end)

(* ------------------------------------------------------------------ *)
(* v2: column-interval packer. v1, the original first-fit greedy plus
   naive backtracking over [Placement.candidates] lists, is the test
   oracle [Packer_oracle.pack_v1] (test/oracle/).

   Same candidate universe as v1 (the raw table), searched with:
   - greedy pre-passes in hardest-first orders, then an exact search in
     descending-demand order, identical demands adjacent;
   - symmetry breaking: regions with equal needs share one candidate
     table and must pick strictly increasing candidate indices (any
     packing of interchangeable regions can be reordered this way);
   - dominance pruning (see [build_table]);
   - tile-demand lower bounds, at the root and per node;
   - bitset occupancy;
   - a memoized infeasible-suffix set: a (depth, first-admissible-index,
     occupancy) state that exhausted every candidate without completing
     is recorded and never re-explored from a different prefix;
   - a restart portfolio over several region orders, and when every
     restart runs out of budget, v1's search replayed on the raw tables
     and the same occupancy. *)

let pack_v2 device needs =
  let n = Array.length needs in
  if n = 0 then (Greedy, 0, Placed [||])
  else if not (capacity_bounds_ok device needs) then
    (Capacity_bound, 0, Infeasible)
  else begin
    let f = fabric_for device in
    let total i = Resource.total_units needs.(i) in
    (* Descending demand, equal demands adjacent (ties by index so the
       order is deterministic). *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = compare (total b) (total a) in
        if c <> 0 then c
        else begin
          let c = Resource.compare needs.(b) needs.(a) in
          if c <> 0 then c else compare a b
        end)
      order;
    let tables = Array.map (table_for f) needs in
    let pruned = Array.map (fun t -> t.t_pruned) tables in
    (* Tile-demand lower bound: whatever candidate a region ends up
       using, it burns at least the component-wise minimum of its
       candidates' tiles. If the minima already oversubscribe the
       fabric's tiles of any kind, or tiles overall, no packing of these
       candidates exists. Sound for the universe v1 searches, so proving
       [Infeasible] here can only refine a v1 [Unknown]. *)
    let oversubscribed () =
      let demand = Array.make nslots 0 in
      Array.iter
        (fun t -> Array.iteri (fun i m -> demand.(i) <- demand.(i) + m) t.t_min)
        tables;
      Array.exists2 (fun d c -> d > c) demand f.f_capacity
    in
    if Array.exists (fun c -> Array.length c = 0) pruned || oversubscribed ()
    then (Root_tile_bound, 0, Infeasible)
    else begin
      let occ = Array.make (f.f_rows * f.f_words) 0 in
      (* Greedy pre-pass: first-fit over the pruned tables, hardest-first
         (fewest candidates), then biggest-first. Most feasible sets in
         the schedulers' stream pack greedily; the exact search is only
         for the remainder. *)
      let by_cand_count =
        let o = Array.copy order in
        Array.sort
          (fun a b ->
            let c = compare (Array.length pruned.(a)) (Array.length pruned.(b)) in
            if c <> 0 then c
            else begin
              let c = compare (total b) (total a) in
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
        match greedy_codes f ~occ pruned by_cand_count with
        | Some p -> Some p
        | None -> greedy_codes f ~occ pruned order
      with
      | Some placements -> (Greedy, 0, Placed placements)
      | None ->
        (* Search nodes spent, summed over the restarts and the fallback. *)
        let spent = ref 0 in
        (* Per-depth row-span masks, with one word of slack: a one-word
           rect's probe also reads the word after its own, under a zero
           mask. *)
        let stride = span_words f in
        let spans = Array.make ((n * stride) + 1) 0 in
        (* The exact search: a DFS over [cands] in [region_order] that
           counts every candidate it tries, clashing ones included, and
           gives up past [budget]. With [prune] it is the restart search:
           equal needs pick strictly increasing indices, a subtree whose
           suffix tile demand oversubscribes the free tiles is skipped, and
           a (depth, first admissible index, occupancy) state that was
           exhausted once is never re-explored. Without, it is v1's
           search. *)
        let search ~prune cands probe region_order budget =
          Array.fill occ 0 (Array.length occ) 0;
          let chosen = Array.make n 0 in
          let failed = States.create 64 in
          (* Suffix tile demand in search order: what the regions still to
             be placed at depth [k] must burn, at minimum. Compared against
             the free tiles at every node, this prunes whole subtrees of
             tight sets, which is what lets exhaustion (an infeasibility
             proof) finish inside the node budget. *)
          let suffix = Array.make ((n + 1) * nslots) 0 in
          for k = n - 1 downto 0 do
            let m = tables.(region_order.(k)).t_min in
            for i = 0 to nslots - 1 do
              suffix.((k * nslots) + i) <- suffix.(((k + 1) * nslots) + i) + m.(i)
            done
          done;
          let free_tiles = Array.copy f.f_capacity in
          let starved k =
            let rec go i =
              i < nslots && (suffix.((k * nslots) + i) > free_tiles.(i) || go (i + 1))
            in
            prune && go 0
          in
          let nodes = ref 0 in
          let rec go k min_idx =
            if k = n then begin
              let result = Array.make n (rect_of f 0) in
              for j = 0 to n - 1 do
                result.(region_order.(j)) <- rect_of f chosen.(j)
              done;
              raise (Done result)
            end;
            (* Remaining demand oversubscribes the free tiles: proven
               empty, no need to enumerate (or memoize) the subtree. *)
            if not (starved k) then begin
              let key = if prune then Array.append [| k; min_idx |] occ else [||] in
              if not (prune && States.mem failed key) then begin
                let region = region_order.(k) in
                let cands = cands.(region) and probe = probe.(region) in
                let m = Array.length cands and base = k * stride in
                fill_spans f occ spans base;
                let i = ref min_idx in
                while !i < m do
                  (* Skip the run of clashing candidates from [!i] to the
                     next free one [!j] (or the end) in one step. The
                     per-candidate count would pass [budget] inside the
                     run or at [!j] exactly when the run's total does, and
                     nothing is placed in between, so counting it in bulk
                     spends the same nodes and gives up at the same
                     point. The reads are unchecked: [probe] holds three
                     ints per candidate, and an offset is below [stride],
                     so [base + o + 1] is at most [n * stride]. *)
                  let j = ref !i in
                  while
                    !j < m
                    &&
                    let p = 3 * !j in
                    let o = Array.unsafe_get probe p in
                    if o < 0 then not (free f occ cands.(!j))
                    else
                      Array.unsafe_get spans (base + o)
                      land Array.unsafe_get probe (p + 1)
                      <> 0
                      || Array.unsafe_get spans (base + o + 1)
                         land Array.unsafe_get probe (p + 2)
                         <> 0
                  do
                    incr j
                  done;
                  let stop = Int.min (!j + 1) m in
                  nodes := !nodes + (stop - !i);
                  if !nodes > budget then raise Budget;
                  if !j < m then begin
                    let c = cands.(!j) in
                    place f occ c;
                    for s = 0 to nslots - 1 do
                      free_tiles.(s) <- free_tiles.(s) - tiles f c s
                    done;
                    chosen.(k) <- c;
                    let next_min =
                      if
                        prune && k + 1 < n
                        && Resource.equal needs.(region_order.(k + 1))
                             needs.(region)
                      then !j + 1
                      else 0
                    in
                    go (k + 1) next_min;
                    for s = 0 to nslots - 1 do
                      free_tiles.(s) <- free_tiles.(s) + tiles f c s
                    done;
                    unplace f occ c
                  end;
                  i := stop
                done;
                if prune then States.add failed key ()
              end
            end
          in
          let outcome =
            match go 0 0 with
            | () -> Infeasible
            | exception Done placements -> Placed placements
            | exception Budget -> Unknown
          in
          spent := !spent + Int.min !nodes budget;
          outcome
        in
        (* v1's search, replayed on the raw tables: its stable region
           orders, first-fit passes and unpruned DFS against [node_limit],
           so it reaches v1's verdict and placement. *)
        let fallback () =
          let raw = Array.map (fun t -> t.t_raw) tables in
          let sorted cmp =
            let o = Array.init n Fun.id in
            Array.stable_sort cmp o;
            o
          in
          let by_area_desc = sorted (fun a b -> compare (total b) (total a)) in
          let v1_order =
            sorted (fun a b ->
                let c = compare (Array.length raw.(a)) (Array.length raw.(b)) in
                if c <> 0 then c else compare (total b) (total a))
          in
          match
            match greedy_codes f ~occ raw v1_order with
            | Some p -> Some p
            | None -> greedy_codes f ~occ raw by_area_desc
          with
          | Some placements -> Placed placements
          | None ->
            search ~prune:false raw (Array.map (probes f) raw) v1_order
              node_limit
        in
        (* Restart orders. All are deterministic; all keep regions with
           equal needs adjacent (they tie on every sort key and fall
           through to the index tiebreak), which the symmetry-breaking
           floor relies on. *)
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
          let o = Array.init n Fun.id in
          Array.sort
            (fun a b ->
              let c = compare rank.(a) rank.(b) in
              if c <> 0 then c else compare a b)
            o;
          o
        in
        let ascending = Array.init n (fun i -> order.(n - 1 - i)) in
        let pruned_probe = Array.map (probes f) pruned in
        let slice num den = Stdlib.max 1 (node_limit * num / den) in
        let rec portfolio = function
          | [] ->
            (* Every restart exhausted its slice: v1's search, whose
               different ordering occasionally reaches a packing the
               restarts miss. It makes the engine never less decisive
               than v1 by construction. *)
            let outcome = fallback () in
            (Fallback, !spent, outcome)
          | (region_order, budget) :: rest -> (
            (* A restart: a slice of the node budget, its own failed-state
               memo (depth is order-relative) and its own region order. A
               single order can get stuck in a barren part of the space
               that another leaves almost at once. [Infeasible] needs full
               exhaustion, so only a completed restart reports it. *)
            match search ~prune:true pruned pruned_probe region_order budget with
            | Unknown -> portfolio rest
            | decisive -> (Portfolio, !spent, decisive))
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

(* ------------------------------------------------------------------ *)

let observer = Atomic.make None

let observe f thunk =
  Atomic.set observer (Some f);
  Fun.protect ~finally:(fun () -> Atomic.set observer None) thunk

let pack_path device needs =
  let ((path, nodes, outcome) as r) = pack_v2 device needs in
  (match Atomic.get observer with
  | Some f -> f device needs path ~nodes outcome
  | None -> ());
  r

let pack device needs =
  let _, _, outcome = pack_path device needs in
  outcome

let candidates device need =
  let f = fabric_for device in
  let t = table_for f need in
  (Array.map (rect_of f) t.t_raw, Array.map (rect_of f) t.t_pruned)
