(* Tests for the floorplanning substrate: feasible-placement enumeration,
   the packer, the MILP engine and their agreement. *)

module Rng = Resched_util.Rng
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Placement = Resched_floorplan.Placement
module Packer = Resched_floorplan.Packer
module Milp_model = Resched_floorplan.Milp_model
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache

let v ~clb ~bram ~dsp = Resource.make ~clb ~bram ~dsp

let contains ~outer r =
  outer.Placement.c0 <= r.Placement.c0
  && r.Placement.c1 <= outer.Placement.c1
  && outer.Placement.r0 <= r.Placement.r0
  && r.Placement.r1 <= outer.Placement.r1

let test_rect_geometry () =
  let a = { Placement.c0 = 0; c1 = 3; r0 = 0; r1 = 1 } in
  let b = { Placement.c0 = 4; c1 = 6; r0 = 0; r1 = 1 } in
  let c = { Placement.c0 = 2; c1 = 5; r0 = 1; r1 = 2 } in
  Alcotest.(check int) "width" 4 (Placement.width a);
  Alcotest.(check int) "height" 2 (Placement.height a);
  Alcotest.(check bool) "disjoint columns" false (Placement.overlap a b);
  Alcotest.(check bool) "overlapping" true (Placement.overlap a c);
  Alcotest.(check bool) "overlap symmetric" true (Placement.overlap c a);
  Alcotest.(check bool) "contains" true
    (contains ~outer:{ Placement.c0 = 0; c1 = 9; r0 = 0; r1 = 2 } a)

let test_candidates_cover_requirement () =
  let d = Device.xc7z020 in
  let need = v ~clb:700 ~bram:5 ~dsp:10 in
  let cands = Placement.candidates d need in
  Alcotest.(check bool) "some candidates" true (cands <> []);
  List.iter
    (fun rect ->
      let have = Placement.resources d rect in
      Alcotest.(check bool) "covers" true (Resource.fits need ~within:have))
    cands

let test_candidates_minimal_width () =
  let d = Device.minifab in
  let need = v ~clb:60 ~bram:0 ~dsp:0 in
  let cands = Placement.candidates d need in
  List.iter
    (fun (rect : Placement.rect) ->
      if rect.Placement.c0 < rect.Placement.c1 then begin
        (* Dropping the leftmost column must break feasibility. *)
        let narrower = { rect with Placement.c0 = rect.Placement.c0 + 1 } in
        let have = Placement.resources d narrower in
        Alcotest.(check bool) "minimal" false (Resource.fits need ~within:have)
      end)
    cands

let test_candidates_impossible () =
  let d = Device.minifab in
  (* Minifab has 1 BRAM column x 2 rows x 10 BRAM = 20 BRAM total. *)
  Alcotest.(check (list int)) "no candidate" []
    (List.map (fun _ -> 0) (Placement.candidates d (v ~clb:0 ~bram:21 ~dsp:0)))

let test_pack_single () =
  let d = Device.minifab in
  match Packer.pack d [| v ~clb:100 ~bram:2 ~dsp:1 |] with
  | Packer.Placed [| rect |] ->
    let have = Placement.resources d rect in
    Alcotest.(check bool) "covers" true
      (Resource.fits (v ~clb:100 ~bram:2 ~dsp:1) ~within:have)
  | _ -> Alcotest.fail "expected placement"

let test_pack_disjoint () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Placed p ->
    Alcotest.(check bool) "disjoint" false (Placement.overlap p.(0) p.(1))
  | _ -> Alcotest.fail "expected placement"

let test_pack_capacity_infeasible () =
  let d = Device.minifab in
  (* minifab: 6 CLB columns x 2 rows x 50 = 600 CLB; three 250-CLB
     regions exceed capacity. *)
  let needs = [| v ~clb:250 ~bram:0 ~dsp:0; v ~clb:250 ~bram:0 ~dsp:0;
                 v ~clb:250 ~bram:0 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Infeasible -> ()
  | Packer.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Packer.Unknown -> Alcotest.fail "should be provably infeasible"

let test_pack_geometric_infeasible () =
  let d = Device.minifab in
  (* Two regions each needing both the single BRAM column (full height
     would be needed... take BRAM 11 > one row's 10): each must span both
     rows of the unique BRAM column -> they must overlap. *)
  let needs = [| v ~clb:0 ~bram:11 ~dsp:0; v ~clb:0 ~bram:11 ~dsp:0 |] in
  match Packer.pack d needs with
  | Packer.Infeasible -> ()
  | Packer.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Packer.Unknown -> Alcotest.fail "should be provably infeasible"

let test_pack_empty () =
  match Packer.pack Device.minifab [||] with
  | Packer.Placed [||] -> ()
  | _ -> Alcotest.fail "empty set is trivially placed"

let test_milp_engine_agrees_feasible () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:2 ~dsp:0; v ~clb:150 ~bram:0 ~dsp:5 |] in
  (match Milp_model.pack d needs with
  | Milp_model.Placed p ->
    Alcotest.(check bool) "disjoint" false (Placement.overlap p.(0) p.(1))
  | _ -> Alcotest.fail "MILP should place");
  match Packer.pack d needs with
  | Packer.Placed _ -> ()
  | _ -> Alcotest.fail "packer should place"

let test_milp_engine_agrees_infeasible () =
  let d = Device.minifab in
  let needs = [| v ~clb:0 ~bram:11 ~dsp:0; v ~clb:0 ~bram:11 ~dsp:0 |] in
  match Milp_model.pack d needs with
  | Milp_model.Infeasible -> ()
  | Milp_model.Placed _ -> Alcotest.fail "impossible packing accepted"
  | Milp_model.Unknown -> Alcotest.fail "should be provably infeasible"

let test_floorplanner_check_and_validate () =
  let d = Device.xc7z020 in
  let needs = Array.init 6 (fun i -> v ~clb:(400 + (100 * i)) ~bram:2 ~dsp:4) in
  let report = Floorplanner.check d needs in
  match report.Floorplanner.verdict with
  | Floorplanner.Feasible placements ->
    (match Floorplanner.validate d ~needs placements with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "claimed floorplan invalid: %s" msg)
  | _ -> Alcotest.fail "expected feasible"

let test_validate_rejects_bad_plans () =
  let d = Device.minifab in
  let needs = [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |] in
  let r = { Placement.c0 = 0; c1 = 2; r0 = 0; r1 = 0 } in
  (match Floorplanner.validate d ~needs [| r; r |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlap accepted");
  (match Floorplanner.validate d ~needs [| r |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "count mismatch accepted");
  let tiny = { Placement.c0 = 0; c1 = 0; r0 = 0; r1 = 0 } in
  match
    Floorplanner.validate d ~needs
      [| tiny; { Placement.c0 = 4; c1 = 7; r0 = 0; r1 = 1 } |]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "under-provisioned accepted"

(* The capacity bounds at the packer's root decide these without a
   search: total requirements against the device totals, and one BRAM
   column-row slot per BRAM region. *)
let test_quick_capacity_check () =
  let d = Device.minifab in
  let feasible needs =
    match (Floorplanner.check d needs).Floorplanner.verdict with
    | Floorplanner.Feasible _ -> true
    | Floorplanner.Infeasible -> false
    | Floorplanner.Unknown -> Alcotest.fail "undecided capacity query"
  in
  Alcotest.(check bool) "fits" true (feasible [| v ~clb:500 ~bram:10 ~dsp:10 |]);
  Alcotest.(check bool) "too big" false (feasible [| v ~clb:700 ~bram:0 ~dsp:0 |]);
  (* Per-column-type row-slot condition: four bram:5 regions pass the
     device-total check (20 <= 20) but each needs its own BRAM
     column-row slot and minifab has only 1 column x 2 rows. *)
  Alcotest.(check bool) "row slots exhausted" false
    (feasible (Array.make 4 (v ~clb:0 ~bram:5 ~dsp:0)));
  Alcotest.(check bool) "row slots sufficient" true
    (feasible (Array.make 2 (v ~clb:0 ~bram:5 ~dsp:0)))

(* v2-specific dominance / symmetry edge cases. *)

let test_pack_v2_equal_needs () =
  let d = Device.minifab in
  (* Identical demands share one candidate array and ordered anchors;
     the packing must still exist and be disjoint. *)
  let needs = Array.make 4 (v ~clb:100 ~bram:0 ~dsp:0) in
  match Packer.pack d needs with
  | Packer.Placed p ->
    Alcotest.(check (result unit string))
      "validates" (Ok ())
      (Floorplanner.validate d ~needs p)
  | _ -> Alcotest.fail "equal needs should pack"

let test_pack_v2_zero_slack () =
  let d = Device.minifab in
  (* Six 100-CLB regions consume exactly minifab's 600 CLBs: feasible
     with zero slack. A seventh unit anywhere tips it over, and the
     capacity lower bound must prove that without search. *)
  let exact = Array.make 6 (v ~clb:100 ~bram:0 ~dsp:0) in
  (match Packer.pack d exact with
  | Packer.Placed p ->
    Alcotest.(check (result unit string))
      "validates" (Ok ())
      (Floorplanner.validate d ~needs:exact p)
  | _ -> Alcotest.fail "zero-slack packing should exist");
  let over = Array.append exact [| v ~clb:1 ~bram:0 ~dsp:0 |] in
  match Packer.pack d over with
  | Packer.Infeasible -> ()
  | _ -> Alcotest.fail "601 CLBs on a 600-CLB device must be infeasible"

let test_capacity_bounds_ok () =
  let d = Device.minifab in
  Alcotest.(check bool) "sound on feasible" true
    (Packer.capacity_bounds_ok d [| v ~clb:100 ~bram:2 ~dsp:5 |]);
  (* 4 x bram:5 passes device totals but not the per-kind row-slot
     budget (4 slots needed, 1 column x 2 rows available). *)
  Alcotest.(check bool) "row-slot bound" false
    (Packer.capacity_bounds_ok d (Array.make 4 (v ~clb:0 ~bram:5 ~dsp:0)))

let test_cache_counters_and_permutation () =
  let d = Device.minifab in
  let cache = Fp_cache.create () in
  let a = v ~clb:60 ~bram:2 ~dsp:0 and b = v ~clb:220 ~bram:0 ~dsp:4 in
  let first = Fp_cache.check cache d [| a; b |] in
  (* The reversed needs are the same multiset: must hit, and the returned
     placements must cover the *reversed* order. *)
  let second = Fp_cache.check cache d [| b; a |] in
  let st = Fp_cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Fp_cache.misses;
  Alcotest.(check int) "one hit" 1 st.Fp_cache.hits;
  Alcotest.(check int) "l1_hits stays 0" 0 st.Fp_cache.l1_hits;
  Alcotest.(check int) "one insert" 1 st.Fp_cache.inserts;
  (match (first.Floorplanner.verdict, second.Floorplanner.verdict) with
  | Floorplanner.Feasible p1, Floorplanner.Feasible p2 ->
    Alcotest.(check (result unit string))
      "original order validates" (Ok ())
      (Floorplanner.validate d ~needs:[| a; b |] p1);
    Alcotest.(check (result unit string))
      "permuted order validates" (Ok ())
      (Floorplanner.validate d ~needs:[| b; a |] p2)
  | _ -> Alcotest.fail "small region set must be feasible on minifab");
  (* Empty need sets bypass the cache entirely. *)
  (match (Fp_cache.check cache d [||]).Floorplanner.verdict with
  | Floorplanner.Feasible [||] -> ()
  | _ -> Alcotest.fail "empty needs trivially feasible");
  Alcotest.(check int) "empty needs not counted" 2
    (Fp_cache.lookups (Fp_cache.stats cache));
  (* The device is part of the key: the same needs on another fabric
     are a miss of their own. *)
  ignore (Fp_cache.check cache Device.xc7z010 [| a; b |] : Floorplanner.report);
  let st = Fp_cache.stats cache in
  Alcotest.(check (pair int int)) "another device misses and inserts" (2, 2)
    (st.Fp_cache.misses, st.Fp_cache.inserts)

let test_cache_rejects_subsumption () =
  match Fp_cache.create ~subsumption:true () with
  | _ -> Alcotest.fail "~subsumption:true must raise Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A dropped cache must leave nothing behind on the domains that
   queried it: two domains each make [n] caches, query each one 200
   times and drop it, and the live heap after a full major collection
   must not grow with [n]. *)
let live_words_after_caches n =
  let d = Device.minifab in
  let needs =
    Array.init 50 (fun i ->
        if i < 25 then [| v ~clb:(20 + (8 * i)) ~bram:(i mod 3) ~dsp:0 |]
        else
          [| v ~clb:(10 + (4 * i)) ~bram:0 ~dsp:(i mod 4);
             v ~clb:40 ~bram:1 ~dsp:0 |])
  in
  ignore
    (Resched_util.Domain_pool.run ~jobs:2 (fun _ ->
         for _ = 1 to n do
           let cache = Fp_cache.create () in
           for q = 0 to 199 do
             ignore
               (Fp_cache.check cache d needs.(q mod Array.length needs)
                 : Floorplanner.report)
           done
         done));
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_cache_dropped_leaves_nothing () =
  let base = live_words_after_caches 10 in
  let grown = live_words_after_caches 100 in
  if grown - base > 20_000 then
    Alcotest.failf
      "live words grew by %d after 180 more dropped caches (%d -> %d)"
      (grown - base) base grown

(* What [Fp_cache.check] promises: the engine's verdict for the needs in
   canonical order (stable [Resource.compare] sort), placements handed
   back in the caller's order. *)
let check_sorted d needs =
  let order = Array.init (Array.length needs) Fun.id in
  Array.stable_sort (fun i j -> Resource.compare needs.(i) needs.(j)) order;
  let sorted = Array.map (fun i -> needs.(i)) order in
  match (Floorplanner.check d sorted).Floorplanner.verdict with
  | Floorplanner.Feasible rects ->
    let out = Array.copy rects in
    Array.iteri (fun k r -> out.(order.(k)) <- r) rects;
    Floorplanner.Feasible out
  | (Floorplanner.Infeasible | Floorplanner.Unknown) as verdict -> verdict

(* Multi-domain stress: several workers hammer one shared cache and
   every verdict must equal the uncached sequential check of the sorted
   needs — a pure function of (device, needs), so no interleaving may
   change an answer. Afterwards the cache is quiescent, so the counters
   must account for every lookup exactly once and hold one insert per
   distinct query. *)
let prop_cache_concurrent_matches_oracle =
  let devices = [| Device.minifab; Device.xc7z010 |] in
  let pool =
    [|
      [| v ~clb:60 ~bram:0 ~dsp:0 |];
      [| v ~clb:100 ~bram:2 ~dsp:1 |];
      [| v ~clb:100 ~bram:0 ~dsp:0; v ~clb:100 ~bram:0 ~dsp:0 |];
      [| v ~clb:250 ~bram:0 ~dsp:0; v ~clb:250 ~bram:0 ~dsp:0;
         v ~clb:250 ~bram:0 ~dsp:0 |];
      [| v ~clb:50 ~bram:1 ~dsp:0; v ~clb:80 ~bram:0 ~dsp:1 |];
      [| v ~clb:0 ~bram:21 ~dsp:0 |];
      [| v ~clb:30 ~bram:0 ~dsp:0; v ~clb:30 ~bram:0 ~dsp:0;
         v ~clb:30 ~bram:0 ~dsp:0; v ~clb:30 ~bram:0 ~dsp:0 |];
      [| v ~clb:600 ~bram:0 ~dsp:0 |];
    |]
  in
  QCheck.Test.make ~count:4
    ~name:"concurrent fp_cache agrees with the sequential oracle"
    QCheck.(
      list_of_size
        Gen.(int_range 12 48)
        (pair
           (int_bound (Array.length devices - 1))
           (int_bound (Array.length pool - 1))))
    (fun ops ->
      let ops = Array.of_list ops in
      let oracle =
        Array.map (fun (di, ni) -> check_sorted devices.(di) pool.(ni)) ops
      in
      let cache = Fp_cache.create () in
      let jobs = 4 in
      let failures = Atomic.make 0 in
      ignore
        (Resched_util.Domain_pool.run ~jobs (fun _ ->
             Array.iteri
               (fun i (di, ni) ->
                 let r = Fp_cache.check cache devices.(di) pool.(ni) in
                 if r.Floorplanner.verdict <> oracle.(i) then
                   Atomic.incr failures)
               ops));
      let st = Fp_cache.stats cache in
      let distinct = List.length (List.sort_uniq compare (Array.to_list ops)) in
      Atomic.get failures = 0
      && Fp_cache.lookups st = jobs * Array.length ops
      && st.Fp_cache.l1_hits = 0
      && st.Fp_cache.inserts = distinct
      && st.Fp_cache.misses >= distinct)

(* Property: whenever the packer places, the MILP engine never proves
   infeasibility, and vice versa: MILP placement implies the packer does
   not prove infeasibility. Verdicts are cross-validated. *)
let prop_engines_consistent =
  QCheck.Test.make ~count:40 ~name:"packer/MILP engines consistent"
    QCheck.(pair int (int_range 1 4))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let d = Device.minifab in
      let needs =
        Array.init count (fun _ ->
            v
              ~clb:(50 + Rng.int rng 200)
              ~bram:(Rng.int rng 8)
              ~dsp:(Rng.int rng 12))
      in
      let p = Packer.pack d needs in
      let m = Milp_model.pack d needs in
      let valid placements =
        Floorplanner.validate d ~needs placements = Ok ()
      in
      (match p with Packer.Placed pl -> valid pl | _ -> true)
      && (match m with Milp_model.Placed pl -> valid pl | _ -> true)
      &&
      match (p, m) with
      | Packer.Placed _, Milp_model.Infeasible -> false
      | Packer.Infeasible, Milp_model.Placed _ -> false
      | _ -> true)

(* Dominance pruning by its definition: walk the snuggest-first list
   and drop every rect that contains a rect already kept. *)
let quadratic_prune rects =
  List.rev
    (List.fold_left
       (fun kept r ->
         if List.exists (fun a -> contains ~outer:r a) kept then kept
         else r :: kept)
       [] rects)

(* A random fabric: 1..60 columns of random kinds (CLB-heavy, as on the
   real parts) crossed by 1..7 clock-region rows. *)
let random_fabric rng =
  let columns =
    Array.init (1 + Rng.int rng 60) (fun _ ->
        match Rng.int rng 6 with
        | 0 -> Resource.Bram
        | 1 -> Resource.Dsp
        | _ -> Resource.Clb)
  in
  Device.make ~name:"random" ~columns ~rows:(1 + Rng.int rng 7)
    ~model:Resched_fabric.Bitstream.seven_series

(* The packer's flat candidate table is a drop-in replacement for the
   v1 sliding-window scan: same rects, same snuggest-first order. Its
   O(1) dominance rule (a rect is redundant iff its columns already
   cover the need one row shorter) keeps exactly what the quadratic
   prune keeps. On the presets and on random fabrics, short and tall;
   each case checks a need of up to 1,200 CLBs and one scaled to the
   device (at most a quarter of its CLBs, so small fabrics get
   feasible needs too). *)
let prop_grid_candidates_identical =
  QCheck.Test.make ~count:350 ~name:"grid candidates = v1 candidates"
    QCheck.(pair int (int_range 0 4))
    (fun (seed, dev_idx) ->
      let rng = Rng.create seed in
      let d =
        if dev_idx = 4 then random_fabric rng
        else [| Device.minifab; Device.xc7z010; Device.xc7z020; Device.xc7z045 |].(dev_idx)
      in
      let wide =
        v
          ~clb:(1 + Rng.int rng 1200)
          ~bram:(Rng.int rng 20) ~dsp:(Rng.int rng 30)
      in
      let scale = Stdlib.max 1 (d.Device.total.Resource.clb / 4) in
      let scaled =
        v
          ~clb:(1 + Rng.int rng scale)
          ~bram:(Rng.int rng 3 * Rng.int rng 12)
          ~dsp:(Rng.int rng 3 * Rng.int rng 25)
      in
      List.for_all
        (fun need ->
          let v1 = Placement.candidates d need in
          let raw, pruned = Packer.candidates d need in
          raw = Array.of_list v1 && pruned = Array.of_list (quadratic_prune v1))
        [ wide; scaled ])

(* The column-interval packer against the v1 oracle: never a
   contradiction, never less decisive, and placements always validate.
   (v2 may *refine* a v1 [Unknown] to a decisive verdict — its pruning
   reaches deeper into the same search space within the node budget.) *)
let compatible d needs ~v1 ~v2 =
  (match v2 with
  | Packer.Placed pl -> Floorplanner.validate d ~needs pl = Ok ()
  | _ -> true)
  &&
  match (v1, v2) with
  | Packer.Placed _, Packer.Infeasible
  | Packer.Infeasible, Packer.Placed _ ->
    false (* contradiction *)
  | (Packer.Placed _ | Packer.Infeasible), Packer.Unknown ->
    false (* v2 lost decisiveness *)
  | _ -> true

let agrees_with_v1 d needs =
  compatible d needs
    ~v1:(Packer_oracle.pack_v1 d needs)
    ~v2:(Packer.pack d needs)

let prop_packer_v2_agrees_v1 =
  QCheck.Test.make ~count:100 ~name:"packer v2 vs v1 oracle"
    QCheck.(pair int (int_range 1 5))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let d = Device.minifab in
      let needs =
        Array.init count (fun _ ->
            v
              ~clb:(50 + Rng.int rng 250)
              ~bram:(Rng.int rng 11)
              ~dsp:(Rng.int rng 21))
      in
      agrees_with_v1 d needs)

(* A tight 6..12-region set: 70..94% of the device's CLBs, split by
   random weights, with BRAM/DSP demands on about half the regions. *)
let tight_needs rng d =
  let count = 6 + Rng.int rng 7 in
  let fill = 0.7 +. (float_of_int (Rng.int rng 25) /. 100.) in
  let total = d.Device.total in
  let weights = Array.init count (fun _ -> 1 + Rng.int rng 10) in
  let sum = Array.fold_left ( + ) 0 weights in
  let some cap =
    if Rng.int rng 2 = 0 then Rng.int rng (1 + (2 * cap / count)) else 0
  in
  Array.map
    (fun w ->
      let share = fill *. float_of_int w /. float_of_int sum in
      v
        ~clb:(Stdlib.max 1 (int_of_float (share *. float_of_int total.Resource.clb)))
        ~bram:(some total.Resource.bram)
        ~dsp:(some total.Resource.dsp))
    weights

(* The same relation on tight XC7Z010/XC7Z020 sets, where the restart
   portfolio runs out of budget and v2 falls back to v1's search on its
   own tables. *)
let prop_packer_v2_agrees_v1_tight =
  QCheck.Test.make ~count:100 ~name:"packer v2 vs v1 oracle on tight sets"
    QCheck.(pair int bool)
    (fun (seed, big) ->
      let rng = Rng.create seed in
      let d = if big then Device.xc7z020 else Device.xc7z010 in
      agrees_with_v1 d (tight_needs rng d))

(* The same relation on tight XC7Z045 sets. Its 172 columns take three
   occupancy words per row, so only there can a rect span three words
   (about an eighth of these sets' candidates do) and take the exact
   search's generic overlap test. About half the sets reach the
   fallback, whose outcome must also equal v1's exactly. v1 takes about
   a quarter second per set here, hence the small count. *)
let prop_packer_v2_agrees_v1_xc7z045 =
  QCheck.Test.make ~count:10
    ~name:"packer v2 vs v1 oracle on tight XC7Z045 sets" QCheck.int
    (fun seed ->
      let d = Device.xc7z045 in
      let needs = tight_needs (Rng.create seed) d in
      let v1 = Packer_oracle.pack_v1 d needs in
      let path, _, v2 = Packer.pack_path d needs in
      compatible d needs ~v1 ~v2 && (path <> Packer.Fallback || v2 = v1))

(* The cache is a plain memo: whatever it already holds, and whatever
   order related queries (scaled and truncated variants of one need set)
   arrive in, every verdict — placements included — equals the engine's
   check of the sorted needs. *)
let prop_cache_is_plain_memo =
  QCheck.Test.make ~count:60 ~name:"fp_cache = check of sorted needs"
    QCheck.(pair int (int_range 1 4))
    (fun (seed, count) ->
      (* Re-clamp: QCheck's int_range shrinker can step outside the
         range while minimizing a counterexample. *)
      let count = Stdlib.max 1 (Stdlib.min 4 count) in
      let rng = Rng.create seed in
      let d = Device.minifab in
      let base =
        Array.init count (fun _ ->
            v
              ~clb:(50 + Rng.int rng 250)
              ~bram:(Rng.int rng 11)
              ~dsp:(Rng.int rng 21))
      in
      let scaled f = Array.map (fun r -> Resource.scale r f) base in
      let variants =
        List.map
          (Array.map (fun r ->
               Resource.max_components r (v ~clb:1 ~bram:0 ~dsp:0)))
          [
            base; scaled 0.9; scaled 0.81;
            Array.sub base 0 (Stdlib.max 1 (count - 1));
            scaled 1.1; base;
          ]
      in
      let expected = List.map (check_sorted d) variants in
      let valid needs = function
        | Floorplanner.Feasible rects ->
          Floorplanner.validate d ~needs rects = Ok ()
        | Floorplanner.Infeasible | Floorplanner.Unknown -> true
      in
      let through queries =
        let cache = Fp_cache.create () in
        List.map
          (fun needs -> (Fp_cache.check cache d needs).Floorplanner.verdict)
          queries
      in
      List.for_all2 valid variants expected
      && through variants = expected
      && List.rev (through (List.rev variants)) = expected)

let () =
  Alcotest.run "floorplan"
    [
      ( "placement",
        [
          Alcotest.test_case "rect geometry" `Quick test_rect_geometry;
          Alcotest.test_case "candidates cover" `Quick
            test_candidates_cover_requirement;
          Alcotest.test_case "candidates minimal" `Quick
            test_candidates_minimal_width;
          Alcotest.test_case "impossible requirement" `Quick
            test_candidates_impossible;
        ] );
      ( "packer",
        [
          Alcotest.test_case "single region" `Quick test_pack_single;
          Alcotest.test_case "disjoint regions" `Quick test_pack_disjoint;
          Alcotest.test_case "capacity infeasible" `Quick
            test_pack_capacity_infeasible;
          Alcotest.test_case "geometric infeasible" `Quick
            test_pack_geometric_infeasible;
          Alcotest.test_case "empty" `Quick test_pack_empty;
          Alcotest.test_case "v2 equal needs" `Quick test_pack_v2_equal_needs;
          Alcotest.test_case "v2 zero slack" `Quick test_pack_v2_zero_slack;
          Alcotest.test_case "capacity bounds" `Quick test_capacity_bounds_ok;
        ] );
      ( "milp-engine",
        [
          Alcotest.test_case "feasible agreement" `Quick
            test_milp_engine_agrees_feasible;
          Alcotest.test_case "infeasible agreement" `Quick
            test_milp_engine_agrees_infeasible;
        ] );
      ( "floorplanner",
        [
          Alcotest.test_case "check + validate" `Quick
            test_floorplanner_check_and_validate;
          Alcotest.test_case "validate rejects bad plans" `Quick
            test_validate_rejects_bad_plans;
          Alcotest.test_case "quick capacity check" `Quick
            test_quick_capacity_check;
        ] );
      ( "fp-cache",
        [
          Alcotest.test_case "counters and permutation" `Quick
            test_cache_counters_and_permutation;
          Alcotest.test_case "subsumption rejected" `Quick
            test_cache_rejects_subsumption;
          Alcotest.test_case "dropped caches leave nothing live" `Quick
            test_cache_dropped_leaves_nothing;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cache_concurrent_matches_oracle;
          QCheck_alcotest.to_alcotest prop_engines_consistent;
          QCheck_alcotest.to_alcotest prop_grid_candidates_identical;
          QCheck_alcotest.to_alcotest prop_packer_v2_agrees_v1;
          QCheck_alcotest.to_alcotest prop_packer_v2_agrees_v1_tight;
          QCheck_alcotest.to_alcotest prop_packer_v2_agrees_v1_xc7z045;
          QCheck_alcotest.to_alcotest prop_cache_is_plain_memo;
        ] );
    ]
