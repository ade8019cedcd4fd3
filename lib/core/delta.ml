module Graph = Resched_taskgraph.Graph
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Floorplanner = Resched_floorplan.Floorplanner
module Fp_cache = Resched_floorplan.Fp_cache
module Placement = Resched_floorplan.Placement
module Min_heap = Resched_util.Min_heap

type config = {
  engine : Floorplanner.engine;
  cache : Fp_cache.t option;
}

let default_config = { engine = Floorplanner.Backtracking; cache = None }

type move =
  | Reassign of { task : int; region : int }
  | Swap of { task_a : int; task_b : int }
  | To_sw of { task : int; processor : int }
  | To_hw of { task : int; impl_idx : int; region : int option }
  | Merge of { dst : int; src : int }
  | Split of { region : int; keep : int }

type verdict = { makespan : int; fp_feasible : bool; needs_changed : bool }

(* Every mutable cell lives in one of a fixed set of named int arrays (or
   the few Resource / global cells below), so an undo entry can name the
   cell by (field, index) instead of holding an array reference — array
   references would dangle when a capacity grow reallocates the
   backing store between a write and its rollback. *)
type field =
  | F_t  (* node earliest start, tasks then spec slots *)
  | F_impl  (* task implementation index *)
  | F_dur  (* task duration *)
  | F_mod  (* task module id, -1 none *)
  | F_regof  (* region id, -1 = software *)
  | F_procof  (* processor id, -1 = hardware *)
  | F_prev  (* chain predecessor task, -1 *)
  | F_next  (* chain successor task, -1 *)
  | F_spec_after  (* spec slot between task and its chain successor, -1 *)
  | F_sp_pred  (* spec: t_in task *)
  | F_sp_succ  (* spec: t_out task *)
  | F_sp_region
  | F_sp_dur
  | F_sp_cprev  (* controller chain links (slot ids), -1 ends *)
  | F_sp_cnext
  | F_sp_live  (* 0/1 *)
  | F_rg_head  (* first task of the region chain, -1; doubles as the
                  free-list link of dead slots *)
  | F_rg_count
  | F_rg_reconf
  | F_rg_live  (* 0/1 *)
  | F_proc_head  (* first task of each processor chain, -1 *)

type undo =
  | U_mark  (* move boundary *)
  | U_int of field * int * int
  | U_rgres of int * Resource.t
  | U_resof of int * Resource.t
  | U_used of Resource.t
  | U_spfree of int
  | U_rgfree of int
  | U_ctrl_head of int
  | U_ctrl_tail of int
  | U_nctrl of int
  | U_nspecs of int
  | U_nregions of int
  | U_mk of int
  | U_fp of bool * Placement.rect array

type t = {
  inst : Instance.t;
  device : Device.t;
  arch : Arch.t;
  n : int;
  processors : int;
  module_reuse : bool;
  resource_scale : float;
  fp_engine : Floorplanner.engine;
  fp_cache : Fp_cache.t Lazy.t;
      (* [config.cache], or a private cache made on the first L0 miss *)
  (* static data-dependency CSR, forward and reverse *)
  d_soff : int array;
  d_sadj : int array;
  d_poff : int array;
  d_padj : int array;
  (* per-task state *)
  impl_idx : int array;
  dur : int array;
  mod_id : int array;
  res_of : Resource.t array;  (* current implementation's needs *)
  regof : int array;
  procof : int array;
  prev_ : int array;
  next_ : int array;
  spec_after : int array;
  (* spec slots (grown on demand) *)
  mutable sp_pred : int array;
  mutable sp_succ : int array;
  mutable sp_region : int array;
  mutable sp_dur : int array;
  mutable sp_cprev : int array;
  mutable sp_cnext : int array;
  mutable sp_live : int array;
  mutable nspecs : int;  (* high-water slot count *)
  mutable sp_free : int;  (* free-list head through sp_cnext, -1 *)
  mutable ctrl_head : int;
  mutable ctrl_tail : int;
  mutable nctrl : int;  (* live controller-chain length *)
  (* region slots (grown on demand) *)
  mutable rg_head : int array;
  mutable rg_count : int array;
  mutable rg_reconf : int array;
  mutable rg_live : int array;
  mutable rg_res : Resource.t array;
  mutable nregions : int;
  mutable rg_free : int;  (* free-list head through rg_head, -1 *)
  proc_head : int array;
  (* resolved node times: tasks 0..n-1, spec slot s at n+s *)
  mutable t : int array;
  mutable mk : int;
  mutable used : Resource.t;  (* sum of live region demands *)
  mutable fp_ok : bool;
  mutable fp_places : Placement.rect array;
  (* undo log, newest first; U_mark separates moves *)
  mutable undo : undo list;
  (* evaluation scratch (node-indexed, grown with the spec table) *)
  mutable stamp : int array;
  mutable gen : int;
  mutable indeg : int array;
  mutable queue : int array;
  mutable heap : Min_heap.t;  (* [eval_incremental]'s worklist *)
  mutable suffix : int array;
  mutable stk : int array;
  sortbuf : int array;  (* member collection, task-indexed *)
  (* direct-mapped floorplan-verdict memo keyed by the live demand
     multiset in region order. A verdict is a pure function of the
     multiset, so entries never go stale across moves or rollbacks; a
     hit skips the shared cache's sort/key/unpermute work entirely.
     Key layout: [|clb0; bram0; dsp0; clb1; ...|]; [||] marks empty. *)
  mutable l0_key : int array array;  (* [||] until the first query *)
  mutable l0_ok : bool array;
  mutable l0_places : Placement.rect array array;
  mutable times_valid : bool;
      (* do the stored times satisfy every current edge? pruned
         reachability relies on this; structural edits that break the
         potential clear it until the next evaluation *)
}

let instance d = d.inst
let makespan d = d.mk
let fp_feasible d = d.fp_ok
let size d = d.n

let live_regions d =
  let acc = ref [] in
  for r = d.nregions - 1 downto 0 do
    if d.rg_live.(r) = 1 then acc := r :: !acc
  done;
  !acc

let region_task_count d r =
  if r < 0 || r >= d.nregions || d.rg_live.(r) = 0 then
    invalid_arg "Delta.region_task_count: dead region";
  d.rg_count.(r)

(* ------------------------------------------------------------------ *)
(* Logged writes. Every structural mutation goes through these so one
   [rollback] replays the exact inverse. *)

let arr_of d = function
  | F_t -> d.t
  | F_impl -> d.impl_idx
  | F_dur -> d.dur
  | F_mod -> d.mod_id
  | F_regof -> d.regof
  | F_procof -> d.procof
  | F_prev -> d.prev_
  | F_next -> d.next_
  | F_spec_after -> d.spec_after
  | F_sp_pred -> d.sp_pred
  | F_sp_succ -> d.sp_succ
  | F_sp_region -> d.sp_region
  | F_sp_dur -> d.sp_dur
  | F_sp_cprev -> d.sp_cprev
  | F_sp_cnext -> d.sp_cnext
  | F_sp_live -> d.sp_live
  | F_rg_head -> d.rg_head
  | F_rg_count -> d.rg_count
  | F_rg_reconf -> d.rg_reconf
  | F_rg_live -> d.rg_live
  | F_proc_head -> d.proc_head

let seti d f i v =
  let a = arr_of d f in
  let old = a.(i) in
  if old <> v then begin
    d.undo <- U_int (f, i, old) :: d.undo;
    a.(i) <- v
  end

let set_rgres d i v =
  if not (Resource.equal d.rg_res.(i) v) then begin
    d.undo <- U_rgres (i, d.rg_res.(i)) :: d.undo;
    d.rg_res.(i) <- v
  end

let set_resof d i v =
  if not (Resource.equal d.res_of.(i) v) then begin
    d.undo <- U_resof (i, d.res_of.(i)) :: d.undo;
    d.res_of.(i) <- v
  end

let set_used d v =
  if not (Resource.equal d.used v) then begin
    d.undo <- U_used d.used :: d.undo;
    d.used <- v
  end

let set_spfree d v =
  if d.sp_free <> v then begin
    d.undo <- U_spfree d.sp_free :: d.undo;
    d.sp_free <- v
  end

let set_rgfree d v =
  if d.rg_free <> v then begin
    d.undo <- U_rgfree d.rg_free :: d.undo;
    d.rg_free <- v
  end

let set_ctrl_head d v =
  if d.ctrl_head <> v then begin
    d.undo <- U_ctrl_head d.ctrl_head :: d.undo;
    d.ctrl_head <- v
  end

let set_ctrl_tail d v =
  if d.ctrl_tail <> v then begin
    d.undo <- U_ctrl_tail d.ctrl_tail :: d.undo;
    d.ctrl_tail <- v
  end

let set_nctrl d v =
  if d.nctrl <> v then begin
    d.undo <- U_nctrl d.nctrl :: d.undo;
    d.nctrl <- v
  end

let set_nspecs d v =
  if d.nspecs <> v then begin
    d.undo <- U_nspecs d.nspecs :: d.undo;
    d.nspecs <- v
  end

let set_nregions d v =
  if d.nregions <> v then begin
    d.undo <- U_nregions d.nregions :: d.undo;
    d.nregions <- v
  end

let set_mk d v =
  if d.mk <> v then begin
    d.undo <- U_mk d.mk :: d.undo;
    d.mk <- v
  end

let set_fp d ok places =
  d.undo <- U_fp (d.fp_ok, d.fp_places) :: d.undo;
  d.fp_ok <- ok;
  d.fp_places <- places

let undo_one d = function
  | U_mark -> ()
  | U_int (f, i, v) -> (arr_of d f).(i) <- v
  | U_rgres (i, v) -> d.rg_res.(i) <- v
  | U_resof (i, v) -> d.res_of.(i) <- v
  | U_used v -> d.used <- v
  | U_spfree v -> d.sp_free <- v
  | U_rgfree v -> d.rg_free <- v
  | U_ctrl_head v -> d.ctrl_head <- v
  | U_ctrl_tail v -> d.ctrl_tail <- v
  | U_nctrl v -> d.nctrl <- v
  | U_nspecs v -> d.nspecs <- v
  | U_nregions v -> d.nregions <- v
  | U_mk v -> d.mk <- v
  | U_fp (ok, places) ->
    d.fp_ok <- ok;
    d.fp_places <- places

let rollback d =
  let rec pop = function
    | [] -> invalid_arg "Delta.rollback: nothing to roll back"
    | U_mark :: tl -> d.undo <- tl
    | e :: tl ->
      undo_one d e;
      pop tl
  in
  pop d.undo;
  d.times_valid <- true

let commit d = d.undo <- []

(* ------------------------------------------------------------------ *)
(* Capacity. Grown only at move entry, before the first logged write of
   the move, so no live undo entry ever names a stale array (entries
   name fields, but scratch bookkeeping like [stamp] must cover every
   slot an in-flight move may touch). *)

let grow_int a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_capacity d ~specs ~regions =
  let want_sp = d.nspecs + specs in
  if want_sp > Array.length d.sp_pred then begin
    let cap = Stdlib.max want_sp (2 * Array.length d.sp_pred) in
    d.sp_pred <- grow_int d.sp_pred cap (-1);
    d.sp_succ <- grow_int d.sp_succ cap (-1);
    d.sp_region <- grow_int d.sp_region cap (-1);
    d.sp_dur <- grow_int d.sp_dur cap 0;
    d.sp_cprev <- grow_int d.sp_cprev cap (-1);
    d.sp_cnext <- grow_int d.sp_cnext cap (-1);
    d.sp_live <- grow_int d.sp_live cap 0;
    let nodes = d.n + cap in
    d.t <- grow_int d.t nodes 0;
    d.stamp <- grow_int d.stamp nodes 0;
    d.indeg <- grow_int d.indeg nodes 0;
    d.queue <- grow_int d.queue nodes 0;
    d.heap <- Min_heap.create nodes;
    d.suffix <- grow_int d.suffix nodes 0;
    d.stk <- grow_int d.stk nodes 0
  end;
  let want_rg = d.nregions + regions in
  if want_rg > Array.length d.rg_head then begin
    let cap = Stdlib.max want_rg (2 * Array.length d.rg_head) in
    d.rg_head <- grow_int d.rg_head cap (-1);
    d.rg_count <- grow_int d.rg_count cap 0;
    d.rg_reconf <- grow_int d.rg_reconf cap 0;
    d.rg_live <- grow_int d.rg_live cap 0;
    let b = Array.make cap Resource.zero in
    Array.blit d.rg_res 0 b 0 Array.(length d.rg_res);
    d.rg_res <- b
  end

(* ------------------------------------------------------------------ *)
(* The dynamic precedence graph, implicit in the chain fields. *)

let iter_preds d x f =
  if x < d.n then begin
    for j = d.d_poff.(x) to d.d_poff.(x + 1) - 1 do
      f d.d_padj.(j)
    done;
    let p = d.prev_.(x) in
    if p >= 0 then begin
      let s = d.spec_after.(p) in
      if s >= 0 then f (d.n + s) else f p
    end
  end
  else begin
    let s = x - d.n in
    f d.sp_pred.(s);
    let cp = d.sp_cprev.(s) in
    if cp >= 0 then f (d.n + cp)
  end

let iter_succs d x f =
  if x < d.n then begin
    for j = d.d_soff.(x) to d.d_soff.(x + 1) - 1 do
      f d.d_sadj.(j)
    done;
    let nx = d.next_.(x) in
    if nx >= 0 then begin
      let s = d.spec_after.(x) in
      if s >= 0 then f (d.n + s) else f nx
    end
  end
  else begin
    let s = x - d.n in
    f d.sp_succ.(s);
    let cn = d.sp_cnext.(s) in
    if cn >= 0 then f (d.n + cn)
  end

(* Closure-free twin of [iter_preds] — this is the single hottest
   operation of the incremental evaluator, so the predecessor walk is
   unrolled by node kind (data preds of a task are tasks; a spec's
   graph pred is its host task, its controller pred another spec). *)
let compute_time d x =
  let best = ref 0 in
  if x < d.n then begin
    for j = d.d_poff.(x) to d.d_poff.(x + 1) - 1 do
      let p = d.d_padj.(j) in
      let fin = d.t.(p) + d.dur.(p) in
      if fin > !best then best := fin
    done;
    let p = d.prev_.(x) in
    if p >= 0 then begin
      let s = d.spec_after.(p) in
      let fin =
        if s >= 0 then d.t.(d.n + s) + d.sp_dur.(s) else d.t.(p) + d.dur.(p)
      in
      if fin > !best then best := fin
    end
  end
  else begin
    let s = x - d.n in
    let p = d.sp_pred.(s) in
    let fin = d.t.(p) + d.dur.(p) in
    if fin > !best then best := fin;
    let cp = d.sp_cprev.(s) in
    if cp >= 0 then begin
      let fin = d.t.(d.n + cp) + d.sp_dur.(cp) in
      if fin > !best then best := fin
    end
  end;
  !best

(* Reachability on the dynamic graph. Pruning only needs the stored
   times to be monotone along edges (t(y) >= t(x)) — a strictly weaker
   property than full timing feasibility, so it survives almost every
   mid-move edit: any node whose time exceeds the target's cannot lie
   on a path to it, and the DFS explores only the window between source
   and target. [times_valid] tracks that order-potential; the rare edit
   that inserts a genuinely backward-in-time edge clears it and the same
   DFS runs unpruned until the next evaluation. *)
let path_exists d src dst =
  if src = dst then true
  else if d.times_valid && d.t.(src) > d.t.(dst) then false
  else begin
    d.gen <- d.gen + 1;
    let gen = d.gen in
    let limit = d.t.(dst) in
    let sp = ref 0 in
    let found = ref false in
    let push x =
      if x = dst then found := true
      else if
        d.stamp.(x) <> gen && ((not d.times_valid) || d.t.(x) <= limit)
      then begin
        d.stamp.(x) <- gen;
        d.stk.(!sp) <- x;
        incr sp
      end
    in
    d.stamp.(src) <- gen;
    d.stk.(!sp) <- src;
    incr sp;
    while (not !found) && !sp > 0 do
      decr sp;
      let x = d.stk.(!sp) in
      iter_succs d x (push : int -> unit)
    done;
    !found
  end

(* A freshly inserted structural edge keeps the order-potential valid
   as long as it points forward (or sideways) in stored time; only a
   backward edge forces pruning off until the next evaluation. The full
   timing constraint (t(y) >= t(x) + dur(x)) is deliberately NOT
   required here — reachability pruning never looks at durations. *)
let note_edge d x y =
  if d.times_valid && d.t.(y) < d.t.(x) then d.times_valid <- false

(* ------------------------------------------------------------------ *)
(* Evaluation.

   Incremental path: a change-pruned worklist. Each popped node is
   recomputed exactly from its current predecessors; its successors are
   pushed only when the recomputed start actually moved. Most moves
   perturb a handful of starts before the max-over-predecessors
   structure re-absorbs the change, so the work is proportional to the
   set of nodes whose times change, not to everything reachable from
   the edit. Longest-path fixpoints are unique, so the fixpoint is
   bit-identical to re-timing the whole plan.

   Chaotic iteration only terminates on a DAG. Structural application
   cycle-checks every edge it inserts, so a cycle here is a bug-guard
   path, not an expected one: the shared pop budget bounds the loop,
   and work left over falls back to [eval_suffix], the reach-DFS + Kahn
   pass that recomputes the full reachable suffix once and detects
   cycles exactly. *)

let eval_suffix d seeds =
  d.gen <- d.gen + 1;
  let gen = d.gen in
  let sp = ref 0 and top = ref 0 in
  let push x =
    if d.stamp.(x) <> gen then begin
      d.stamp.(x) <- gen;
      d.stk.(!sp) <- x;
      incr sp
    end
  in
  List.iter push seeds;
  while !sp > 0 do
    decr sp;
    let x = d.stk.(!sp) in
    d.suffix.(!top) <- x;
    incr top;
    iter_succs d x (push : int -> unit)
  done;
  let top = !top in
  for i = 0 to top - 1 do
    let x = d.suffix.(i) in
    let c = ref 0 in
    iter_preds d x (fun p -> if d.stamp.(p) = gen then incr c);
    d.indeg.(x) <- !c
  done;
  let head = ref 0 and tail = ref 0 in
  for i = 0 to top - 1 do
    let x = d.suffix.(i) in
    if d.indeg.(x) = 0 then begin
      d.queue.(!tail) <- x;
      incr tail
    end
  done;
  while !head < !tail do
    let x = d.queue.(!head) in
    incr head;
    seti d F_t x (compute_time d x);
    iter_succs d x (fun y ->
        if d.stamp.(y) = gen then begin
          let c = d.indeg.(y) - 1 in
          d.indeg.(y) <- c;
          if c = 0 then begin
            d.queue.(!tail) <- y;
            incr tail
          end
        end)
  done;
  (* [!head < top] would mean a cycle slipped past the insertion
     checks; treat it as a rejected move rather than corrupt state. *)
  !head = top

let eval_incremental d seeds =
  (* Least stored start first: stale times are near-topological (the
     order-potential again), so each node is almost always popped after
     all its changing predecessors and recomputed once. Keys read live
     from [t]; a mid-pass update can only degrade the order, never the
     fixpoint. *)
  let heap = d.heap and t = d.t in
  List.iter (fun x -> Min_heap.add heap ~key:t x) seeds;
  let budget = ref (Min_heap.pop_budget (d.n + d.nspecs)) in
  while (not (Min_heap.is_empty heap)) && !budget > 0 do
    decr budget;
    let x = Min_heap.pop heap ~key:t in
    let nt = compute_time d x in
    if nt <> t.(x) then begin
      seti d F_t x nt;
      (* closure-free [iter_succs]: push each successor directly *)
      if x < d.n then begin
        for j = d.d_soff.(x) to d.d_soff.(x + 1) - 1 do
          Min_heap.add heap ~key:t d.d_sadj.(j)
        done;
        let nx = d.next_.(x) in
        if nx >= 0 then begin
          let s = d.spec_after.(x) in
          Min_heap.add heap ~key:t (if s >= 0 then d.n + s else nx)
        end
      end
      else begin
        let s = x - d.n in
        Min_heap.add heap ~key:t d.sp_succ.(s);
        let cn = d.sp_cnext.(s) in
        if cn >= 0 then Min_heap.add heap ~key:t (d.n + cn)
      end
    end
  done;
  Min_heap.is_empty heap
  || begin
       Min_heap.clear heap;
       eval_suffix d seeds
     end

let update_makespan d =
  let m = ref 0 in
  for u = 0 to d.n - 1 do
    let e = d.t.(u) + d.dur.(u) in
    if e > !m then m := e
  done;
  set_mk d !m

(* ------------------------------------------------------------------ *)
(* Floorplan state. Demands are re-queried only when the live demand
   multiset changed; the shared cache (sorted-needs key) makes repeated
   multisets exact hits. *)

let l0_slots = 4096 (* power of two; direct-mapped, overwrite on clash *)

let requery_fp d =
  let nlive = ref 0 in
  for r = 0 to d.nregions - 1 do
    if d.rg_live.(r) = 1 then incr nlive
  done;
  if !nlive = 0 then set_fp d true [||]
  else if
    not (Resource.fits d.used ~within:(Arch.max_res d.arch))
  then set_fp d false [||]
  else begin
    (* The memo arrays are grown on first use: most states never query
       (their schedule arrives with a floorplan attached), and paying
       three 4096-slot allocations in [of_schedule] would tax exactly
       the from-scratch paths this memo is meant to speed past. *)
    if Array.length d.l0_key = 0 then begin
      d.l0_key <- Array.make l0_slots [||];
      d.l0_ok <- Array.make l0_slots false;
      d.l0_places <- Array.make l0_slots [||]
    end;
    (* L0 probe: hash the live demands in place, compare in place. *)
    let h = ref 17 in
    for r = 0 to d.nregions - 1 do
      if d.rg_live.(r) = 1 then begin
        let res = d.rg_res.(r) in
        h := (!h * 131) + res.Resource.clb;
        h := (!h * 131) + res.Resource.bram;
        h := (!h * 131) + res.Resource.dsp
      end
    done;
    let slot = !h land (l0_slots - 1) in
    let key = d.l0_key.(slot) in
    let hit =
      Array.length key = 3 * !nlive
      && begin
           let i = ref 0 and same = ref true in
           (try
              for r = 0 to d.nregions - 1 do
                if d.rg_live.(r) = 1 then begin
                  let res = d.rg_res.(r) in
                  if
                    key.(!i) <> res.Resource.clb
                    || key.(!i + 1) <> res.Resource.bram
                    || key.(!i + 2) <> res.Resource.dsp
                  then begin
                    same := false;
                    raise Stdlib.Exit
                  end;
                  i := !i + 3
                end
              done
            with Stdlib.Exit -> ());
           !same
         end
    in
    if hit then set_fp d d.l0_ok.(slot) d.l0_places.(slot)
    else begin
      let needs = Array.make !nlive Resource.zero in
      let i = ref 0 in
      for r = 0 to d.nregions - 1 do
        if d.rg_live.(r) = 1 then begin
          needs.(!i) <- d.rg_res.(r);
          incr i
        end
      done;
      let report =
        Fp_cache.check (Lazy.force d.fp_cache) ~engine:d.fp_engine d.device
          needs
      in
      let ok, places =
        match report.Floorplanner.verdict with
        | Floorplanner.Feasible placements -> (true, placements)
        | Floorplanner.Infeasible | Floorplanner.Unknown -> (false, [||])
      in
      let key = Array.make (3 * !nlive) 0 in
      Array.iteri
        (fun i (res : Resource.t) ->
          key.(3 * i) <- res.Resource.clb;
          key.((3 * i) + 1) <- res.Resource.bram;
          key.((3 * i) + 2) <- res.Resource.dsp)
        needs;
      d.l0_key.(slot) <- key;
      d.l0_ok.(slot) <- ok;
      d.l0_places.(slot) <- places;
      set_fp d ok places
    end
  end

(* ------------------------------------------------------------------ *)
(* Structural primitives. All of them log through the setters; a move
   composes them and either finishes or rolls back to its U_mark. *)

let reuse_pair d a b =
  d.module_reuse && d.mod_id.(a) >= 0 && d.mod_id.(a) = d.mod_id.(b)

let alloc_spec d =
  if d.sp_free >= 0 then begin
    let s = d.sp_free in
    set_spfree d d.sp_cnext.(s);
    s
  end
  else begin
    let s = d.nspecs in
    set_nspecs d (s + 1);
    s
  end

(* Remove a spec from the controller chain and free its slot. The
   caller seeds the controller successor (it lost a predecessor). *)
let free_spec d s =
  let cp = d.sp_cprev.(s) and cn = d.sp_cnext.(s) in
  if cp >= 0 then seti d F_sp_cnext cp cn else set_ctrl_head d cn;
  if cn >= 0 then seti d F_sp_cprev cn cp else set_ctrl_tail d cp;
  set_nctrl d (d.nctrl - 1);
  seti d F_sp_live s 0;
  seti d F_sp_cprev s (-1);
  seti d F_sp_cnext s d.sp_free;
  set_spfree d s;
  cn

let sp_node d s = d.n + s

(* Controller insertion: legal interval via pairwise must-precede over
   the dynamic graph (same rule as [Reconf_sched.position_bounds]),
   desired slot = earliest controller gap at or after [ready] (same walk
   as [slot_position_sorted] — the chain is start-ordered whenever the
   times are a valid potential). Returns the controller successor to
   seed, or raises [Exit] when the bounds are empty (the caller rejects
   the move). *)
exception Reject

let must_precede_specs d a b =
  d.sp_succ.(a) = d.sp_pred.(b) || path_exists d d.sp_succ.(a) d.sp_pred.(b)

let ctrl_insert d s ~ready =
  (* Forward gap walk: desired slot = earliest controller gap at or
     after [ready]. Pure time reads, no reachability queries — and once
     a slot starts past [tau] the chain (start-ordered while the
     potential holds) has no earlier gap left, so the walk stops. *)
  let tau = ref ready and desired = ref 0 in
  let j = ref d.ctrl_head and stop = ref false in
  while !j >= 0 && not !stop do
    let js = !j in
    let st = d.t.(sp_node d js) in
    let en = st + d.sp_dur.(js) in
    if st <= !tau then begin
      if !tau < en then tau := en;
      if st < !tau then incr desired;
      j := d.sp_cnext.(js)
    end
    else stop := true
  done;
  (* Backward pass for the lower bound: the LAST slot that must precede
     the new spec decides it, so scanning from the tail stops at the
     first hit — and the slots near the tail, being latest in time,
     exit their reachability check immediately. *)
  let lo = ref 0 in
  let k = ref d.ctrl_tail and kpos = ref (d.nctrl - 1) in
  while !lo = 0 && !k >= 0 do
    let js = !k in
    if must_precede_specs d js s then lo := !kpos + 1
    else begin
      decr kpos;
      k := d.sp_cprev.(js)
    end
  done;
  let len = d.nctrl in
  (* Upper bound: position of the FIRST slot the new spec must precede.
     It only ever caps the landing position, so slots at or past
     [max lo desired] never need checking — and the remaining checks
     aim backward in time, where [path_exists] exits immediately on its
     time window. This sidesteps the wide-open forward windows that a
     full-chain scan would pay on every late slot. *)
  let p0 = Stdlib.min len (Stdlib.max !lo !desired) in
  let hi = ref max_int in
  let q = ref 0 in
  let j = ref d.ctrl_head in
  while !hi = max_int && !q < p0 do
    let js = !j in
    if must_precede_specs d s js then hi := !q;
    incr q;
    j := d.sp_cnext.(js)
  done;
  let hi = if !hi = max_int then len else !hi in
  if !lo > hi then raise Reject;
  let p = Stdlib.max !lo (Stdlib.min hi !desired) in
  (* link [s] so that it lands at position [p] *)
  let after = ref (-1) and cur = ref d.ctrl_head in
  for _ = 1 to p do
    after := !cur;
    cur := d.sp_cnext.(!cur)
  done;
  (* Seed the new spec's time with an order-consistent guess (its real
     start is recomputed by the next evaluation): at least [ready] and
     at least its controller predecessor, so the edges inserted below
     rarely break the reachability-pruning potential. *)
  let guess =
    if !after >= 0 then Stdlib.max ready d.t.(sp_node d !after) else ready
  in
  seti d F_t (sp_node d s) guess;
  seti d F_sp_cprev s !after;
  seti d F_sp_cnext s !cur;
  if !after >= 0 then seti d F_sp_cnext !after s else set_ctrl_head d s;
  if !cur >= 0 then seti d F_sp_cprev !cur s else set_ctrl_tail d s;
  set_nctrl d (d.nctrl + 1);
  (if !after >= 0 then note_edge d (sp_node d !after) (sp_node d s));
  (if !cur >= 0 then note_edge d (sp_node d s) (sp_node d !cur));
  !cur

let make_spec d ~pred ~succ ~region ~seeds =
  let s = alloc_spec d in
  seti d F_sp_pred s pred;
  seti d F_sp_succ s succ;
  seti d F_sp_region s region;
  seti d F_sp_dur s d.rg_reconf.(region);
  seti d F_sp_live s 1;
  seti d F_spec_after pred s;
  let cn = ctrl_insert d s ~ready:(d.t.(pred) + d.dur.(pred)) in
  note_edge d pred (sp_node d s);
  note_edge d (sp_node d s) succ;
  seeds := sp_node d s :: !seeds;
  if cn >= 0 then seeds := sp_node d cn :: !seeds

(* Detach a task from whatever chain hosts it. Deletes the adjacent
   specs of a region chain and, when both neighbours remain, reconnects
   them (with a fresh spec unless module reuse applies). Does not kill
   emptied regions — the move decides that. *)
let unlink_task d u ~seeds =
  let p = d.prev_.(u) and nx = d.next_.(u) in
  let r = d.regof.(u) in
  if r >= 0 then begin
    (if p >= 0 then
       let s = d.spec_after.(p) in
       if s >= 0 then begin
         let cn = free_spec d s in
         if cn >= 0 then seeds := sp_node d cn :: !seeds
       end;
       seti d F_spec_after p (-1));
    (let s = d.spec_after.(u) in
     if s >= 0 then begin
       let cn = free_spec d s in
       if cn >= 0 then seeds := sp_node d cn :: !seeds
     end;
     seti d F_spec_after u (-1));
    if p >= 0 then seti d F_next p nx else seti d F_rg_head r nx;
    if nx >= 0 then seti d F_prev nx p;
    if p >= 0 && nx >= 0 && not (reuse_pair d p nx) then
      make_spec d ~pred:p ~succ:nx ~region:r ~seeds;
    seti d F_rg_count r (d.rg_count.(r) - 1)
  end
  else begin
    let pr = d.procof.(u) in
    if p >= 0 then seti d F_next p nx else seti d F_proc_head pr nx;
    if nx >= 0 then seti d F_prev nx p;
    if p >= 0 && nx >= 0 then note_edge d p nx
  end;
  seti d F_prev u (-1);
  seti d F_next u (-1);
  seeds := u :: !seeds;
  if nx >= 0 then seeds := nx :: !seeds

(* Chain insertion point: after every member whose current start is at
   or before the task's. Time-consistent positions cannot create cycles
   while the potential is valid; the explicit checks catch the rest. *)
let chain_position d head u =
  let a = ref (-1) and cur = ref head in
  while !cur >= 0 && d.t.(!cur) <= d.t.(u) do
    a := !cur;
    cur := d.next_.(!cur)
  done;
  (!a, !cur)

let insert_into_region d u r ~seeds =
  let a, b = chain_position d d.rg_head.(r) u in
  if a >= 0 && path_exists d u a then raise Reject;
  if b >= 0 && path_exists d b u then raise Reject;
  (* splice the task *)
  (if a >= 0 then begin
     (let s = d.spec_after.(a) in
      if s >= 0 then begin
        let cn = free_spec d s in
        if cn >= 0 then seeds := sp_node d cn :: !seeds
      end);
     seti d F_spec_after a (-1);
     seti d F_next a u
   end
   else seti d F_rg_head r u);
  seti d F_prev u a;
  seti d F_next u b;
  if b >= 0 then seti d F_prev b u;
  seti d F_regof u r;
  seti d F_procof u (-1);
  seti d F_rg_count r (d.rg_count.(r) + 1);
  if a >= 0 then
    if reuse_pair d a u then note_edge d a u
    else make_spec d ~pred:a ~succ:u ~region:r ~seeds;
  if b >= 0 then
    if reuse_pair d u b then note_edge d u b
    else make_spec d ~pred:u ~succ:b ~region:r ~seeds;
  seeds := u :: !seeds;
  if b >= 0 then seeds := b :: !seeds

let insert_into_proc d u p ~seeds =
  let a, b = chain_position d d.proc_head.(p) u in
  if a >= 0 && path_exists d u a then raise Reject;
  if b >= 0 && path_exists d b u then raise Reject;
  (if a >= 0 then seti d F_next a u else seti d F_proc_head p u);
  seti d F_prev u a;
  seti d F_next u b;
  if b >= 0 then seti d F_prev b u;
  seti d F_procof u p;
  seti d F_regof u (-1);
  if a >= 0 then note_edge d a u;
  if b >= 0 then note_edge d u b;
  seeds := u :: !seeds;
  if b >= 0 then seeds := b :: !seeds

let alloc_region d res =
  let r =
    if d.rg_free >= 0 then begin
      let r = d.rg_free in
      set_rgfree d d.rg_head.(r);
      r
    end
    else begin
      let r = d.nregions in
      set_nregions d (r + 1);
      r
    end
  in
  set_rgres d r res;
  seti d F_rg_reconf r (Arch.reconf_ticks d.arch res);
  seti d F_rg_head r (-1);
  seti d F_rg_count r 0;
  seti d F_rg_live r 1;
  set_used d (Resource.add d.used res);
  r

let kill_region_if_empty d r ~needs_changed =
  if d.rg_live.(r) = 1 && d.rg_count.(r) = 0 then begin
    seti d F_rg_live r 0;
    set_used d (Resource.sub d.used d.rg_res.(r));
    seti d F_rg_head r d.rg_free;
    set_rgfree d r;
    needs_changed := true
  end

(* Changing the implementation changes [dur u] — an edge-weight change
   the change-pruned evaluator cannot see when [t u] itself stays put,
   so every data successor must be seeded explicitly (the chain
   successor is seeded by the relink that always follows). *)
let set_impl d u idx ~seeds =
  let impl = Instance.impl d.inst ~task:u ~idx in
  seti d F_impl u idx;
  if impl.Impl.time <> d.dur.(u) then
    for j = d.d_soff.(u) to d.d_soff.(u + 1) - 1 do
      seeds := d.d_sadj.(j) :: !seeds
    done;
  seti d F_dur u impl.Impl.time;
  seti d F_mod u (match impl.Impl.module_id with Some m -> m | None -> -1);
  set_resof d u impl.Impl.res

(* Collect a region's chain into [sortbuf.(0..count)] and drop every
   internal spec and link, leaving the members detached. Used by the
   rebuild moves (merge/split). *)
let dissolve_chain d r ~seeds =
  let count = ref 0 in
  let cur = ref d.rg_head.(r) in
  while !cur >= 0 do
    let u = !cur in
    d.sortbuf.(!count) <- u;
    incr count;
    (let s = d.spec_after.(u) in
     if s >= 0 then begin
       let cn = free_spec d s in
       if cn >= 0 then seeds := sp_node d cn :: !seeds
     end);
    seti d F_spec_after u (-1);
    cur := d.next_.(u);
    seti d F_prev u (-1);
    seti d F_next u (-1);
    seeds := u :: !seeds
  done;
  !count

(* Relink [members.(base..base+count)] as region [r]'s chain, in the
   given order, creating the specs. Order must be cycle-consistent; the
   per-pair checks reject interleavings the dependency graph forbids. *)
let rebuild_chain d r members ~base ~count ~seeds =
  if count = 0 then seti d F_rg_head r (-1)
  else begin
    seti d F_rg_head r members.(base);
    for i = 0 to count - 1 do
      let u = members.(base + i) in
      seti d F_regof u r;
      seti d F_procof u (-1);
      seti d F_prev u (if i = 0 then -1 else members.(base + i - 1));
      seti d F_next u (if i = count - 1 then -1 else members.(base + i + 1))
    done;
    for i = 0 to count - 2 do
      let a = members.(base + i) and b = members.(base + i + 1) in
      if path_exists d b a then raise Reject;
      if reuse_pair d a b then note_edge d a b
      else make_spec d ~pred:a ~succ:b ~region:r ~seeds
    done
  end;
  seti d F_rg_count r count

let members_max_res d members ~base ~count =
  let acc = ref Resource.zero in
  for i = 0 to count - 1 do
    acc := Resource.max_components !acc d.res_of.(members.(base + i))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Moves. *)

let live_region d r = r >= 0 && r < d.nregions && d.rg_live.(r) = 1

let apply_structural d move ~seeds ~needs_changed =
  match move with
  | Reassign { task = u; region = r } ->
    if u < 0 || u >= d.n || d.regof.(u) < 0 then raise Reject;
    if (not (live_region d r)) || r = d.regof.(u) then raise Reject;
    if not (Resource.fits d.res_of.(u) ~within:d.rg_res.(r)) then raise Reject;
    let src = d.regof.(u) in
    unlink_task d u ~seeds;
    insert_into_region d u r ~seeds;
    kill_region_if_empty d src ~needs_changed
  | Swap { task_a = a; task_b = b } ->
    if a < 0 || a >= d.n || b < 0 || b >= d.n || a = b then raise Reject;
    let ra = d.regof.(a) and rb = d.regof.(b) in
    if ra < 0 || rb < 0 || ra = rb then raise Reject;
    if not (Resource.fits d.res_of.(a) ~within:d.rg_res.(rb)) then raise Reject;
    if not (Resource.fits d.res_of.(b) ~within:d.rg_res.(ra)) then raise Reject;
    unlink_task d a ~seeds;
    unlink_task d b ~seeds;
    insert_into_region d a rb ~seeds;
    insert_into_region d b ra ~seeds
  | To_sw { task = u; processor = p } ->
    if u < 0 || u >= d.n || d.regof.(u) < 0 then raise Reject;
    if p < 0 || p >= d.processors then raise Reject;
    let src = d.regof.(u) in
    unlink_task d u ~seeds;
    set_impl d u (Instance.fastest_sw d.inst u) ~seeds;
    insert_into_proc d u p ~seeds;
    kill_region_if_empty d src ~needs_changed
  | To_hw { task = u; impl_idx; region } ->
    if u < 0 || u >= d.n || d.regof.(u) >= 0 then raise Reject;
    let impl =
      match Instance.impl d.inst ~task:u ~idx:impl_idx with
      | impl -> impl
      | exception Invalid_argument _ -> raise Reject
    in
    if not (Impl.is_hw impl) then raise Reject;
    let r =
      match region with
      | Some r ->
        if not (live_region d r) then raise Reject;
        if not (Resource.fits impl.Impl.res ~within:d.rg_res.(r)) then
          raise Reject;
        r
      | None ->
        needs_changed := true;
        alloc_region d impl.Impl.res
    in
    unlink_task d u ~seeds;
    set_impl d u impl_idx ~seeds;
    insert_into_region d u r ~seeds
  | Merge { dst; src } ->
    if (not (live_region d dst)) || (not (live_region d src)) || dst = src
    then raise Reject;
    let res_dst = d.rg_res.(dst) and res_src = d.rg_res.(src) in
    let merged = Resource.max_components res_dst res_src in
    let c1 = dissolve_chain d dst ~seeds in
    let cur = ref d.rg_head.(src) in
    let count = ref c1 in
    while !cur >= 0 do
      let u = !cur in
      d.sortbuf.(!count) <- u;
      incr count;
      (let s = d.spec_after.(u) in
       if s >= 0 then begin
         let cn = free_spec d s in
         if cn >= 0 then seeds := sp_node d cn :: !seeds
       end);
      seti d F_spec_after u (-1);
      cur := d.next_.(u);
      seti d F_prev u (-1);
      seti d F_next u (-1);
      seeds := u :: !seeds
    done;
    let count = !count in
    (* retire [src] *)
    seti d F_rg_count src 0;
    seti d F_rg_live src 0;
    seti d F_rg_head src d.rg_free;
    set_rgfree d src;
    (* grow [dst] *)
    set_rgres d dst merged;
    seti d F_rg_reconf dst (Arch.reconf_ticks d.arch merged);
    set_used d
      (Resource.add (Resource.sub (Resource.sub d.used res_dst) res_src) merged);
    (* interleave by current start, ties by task id (stable, and the
       member ids are distinct so the order is total) *)
    Resched_util.Sort.by_int_key d.sortbuf ~base:0 ~len:count ~key:(fun u ->
        d.t.(u));
    rebuild_chain d dst d.sortbuf ~base:0 ~count ~seeds;
    needs_changed := true
  | Split { region = r; keep } ->
    if not (live_region d r) then raise Reject;
    let count = d.rg_count.(r) in
    if keep < 1 || keep >= count then raise Reject;
    let c = dissolve_chain d r ~seeds in
    assert (c = count);
    let res_kept = members_max_res d d.sortbuf ~base:0 ~count:keep in
    let res_moved =
      members_max_res d d.sortbuf ~base:keep ~count:(count - keep)
    in
    let old_res = d.rg_res.(r) in
    set_rgres d r res_kept;
    seti d F_rg_reconf r (Arch.reconf_ticks d.arch res_kept);
    set_used d
      (Resource.add (Resource.sub d.used old_res) res_kept);
    let nr = alloc_region d res_moved in
    rebuild_chain d r d.sortbuf ~base:0 ~count:keep ~seeds;
    rebuild_chain d nr d.sortbuf ~base:keep ~count:(count - keep) ~seeds;
    needs_changed := true

let apply d move =
  ensure_capacity d ~specs:8 ~regions:2;
  d.undo <- U_mark :: d.undo;
  let seeds = ref [] and needs_changed = ref false in
  let ok =
    match apply_structural d move ~seeds ~needs_changed with
    | () -> true
    | exception Reject -> false
  in
  let ok = ok && eval_incremental d !seeds in
  if not ok then begin
    rollback d;
    None
  end
  else begin
    update_makespan d;
    (* Same demand multiset, same (deterministic, memoized) verdict: the
       floorplan is re-queried only when the multiset changed. *)
    if !needs_changed then requery_fp d;
    d.times_valid <- true;
    Some
      {
        makespan = d.mk;
        fp_feasible = d.fp_ok;
        needs_changed = !needs_changed;
      }
  end

(* ------------------------------------------------------------------ *)
(* Construction from a schedule. *)

let of_schedule ?(config = default_config) (sched : Schedule.t) =
  let inst = sched.Schedule.instance in
  let n = Instance.size inst in
  let graph = inst.Instance.graph in
  (* static data-dependency CSR, both directions *)
  let d_soff = Array.make (n + 1) 0 and d_poff = Array.make (n + 1) 0 in
  let edges = Graph.edges graph in
  List.iter
    (fun (u, v) ->
      d_soff.(u + 1) <- d_soff.(u + 1) + 1;
      d_poff.(v + 1) <- d_poff.(v + 1) + 1)
    edges;
  for i = 0 to n - 1 do
    d_soff.(i + 1) <- d_soff.(i + 1) + d_soff.(i);
    d_poff.(i + 1) <- d_poff.(i + 1) + d_poff.(i)
  done;
  let ne = List.length edges in
  let d_sadj = Array.make (Stdlib.max 1 ne) 0 in
  let d_padj = Array.make (Stdlib.max 1 ne) 0 in
  let scur = Array.copy d_soff and pcur = Array.copy d_poff in
  List.iter
    (fun (u, v) ->
      d_sadj.(scur.(u)) <- v;
      scur.(u) <- scur.(u) + 1;
      d_padj.(pcur.(v)) <- u;
      pcur.(v) <- pcur.(v) + 1)
    edges;
  let nreg = Array.length sched.Schedule.regions in
  let nrc = List.length sched.Schedule.reconfigurations in
  let cap_sp = Stdlib.max 8 (2 * Stdlib.max 1 nrc) in
  let cap_rg = Stdlib.max 8 (2 * Stdlib.max 1 nreg) in
  let arch = inst.Instance.arch in
  let d =
    {
      inst;
      device = arch.Arch.device;
      arch;
      n;
      processors = arch.Arch.processors;
      module_reuse = sched.Schedule.module_reuse;
      resource_scale = sched.Schedule.resource_scale;
      fp_engine = config.engine;
      fp_cache =
        (match config.cache with
        | Some c -> Lazy.from_val c
        | None -> lazy (Fp_cache.create ()));
      d_soff;
      d_sadj;
      d_poff;
      d_padj;
      impl_idx = Array.make n 0;
      dur = Array.make n 0;
      mod_id = Array.make n (-1);
      res_of = Array.make n Resource.zero;
      regof = Array.make n (-1);
      procof = Array.make n (-1);
      prev_ = Array.make n (-1);
      next_ = Array.make n (-1);
      spec_after = Array.make n (-1);
      sp_pred = Array.make cap_sp (-1);
      sp_succ = Array.make cap_sp (-1);
      sp_region = Array.make cap_sp (-1);
      sp_dur = Array.make cap_sp 0;
      sp_cprev = Array.make cap_sp (-1);
      sp_cnext = Array.make cap_sp (-1);
      sp_live = Array.make cap_sp 0;
      nspecs = 0;
      sp_free = -1;
      ctrl_head = -1;
      ctrl_tail = -1;
      nctrl = 0;
      l0_key = [||];
      l0_ok = [||];
      l0_places = [||];
      rg_head = Array.make cap_rg (-1);
      rg_count = Array.make cap_rg 0;
      rg_reconf = Array.make cap_rg 0;
      rg_live = Array.make cap_rg 0;
      rg_res = Array.make cap_rg Resource.zero;
      nregions = 0;
      rg_free = -1;
      proc_head = Array.make (Stdlib.max 1 arch.Arch.processors) (-1);
      t = Array.make (n + cap_sp) 0;
      mk = 0;
      used = Resource.zero;
      fp_ok = false;
      fp_places = [||];
      undo = [];
      stamp = Array.make (n + cap_sp) 0;
      gen = 0;
      indeg = Array.make (n + cap_sp) 0;
      queue = Array.make (n + cap_sp) 0;
      heap = Min_heap.create (n + cap_sp);
      suffix = Array.make (n + cap_sp) 0;
      stk = Array.make (n + cap_sp) 0;
      sortbuf = Array.make (Stdlib.max 1 n) 0;
      times_valid = false;
    }
  in
  for u = 0 to n - 1 do
    let slot = sched.Schedule.slots.(u) in
    d.impl_idx.(u) <- slot.Schedule.impl_idx;
    let impl = Instance.impl inst ~task:u ~idx:slot.Schedule.impl_idx in
    d.dur.(u) <- impl.Impl.time;
    d.mod_id.(u) <-
      (match impl.Impl.module_id with Some m -> m | None -> -1);
    d.res_of.(u) <- impl.Impl.res;
    d.t.(u) <- slot.Schedule.start_
  done;
  (* region chains in resolved start order *)
  d.nregions <- nreg;
  Array.iteri
    (fun r (reg : Schedule.region) ->
      d.rg_res.(r) <- reg.Schedule.res;
      d.rg_reconf.(r) <- reg.Schedule.reconf_ticks;
      d.rg_live.(r) <- 1;
      d.used <- Resource.add d.used reg.Schedule.res;
      let members = Schedule.region_tasks_in_order sched r in
      d.rg_count.(r) <- List.length members;
      let rec link prev = function
        | [] -> ()
        | u :: tl ->
          d.regof.(u) <- r;
          d.prev_.(u) <- prev;
          (match prev with
          | -1 -> d.rg_head.(r) <- u
          | p -> d.next_.(p) <- u);
          link u tl
      in
      link (-1) members)
    sched.Schedule.regions;
  (* processor chains in start order, ties by task id *)
  for p = 0 to d.processors - 1 do
    let count = ref 0 in
    for u = 0 to n - 1 do
      match sched.Schedule.slots.(u).Schedule.placement with
      | Schedule.On_processor p' when p' = p ->
        d.sortbuf.(!count) <- u;
        incr count;
        d.procof.(u) <- p
      | Schedule.On_processor _ | Schedule.On_region _ -> ()
    done;
    Resched_util.Sort.by_int_key d.sortbuf ~base:0 ~len:!count ~key:(fun u ->
        d.t.(u));
    let prev = ref (-1) in
    for i = 0 to !count - 1 do
      let u = d.sortbuf.(i) in
      d.prev_.(u) <- !prev;
      (match !prev with -1 -> d.proc_head.(p) <- u | pv -> d.next_.(pv) <- u);
      prev := u
    done
  done;
  (* reconfiguration slots: one per consecutive region pair (module
     reuse skips), matched against the schedule's list for identity,
     sequenced on the controller by start time *)
  let rcs =
    List.stable_sort
      (fun (a : Schedule.reconfiguration) (b : Schedule.reconfiguration) ->
        compare a.Schedule.r_start b.Schedule.r_start)
      sched.Schedule.reconfigurations
  in
  let prev_slot = ref (-1) in
  List.iter
    (fun (rc : Schedule.reconfiguration) ->
      let s = d.nspecs in
      d.nspecs <- s + 1;
      if s >= Array.length d.sp_pred then
        invalid_arg "Delta.of_schedule: reconfiguration overflow";
      if d.spec_after.(rc.Schedule.t_in) >= 0 then
        invalid_arg "Delta.of_schedule: duplicate reconfiguration";
      if d.next_.(rc.Schedule.t_in) <> rc.Schedule.t_out then
        invalid_arg
          "Delta.of_schedule: reconfiguration does not match region chain";
      d.sp_pred.(s) <- rc.Schedule.t_in;
      d.sp_succ.(s) <- rc.Schedule.t_out;
      d.sp_region.(s) <- rc.Schedule.region;
      d.sp_dur.(s) <- rc.Schedule.r_end - rc.Schedule.r_start;
      d.sp_live.(s) <- 1;
      d.spec_after.(rc.Schedule.t_in) <- s;
      d.t.(n + s) <- rc.Schedule.r_start;
      d.sp_cprev.(s) <- !prev_slot;
      (match !prev_slot with
      | -1 -> d.ctrl_head <- s
      | p -> d.sp_cnext.(p) <- s);
      prev_slot := s)
    rcs;
  d.ctrl_tail <- !prev_slot;
  d.nctrl <- d.nspecs;
  (* canonicalize: the reduced graph can start some nodes earlier than
     the pipeline's richer edge set did; the exact pass seeded with every
     node (all spec slots are live here) settles on this plan's own
     fixpoint, or reports a cycle *)
  if not (eval_suffix d (List.init (n + d.nspecs) Fun.id)) then
    invalid_arg "Delta.of_schedule: schedule's plan graph is cyclic";
  update_makespan d;
  (match sched.Schedule.floorplan with
  | Some places when nreg > 0 ->
    d.fp_ok <- true;
    d.fp_places <- places
  | Some _ | None -> requery_fp d);
  d.undo <- [];
  d.times_valid <- true;
  d

(* ------------------------------------------------------------------ *)
(* Materialization and fingerprinting. *)

let chain_from d head =
  let rec walk u acc =
    if u < 0 then List.rev acc else walk d.next_.(u) (u :: acc)
  in
  walk head []

let region_chain d r = chain_from d d.rg_head.(r)

let processor_tasks d p =
  if p < 0 || p >= d.processors then
    invalid_arg "Delta.processor_tasks: no such processor";
  chain_from d d.proc_head.(p)

let to_schedule d =
  let n = d.n in
  (* compact live regions, ascending slot order — the same enumeration
     the floorplan queries use, so cached placements line up *)
  let dense = Array.make (Stdlib.max 1 d.nregions) (-1) in
  let nlive = ref 0 in
  for r = 0 to d.nregions - 1 do
    if d.rg_live.(r) = 1 then begin
      dense.(r) <- !nlive;
      incr nlive
    end
  done;
  let regions =
    Array.make !nlive
      { Schedule.res = Resource.zero; reconf_ticks = 0; tasks = [] }
  in
  for r = 0 to d.nregions - 1 do
    if d.rg_live.(r) = 1 then
      regions.(dense.(r)) <-
        {
          Schedule.res = d.rg_res.(r);
          reconf_ticks = d.rg_reconf.(r);
          tasks = region_chain d r;
        }
  done;
  let slots =
    Array.init n (fun u ->
        let placement =
          if d.regof.(u) >= 0 then Schedule.On_region dense.(d.regof.(u))
          else Schedule.On_processor (Stdlib.max 0 d.procof.(u))
        in
        {
          Schedule.impl_idx = d.impl_idx.(u);
          placement;
          start_ = d.t.(u);
          end_ = d.t.(u) + d.dur.(u);
        })
  in
  let reconfigurations =
    let rec walk s acc =
      if s < 0 then List.rev acc
      else
        walk d.sp_cnext.(s)
          ({
             Schedule.region = dense.(d.sp_region.(s));
             t_in = d.sp_pred.(s);
             t_out = d.sp_succ.(s);
             r_start = d.t.(sp_node d s);
             r_end = d.t.(sp_node d s) + d.sp_dur.(s);
           }
          :: acc)
    in
    walk d.ctrl_head []
  in
  {
    Schedule.instance = d.inst;
    regions;
    slots;
    reconfigurations;
    makespan = d.mk;
    floorplan = (if d.fp_ok then Some d.fp_places else None);
    module_reuse = d.module_reuse;
    resource_scale = d.resource_scale;
  }

let fingerprint d =
  let regions =
    List.map
      (fun r -> (d.rg_res.(r), d.rg_reconf.(r), region_chain d r))
      (live_regions d)
  in
  let procs = List.init d.processors (processor_tasks d) in
  let ctrl =
    let rec walk s acc =
      if s < 0 then List.rev acc
      else
        walk d.sp_cnext.(s)
          ((d.sp_pred.(s), d.sp_succ.(s), d.sp_region.(s), d.sp_dur.(s),
            d.t.(sp_node d s))
          :: acc)
    in
    walk d.ctrl_head []
  in
  let tasks =
    Array.init d.n (fun u ->
        (d.impl_idx.(u), d.regof.(u), d.procof.(u), d.t.(u), d.dur.(u)))
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (regions, procs, ctrl, tasks, d.mk, d.used, d.fp_ok, d.fp_places)
          []))
