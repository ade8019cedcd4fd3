module Graph = Resched_taskgraph.Graph

type arena = {
  a_solver : Timing.Solver.t;
  a_closure : Graph.closure_buf;
  mutable a_seq : int array;  (* the sequence under construction *)
  mutable a_rem : int array;  (* unscheduled spec indices, in order *)
}

type plan = {
  p_specs : Timing.reconf_spec array;
  p_seq : int array;
  p_len : int;
  p_times : Timing.resolved;
}

let make_arena () =
  {
    a_solver = Timing.Solver.scratch ();
    a_closure = Graph.make_closure_buf ();
    a_seq = [||];
    a_rem = [||];
  }

(* Earliest instant >= t_min_k outside every scheduled slot, counted as
   a position. The chain edges make the sequenced slots pairwise disjoint
   and ordered on the controller, so walking the sequence already visits
   them sorted by start: one pass both settles tau (once a slot starts
   past tau no later slot can contain it) and counts the slots left of
   the final tau. *)
let slot_position times seq len t_min_k =
  let tau = ref t_min_k and desired = ref 0 in
  for i = 0 to len - 1 do
    let j = seq.(i) in
    let s = times.Timing.rec_start.(j) and e = times.Timing.rec_end.(j) in
    if s <= !tau then begin
      if !tau < e then tau := e;
      if s < !tau then incr desired
    end
  done;
  !desired

let run_hot ?module_reuse arena state =
  let specs = Timing.reconf_specs ?module_reuse state in
  let nr = Array.length specs in
  if Array.length arena.a_seq < nr then begin
    let cap = Stdlib.max nr (2 * Array.length arena.a_seq) in
    arena.a_seq <- Array.make cap 0;
    arena.a_rem <- Array.make cap 0
  end;
  let closure = Graph.closure_with arena.a_closure state.State.dep in
  let solver = arena.a_solver in
  Timing.Solver.reload solver ~graph:state.State.dep
    ~duration:(State.duration state) ~reconfigs:specs;
  let seq = arena.a_seq and rem = arena.a_rem in
  let len = ref 0 in
  (* One full resolve of the empty chain; each insertion then splices. *)
  let times = ref (Timing.Solver.resolve_array solver ~sequence:seq ~len:0) in
  (* Insert [k] at [desired], clamped into the legal interval the
     dependency-forced order leaves: after every scheduled spec that must
     precede it, before every scheduled spec it must precede. *)
  let insert ~desired k =
    let lo = ref 0 and hi = ref !len in
    for pos = 0 to !len - 1 do
      let j = seq.(pos) in
      if Timing.must_precede_closure closure specs.(j) specs.(k) then
        lo := Stdlib.max !lo (pos + 1);
      if Timing.must_precede_closure closure specs.(k) specs.(j) then
        hi := Stdlib.min !hi pos
    done;
    assert (!lo <= !hi);
    let pos = Stdlib.max !lo (Stdlib.min !hi desired) in
    for i = !len downto pos + 1 do
      seq.(i) <- seq.(i - 1)
    done;
    seq.(pos) <- k;
    incr len;
    times := Timing.Solver.splice solver ~sequence:seq ~len:!len ~pos
  in
  (* One phase per criticality class. Critical reconfigurations go
     first, lowest window start first, each appended after the last one
     scheduled: their delay hits the makespan in full. Non-critical ones
     then slot into the earliest controller gap at or after their window
     start, and the splice shifts whatever follows. The remaining specs
     are kept in ascending-index order (removal shifts), and the pick is
     the first strict minimum of the resolved window start. *)
  let phase ~critical ~slotted =
    let rcount = ref 0 in
    for k = 0 to nr - 1 do
      if specs.(k).Timing.critical = critical then begin
        rem.(!rcount) <- k;
        incr rcount
      end
    done;
    while !rcount > 0 do
      let times = !times in
      let bi = ref 0 in
      let best_t =
        ref times.Timing.task_end.(specs.(rem.(0)).Timing.t_in)
      in
      for i = 1 to !rcount - 1 do
        let t = times.Timing.task_end.(specs.(rem.(i)).Timing.t_in) in
        if t < !best_t then begin
          best_t := t;
          bi := i
        end
      done;
      let k = rem.(!bi) in
      let desired =
        if slotted then slot_position times seq !len !best_t
        else !len
      in
      insert ~desired k;
      for i = !bi to !rcount - 2 do
        rem.(i) <- rem.(i + 1)
      done;
      decr rcount
    done
  in
  phase ~critical:true ~slotted:false;
  phase ~critical:false ~slotted:true;
  { p_specs = specs; p_seq = seq; p_len = !len; p_times = !times }

