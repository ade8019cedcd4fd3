module Rng = Resched_util.Rng
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch

type stats = {
  proposed : int;
  applied : int;
  accepted : int;
  improvements : int;
  elapsed : float;
}

type outcome = {
  schedule : Schedule.t option;
  makespan : int;
  stats : stats;
}

(* Draw one move from the current state. Plenty of draws are dead on
   arrival (a software task where a hardware one was wanted, the same
   region twice, ...); they are returned anyway and rejected by the
   kernel's structural checks — the proposal loop stays branch-light and
   the accounting ([proposed] vs [applied]) shows the waste. *)
let propose d rng =
  let n = Delta.size d in
  let pick_task () = Rng.int rng n in
  let pick_region regions = regions.(Rng.int rng (Array.length regions)) in
  let regions = Array.of_list (Delta.live_regions d) in
  let have_regions = Array.length regions > 0 in
  match Rng.int rng 100 with
  | k when k < 30 && have_regions ->
    Delta.Reassign { task = pick_task (); region = pick_region regions }
  | k when k < 45 ->
    Delta.Swap { task_a = pick_task (); task_b = pick_task () }
  | k when k < 60 ->
    let inst = Delta.instance d in
    let processors = inst.Instance.arch.Arch.processors in
    Delta.To_sw { task = pick_task (); processor = Rng.int rng processors }
  | k when k < 80 ->
    let u = pick_task () in
    let inst = Delta.instance d in
    (match Instance.hw_impls inst u with
    | [] -> Delta.To_sw { task = u; processor = 0 }
    | impls ->
      let idx, _ = List.nth impls (Rng.int rng (List.length impls)) in
      let region =
        if have_regions && Rng.bool rng then Some (pick_region regions)
        else None
      in
      Delta.To_hw { task = u; impl_idx = idx; region })
  | k when (k < 90 && have_regions) || (k >= 90 && not have_regions) ->
    if not have_regions then Delta.Swap { task_a = 0; task_b = 0 }
    else
      Delta.Merge { dst = pick_region regions; src = pick_region regions }
  | _ ->
    if not have_regions then Delta.Swap { task_a = 0; task_b = 0 }
    else
      let r = pick_region regions in
      let count = Delta.region_task_count d r in
      if count < 2 then Delta.Split { region = r; keep = 1 }
      else Delta.Split { region = r; keep = 1 + Rng.int rng (count - 1) }

let polish ?config ?(seed = 0) ?(min_moves = 1) ~budget_seconds sched =
  let t0 = Unix.gettimeofday () in
  let d = Delta.of_schedule ?config sched in
  let rng = Rng.create seed in
  let seed_mk = Delta.makespan d in
  (* infeasibility must dominate any makespan difference *)
  let penalty = 10 * (seed_mk + 1) in
  let energy mk fp = if fp then mk else mk + penalty in
  let temp = ref (Stdlib.max 1.0 (0.05 *. float_of_int seed_mk)) in
  let cur_energy = ref (energy seed_mk (Delta.fp_feasible d)) in
  let best_mk = ref (if Delta.fp_feasible d then seed_mk else max_int) in
  let best = ref (if Delta.fp_feasible d then Some (Delta.to_schedule d) else None) in
  let proposed = ref 0
  and applied = ref 0
  and accepted = ref 0
  and improvements = ref 0 in
  let out_of_budget () =
    !proposed >= min_moves
    && (budget_seconds <= 0.
       || Unix.gettimeofday () -. t0 >= budget_seconds)
  in
  while not (out_of_budget ()) do
    incr proposed;
    let move = propose d rng in
    (match Delta.apply d move with
    | None -> ()
    | Some v ->
      incr applied;
      let e = energy v.Delta.makespan v.Delta.fp_feasible in
      let delta = e - !cur_energy in
      let keep =
        delta <= 0
        || Rng.float rng 1.0 < exp (-.float_of_int delta /. !temp)
      in
      if keep then begin
        Delta.commit d;
        incr accepted;
        cur_energy := e;
        if v.Delta.fp_feasible && v.Delta.makespan < !best_mk then begin
          best_mk := v.Delta.makespan;
          best := Some (Delta.to_schedule d);
          incr improvements
        end
      end
      else Delta.rollback d);
    (* geometric cooling, per proposal *)
    temp := Stdlib.max 1e-6 (!temp *. 0.999)
  done;
  {
    schedule = !best;
    makespan = !best_mk;
    stats =
      {
        proposed = !proposed;
        applied = !applied;
        accepted = !accepted;
        improvements = !improvements;
        elapsed = Unix.gettimeofday () -. t0;
      };
  }
