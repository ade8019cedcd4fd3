module Resource = Resched_fabric.Resource
module Rng = Resched_util.Rng
module Impl = Resched_platform.Impl

type ordering =
  | By_efficiency
  | By_cost
  | Topological
  | Random of Rng.t

let same_module (a : Impl.t) (b : Impl.t) =
  match (a.module_id, b.module_id) with
  | Some x, Some y -> x = y
  | _ -> false

let windows_disjoint state ~task (region : State.region) =
  List.for_all
    (fun u ->
      State.t_max state u <= State.t_min state task
      || State.t_max state task <= State.t_min state u)
    region.State.tasks

(* Neighbours of [task]'s window among the region's hosted tasks: the
   hosted task whose window ends last before [task]'s starts, and the one
   whose window starts first after [task]'s ends. *)
let window_neighbours state ~task (region : State.region) =
  let prev = ref None and next = ref None in
  List.iter
    (fun u ->
      if State.t_max state u <= State.t_min state task then begin
        match !prev with
        | Some p when State.t_max state p >= State.t_max state u -> ()
        | _ -> prev := Some u
      end
      else if State.t_min state u >= State.t_max state task then begin
        match !next with
        | Some nx when State.t_min state nx <= State.t_min state u -> ()
        | _ -> next := Some u
      end)
    region.State.tasks;
  (!prev, !next)

let reconf_gaps_ok ~module_reuse state ~task region =
  let reconf = region.State.reconf in
  let reuse a b =
    module_reuse && same_module (State.impl state a) (State.impl state b)
  in
  let prev, next = window_neighbours state ~task region in
  let before_ok =
    match prev with
    | None -> true (* the task becomes the region's first: initial
                      configuration is free *)
    | Some p ->
      reuse p task || State.t_min state task - State.t_max state p >= reconf
  in
  let after_ok =
    match next with
    | None -> true
    | Some nx ->
      reuse task nx || State.t_min state nx - State.t_max state task >= reconf
  in
  before_ok && after_ok

let fits_region state ~task (region : State.region) =
  Resource.fits (State.impl state task).Impl.res ~within:region.State.res

let region_compatible_critical ~module_reuse state ~task region =
  fits_region state ~task region
  && windows_disjoint state ~task region
  && reconf_gaps_ok ~module_reuse state ~task region

let region_compatible_non_critical state ~task region =
  fits_region state ~task region && windows_disjoint state ~task region

(* First region (in creation order) with the strictly lowest bitstream
   among those satisfying [ok] — what folding the filtered
   creation-order list with a strict [<] used to pick, without building
   that list. *)
let best_compatible state ~ok =
  let best = ref None in
  State.iter_regions state (fun (r : State.region) ->
      if ok r then
        match !best with
        | Some (b : State.region) when b.State.bits <= r.State.bits -> ()
        | _ -> best := Some r);
  !best

(* Assign one critical hardware task per the three-way rule of Sec. V-C. *)
let place_critical ~module_reuse state ~task =
  let need = (State.impl state task).Impl.res in
  let compatible =
    best_compatible state ~ok:(fun r ->
        region_compatible_critical ~module_reuse state ~task r)
  in
  match compatible with
  | Some region -> State.assign_to_region state ~task region
  | None ->
    if State.fits_on_fpga state need then begin
      let region = State.new_region state need in
      State.assign_to_region state ~task region
    end
    else State.switch_to_sw state ~task

(* Non-critical tasks aim at maximizing FPGA utilization: prefer a fresh
   region, then reuse, then software. *)
let place_non_critical state ~task =
  let need = (State.impl state task).Impl.res in
  if State.fits_on_fpga state need then begin
    let region = State.new_region state need in
    State.assign_to_region state ~task region
  end
  else begin
    let compatible =
      best_compatible state ~ok:(fun r ->
          region_compatible_non_critical state ~task r)
    in
    match compatible with
    | Some region -> State.assign_to_region state ~task region
    | None -> State.switch_to_sw state ~task
  end

(* Partition and sort the hardware tasks in borrowed scratch arrays.
   Stable insertion sorts over index-ordered segments give the order
   [List.stable_sort] would, and the inlined Fisher-Yates over the
   non-critical segment replays [Rng.shuffle]'s exact draw sequence
   (both checked against the list-ordered reference in test code). *)
let run ?(module_reuse = false) ~ordering state =
  let n = Resched_platform.Instance.size state.State.inst in
  let scratch = state.State.scratch in
  let critical = State.sc_flags scratch in
  for u = 0 to n - 1 do
    critical.(u) <- State.critical state u
  done;
  let tasks = State.sc_tasks scratch in
  let keys = State.sc_keys scratch in
  (* Criticals in [0 .. nc), non-criticals in [nc .. nc + nnc), both in
     ascending task order. Critical tasks keep the deterministic
     efficiency order even in the randomized variant (Sec. VI randomizes
     only non-critical tasks). *)
  let nc = ref 0 in
  for u = 0 to n - 1 do
    if State.is_hw state u && critical.(u) then begin
      tasks.(!nc) <- u;
      incr nc
    end
  done;
  let nc = !nc in
  let nnc = ref 0 in
  for u = 0 to n - 1 do
    if State.is_hw state u && not critical.(u) then begin
      tasks.(nc + !nnc) <- u;
      incr nnc
    end
  done;
  let nnc = !nnc in
  (* Stable insertion sort ({!Resched_util.Sort}) of [base .. base+len)
     by a precomputed float key; [desc] gives the descending order
     By_efficiency wants. *)
  let sort_segment ~base ~len ~desc key_of =
    for i = base to base + len - 1 do
      keys.(i) <- key_of tasks.(i)
    done;
    Resched_util.Sort.by_float_keys tasks keys ~base ~len ~desc
  in
  let efficiency u = Cost.efficiency state.State.cost (State.impl state u) in
  let cost u = Cost.cost state.State.cost (State.impl state u) in
  sort_segment ~base:0 ~len:nc ~desc:true efficiency;
  (match ordering with
  | By_efficiency -> sort_segment ~base:nc ~len:nnc ~desc:true efficiency
  | By_cost -> sort_segment ~base:nc ~len:nnc ~desc:false cost
  | Topological ->
    sort_segment ~base:nc ~len:nnc ~desc:false (fun u ->
        float_of_int (State.t_min state u))
  | Random rng ->
    for i = nnc - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = tasks.(nc + i) in
      tasks.(nc + i) <- tasks.(nc + j);
      tasks.(nc + j) <- tmp
    done);
  for i = 0 to nc - 1 do
    place_critical ~module_reuse state ~task:tasks.(i)
  done;
  for i = nc to nc + nnc - 1 do
    place_non_critical state ~task:tasks.(i)
  done
