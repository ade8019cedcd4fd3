module Resource = Resched_fabric.Resource
module Instance = Resched_platform.Instance
module Impl = Resched_platform.Impl

type t = {
  weights : Resource.kind -> float;
  weighted_max : float;  (** Σ_r weightRes_r * maxRes_r *)
  max_t : int;
}

let make inst ~max_res =
  let total = Resource.total_units max_res in
  if total = 0 then invalid_arg "Cost.make: zero max_res";
  let weights kind =
    1. -. (float_of_int (Resource.get max_res kind) /. float_of_int total)
  in
  let weighted_max = Resource.weighted_sum ~weights max_res in
  { weights; weighted_max; max_t = Instance.max_t inst }

let cost t (impl : Impl.t) =
  let area_term =
    if t.weighted_max = 0. then 0.
    else Resource.weighted_sum ~weights:t.weights impl.res /. t.weighted_max
  in
  let time_term =
    if t.max_t = 0 then 0. else float_of_int impl.time /. float_of_int t.max_t
  in
  area_term +. time_term

let efficiency t (impl : Impl.t) =
  if not (Impl.is_hw impl) then
    invalid_arg "Cost.efficiency: hardware implementation required";
  let denom = Resource.weighted_sum ~weights:t.weights impl.res in
  if denom = 0. then infinity else float_of_int impl.time /. denom

let best_hw t inst task =
  match Instance.hw_impls inst task with
  | [] -> None
  | (idx0, i0) :: rest ->
    let best =
      List.fold_left
        (fun (bidx, bimpl, bcost) (idx, impl) ->
          let c = cost t impl in
          if c < bcost then (idx, impl, c) else (bidx, bimpl, bcost))
        (idx0, i0, cost t i0) rest
    in
    let idx, impl, _ = best in
    Some (idx, impl)
