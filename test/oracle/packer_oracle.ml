(* v1 of the floorplan packer, the oracle for [Packer.pack]: first-fit
   greedy plus naive backtracking over [Placement.candidates] lists,
   under the production packer's node budget. *)

module Resource = Resched_fabric.Resource
module Placement = Resched_floorplan.Placement

type outcome = Resched_floorplan.Packer.outcome =
  | Placed of Placement.rect array
  | Infeasible
  | Unknown

exception Done of Placement.rect array
exception Budget

let node_limit = Resched_floorplan.Packer.node_limit

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

let pack_v1 device needs =
  let n = Array.length needs in
  if n = 0 then Placed [||]
  else begin
    let cands = Array.map (Placement.candidates device) needs in
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
