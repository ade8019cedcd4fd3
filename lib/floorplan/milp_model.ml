module Lp = Resched_milp.Lp
module Branch_bound = Resched_milp.Branch_bound
module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device

type outcome =
  | Placed of Placement.rect array
  | Infeasible
  | Unknown

let candidates_per_region = 12

(* Branch-and-bound nodes per query; each node is one warm-started LP. *)
let node_limit = 2_000

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let pack device needs =
  let n = Array.length needs in
  if n = 0 then Placed [||]
  else begin
    let truncated = ref false in
    let cands =
      Array.map
        (fun need ->
          let all = Placement.candidates device need in
          if List.length all > candidates_per_region then truncated := true;
          take candidates_per_region all)
        needs
    in
    if Array.exists (fun c -> c = []) cands then Infeasible
    else begin
      let m = Lp.create () in
      (* x.(i).(p) = 1 iff region i uses its p-th candidate; the
         objective (total occupied resource units) only serves to make
         the solve deterministic. *)
      let x =
        Array.mapi
          (fun i cl ->
            Array.of_list
              (List.mapi
                 (fun p rect ->
                   let area =
                     float_of_int
                       (Resource.total_units (Placement.resources device rect))
                   in
                   ( Lp.add_binary m ~name:(Printf.sprintf "x_%d_%d" i p)
                       ~obj:area (),
                     rect ))
                 cl))
          cands
      in
      Array.iter
        (fun row ->
          Lp.add_constraint m
            (Array.to_list (Array.map (fun (v, _) -> (v, 1.)) row))
            Lp.Eq 1.)
        x;
      (* Tile-occupancy rows: every column x clock-region tile hosts at
         most one placement. Tighter and far smaller than pairwise
         conflicts. *)
      let ncols = Array.length device.Device.columns in
      for c = 0 to ncols - 1 do
        for r = 0 to device.Device.rows - 1 do
          let terms = ref [] in
          Array.iter
            (fun row ->
              Array.iter
                (fun ((v : Lp.var), (rect : Placement.rect)) ->
                  if
                    rect.Placement.c0 <= c && c <= rect.Placement.c1
                    && rect.Placement.r0 <= r
                    && r <= rect.Placement.r1
                  then terms := (v, 1.) :: !terms)
                row)
            x;
          match !terms with
          | [] | [ _ ] -> ()
          | terms -> Lp.add_constraint m terms Lp.Le 1.
        done
      done;
      match Branch_bound.solve ~node_limit m with
      | Branch_bound.Optimal { values; _ }
      | Branch_bound.Feasible { values; _ } ->
        let placements =
          Array.map
            (fun (row : (Lp.var * Placement.rect) array) ->
              let rect = ref None in
              Array.iter
                (fun ((v : Lp.var), r) ->
                  if values.((v :> int)) > 0.5 then rect := Some r)
                row;
              match !rect with Some r -> r | None -> assert false)
            x
        in
        Placed placements
      | Branch_bound.Infeasible ->
        (* Infeasibility is only a proof when no candidate list was
           truncated by the per-region cap. *)
        if !truncated then Unknown else Infeasible
      | Branch_bound.Node_limit -> Unknown
      | Branch_bound.Unbounded -> assert false
    end
  end
