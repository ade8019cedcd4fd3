module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource

type engine = Backtracking | Milp

type verdict =
  | Feasible of Placement.rect array
  | Infeasible
  | Unknown

type report = {
  verdict : verdict;
  elapsed : float;
}

let of_packer = function
  | Packer.Placed p -> Feasible p
  | Packer.Infeasible -> Infeasible
  | Packer.Unknown -> Unknown

let of_milp = function
  | Milp_model.Placed p -> Feasible p
  | Milp_model.Infeasible -> Infeasible
  | Milp_model.Unknown -> Unknown

let check ?(engine = Backtracking) device needs =
  let t0 = Unix.gettimeofday () in
  let verdict =
    match engine with
    | Backtracking -> of_packer (Packer.pack device needs)
    | Milp -> of_milp (Milp_model.pack device needs)
  in
  { verdict; elapsed = Unix.gettimeofday () -. t0 }

let validate device ~needs placements =
  let n = Array.length needs in
  if Array.length placements <> n then Error "placement count mismatch"
  else begin
    let ncols = Array.length device.Device.columns in
    let rows = device.Device.rows in
    let problem = ref None in
    let set_problem msg = if !problem = None then problem := Some msg in
    Array.iteri
      (fun i (r : Placement.rect) ->
        if r.c0 < 0 || r.c1 >= ncols || r.c0 > r.c1 || r.r0 < 0
           || r.r1 >= rows || r.r0 > r.r1
        then set_problem (Printf.sprintf "region %d out of bounds" i)
        else begin
          if not (Resource.fits needs.(i) ~within:(Placement.resources device r))
          then set_problem (Printf.sprintf "region %d under-provisioned" i)
        end)
      placements;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Placement.overlap placements.(i) placements.(j) then
          set_problem (Printf.sprintf "regions %d and %d overlap" i j)
      done
    done;
    match !problem with None -> Ok () | Some msg -> Error msg
  end
