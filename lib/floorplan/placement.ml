module Device = Resched_fabric.Device
module Resource = Resched_fabric.Resource

type rect = { c0 : int; c1 : int; r0 : int; r1 : int }

let width r = r.c1 - r.c0 + 1
let height r = r.r1 - r.r0 + 1

let overlap a b =
  a.c0 <= b.c1 && b.c0 <= a.c1 && a.r0 <= b.r1 && b.r0 <= a.r1

let resources device r =
  Device.rect_resources device ~c0:r.c0 ~c1:r.c1 ~r0:r.r0 ~r1:r.r1

let candidate_count_cap = 512

let candidates device need =
  if Resource.is_zero need then
    invalid_arg "Placement.candidates: zero requirement";
  let ncols = Array.length device.Device.columns in
  let rows = device.Device.rows in
  let acc = ref [] in
  for r0 = 0 to rows - 1 do
    for r1 = r0 to rows - 1 do
      let h = r1 - r0 + 1 in
      (* Sliding window over columns: grow c1 until the window fits,
         then record and slide c0. Per (r0, r1) this yields, for every
         c0, the minimal c1 — but we only keep windows that are minimal
         in the sense that shrinking from the left also breaks
         feasibility, which the slide achieves naturally. *)
      let have = ref Resource.zero in
      let col_res c =
        let unit_ = Device.column_units device ~col:c in
        Resource.scale unit_ (float_of_int h)
      in
      let c0 = ref 0 and c1 = ref (-1) in
      let continue_ = ref true in
      while !continue_ do
        (* Extend right edge until the requirement fits. *)
        while (not (Resource.fits need ~within:!have)) && !c1 < ncols - 1 do
          incr c1;
          have := Resource.add !have (col_res !c1)
        done;
        if not (Resource.fits need ~within:!have) then continue_ := false
        else begin
          (* Shrink from the left while it still fits to make it minimal. *)
          while
            !c0 <= !c1
            && Resource.fits need
                 ~within:(Resource.sub !have (col_res !c0))
          do
            have := Resource.sub !have (col_res !c0);
            incr c0
          done;
          acc := { c0 = !c0; c1 = !c1; r0; r1 } :: !acc;
          (* Drop the left column and continue the scan. *)
          have := Resource.sub !have (col_res !c0);
          incr c0;
          if !c0 > !c1 && !c1 = ncols - 1 then continue_ := false
        end
      done
    done
  done;
  let area r =
    Resource.total_units (resources device r)
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (area a) (area b) in
        if c <> 0 then c else compare (a.r0, a.c0, a.r1, a.c1) (b.r0, b.c0, b.r1, b.c1))
      !acc
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take candidate_count_cap sorted
