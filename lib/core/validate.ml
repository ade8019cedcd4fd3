module Resource = Resched_fabric.Resource
module Graph = Resched_taskgraph.Graph
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Impl = Resched_platform.Impl
module Floorplanner = Resched_floorplan.Floorplanner

type violation = { code : string; message : string }

exception Invalid of violation list

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.code v.message

let () =
  Printexc.register_printer (function
    | Invalid vs ->
      Some
        (Printf.sprintf "invalid schedule:\n  %s"
           (String.concat "\n  "
              (List.map (Format.asprintf "%a" pp_violation) vs)))
    | _ -> None)

let overlap a_start a_end b_start b_end = a_start < b_end && b_start < a_end

(* Does task [u]'s slot name one of its implementations? The checks that
   read the implementation skip a task that does not: [IMPL] reports it. *)
let impl_in_range (sched : Schedule.t) u =
  let idx = sched.Schedule.slots.(u).Schedule.impl_idx in
  idx >= 0 && idx < Array.length sched.Schedule.instance.Instance.impls.(u)

let check (sched : Schedule.t) =
  let inst = sched.Schedule.instance in
  let n = Instance.size inst in
  let violations = ref [] in
  let fail code fmt =
    Printf.ksprintf
      (fun message -> violations := { code; message } :: !violations)
      fmt
  in
  (* Structural checks on slots and implementations. Every later check
     reads a slot per task, so too few slots end the check here. *)
  if Array.length sched.Schedule.slots <> n then
    fail "STRUCT" "expected %d slots, got %d" n
      (Array.length sched.Schedule.slots);
  if Array.length sched.Schedule.slots < n then Error (List.rev !violations)
  else
  let slot u = sched.Schedule.slots.(u) in
  let impl u = Instance.impl inst ~task:u ~idx:(slot u).Schedule.impl_idx in
  for u = 0 to n - 1 do
    let s = slot u in
    if not (impl_in_range sched u) then
      fail "IMPL" "task %d: implementation index out of range" u
    else begin
      let i = impl u in
      (match (i.Impl.kind, s.Schedule.placement) with
      | Impl.Hw, Schedule.On_processor _ ->
        fail "KIND" "task %d: hardware implementation on a processor" u
      | Impl.Sw, Schedule.On_region _ ->
        fail "KIND" "task %d: software implementation on a region" u
      | Impl.Hw, Schedule.On_region r ->
        if r < 0 || r >= Array.length sched.Schedule.regions then
          fail "KIND" "task %d: region %d out of range" u r
      | Impl.Sw, Schedule.On_processor p ->
        if p < 0 || p >= inst.Instance.arch.Arch.processors then
          fail "KIND" "task %d: processor %d out of range" u p);
      if s.Schedule.start_ < 0 then fail "TIME" "task %d starts before 0" u;
      if s.Schedule.end_ - s.Schedule.start_ <> i.Impl.time then
        fail "TIME" "task %d: slot length %d <> implementation time %d" u
          (s.Schedule.end_ - s.Schedule.start_)
          i.Impl.time
    end
  done;
  (* Data dependencies. *)
  List.iter
    (fun (u, v) ->
      if (slot v).Schedule.start_ < (slot u).Schedule.end_ then
        fail "DEP" "edge (%d, %d): %d starts at %d before %d ends at %d" u v v
          (slot v).Schedule.start_ u (slot u).Schedule.end_)
    (Graph.edges inst.Instance.graph);
  (* Region membership consistency. *)
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      List.iter
        (fun u ->
          if u < 0 || u >= n then
            fail "REGION" "region %d lists unknown task %d" ridx u
          else begin
            match (slot u).Schedule.placement with
            | Schedule.On_region r' when r' = ridx -> ()
            | _ -> fail "REGION" "region %d lists task %d placed elsewhere" ridx u
          end)
        r.Schedule.tasks)
    sched.Schedule.regions;
  for u = 0 to n - 1 do
    match (slot u).Schedule.placement with
    | Schedule.On_region r
      when r >= 0
           && r < Array.length sched.Schedule.regions
           && not (List.mem u sched.Schedule.regions.(r).Schedule.tasks) ->
      fail "REGION" "task %d placed on region %d but not listed there" u r
    | Schedule.On_region _ | Schedule.On_processor _ -> ()
  done;
  (* Region capacity per task and total device capacity. *)
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      List.iter
        (fun u ->
          if u >= 0 && u < n && impl_in_range sched u then begin
            let i = impl u in
            if Impl.is_hw i
               && not (Resource.fits i.Impl.res ~within:r.Schedule.res)
            then
              fail "CAP" "task %d does not fit region %d (%s in %s)" u ridx
                (Resource.to_string i.Impl.res)
                (Resource.to_string r.Schedule.res)
          end)
        r.Schedule.tasks)
    sched.Schedule.regions;
  let total =
    Array.fold_left
      (fun acc (r : Schedule.region) -> Resource.add acc r.Schedule.res)
      Resource.zero sched.Schedule.regions
  in
  if not (Resource.fits total ~within:(Arch.max_res inst.Instance.arch)) then
    fail "CAP" "regions total %s exceeds device %s"
      (Resource.to_string total)
      (Resource.to_string (Arch.max_res inst.Instance.arch));
  (* Region exclusiveness + reconfiguration between consecutive tasks. *)
  let find_reconf ridx a b =
    List.find_opt
      (fun (rc : Schedule.reconfiguration) ->
        rc.Schedule.region = ridx && rc.Schedule.t_in = a && rc.Schedule.t_out = b)
      sched.Schedule.reconfigurations
  in
  let same_module a b =
    impl_in_range sched a && impl_in_range sched b
    &&
    match ((impl a).Impl.module_id, (impl b).Impl.module_id) with
    | Some x, Some y -> x = y
    | _ -> false
  in
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      let ordered =
        List.sort
          (fun a b -> compare (slot a).Schedule.start_ (slot b).Schedule.start_)
          r.Schedule.tasks
      in
      let rec walk = function
        | a :: b :: tl ->
          if overlap (slot a).Schedule.start_ (slot a).Schedule.end_
               (slot b).Schedule.start_ (slot b).Schedule.end_
          then fail "EXCL" "region %d: tasks %d and %d overlap" ridx a b
          else begin
            let reuse = sched.Schedule.module_reuse && same_module a b in
            if not reuse then begin
              match find_reconf ridx a b with
              | None ->
                fail "RECONF" "region %d: no reconfiguration between %d and %d"
                  ridx a b
              | Some rc ->
                if rc.Schedule.r_start < (slot a).Schedule.end_ then
                  fail "RECONF"
                    "region %d: reconfiguration for %d starts before %d ends"
                    ridx b a;
                if rc.Schedule.r_end > (slot b).Schedule.start_ then
                  fail "RECONF"
                    "region %d: reconfiguration for %d ends after it starts"
                    ridx b;
                if rc.Schedule.r_end - rc.Schedule.r_start
                   <> r.Schedule.reconf_ticks
                then
                  fail "RECONF"
                    "region %d: reconfiguration length %d <> reconf_s %d" ridx
                    (rc.Schedule.r_end - rc.Schedule.r_start)
                    r.Schedule.reconf_ticks
            end
          end;
          walk (b :: tl)
        | [ _ ] | [] -> ()
      in
      walk ordered)
    sched.Schedule.regions;
  (* Processor exclusiveness: per-processor sort-and-sweep. Sorted by
     start time, two slots on the same processor overlap iff a slot
     starts before its predecessor in the order ends — adjacent pairs
     suffice, so the all-pairs quadratic scan collapses to sort + one
     linear walk per processor. *)
  let procs = inst.Instance.arch.Arch.processors in
  let per_proc = Array.make (Stdlib.max 1 procs) [] in
  for u = n - 1 downto 0 do
    match (slot u).Schedule.placement with
    | Schedule.On_processor p when p >= 0 && p < procs ->
      per_proc.(p) <- u :: per_proc.(p)
    | Schedule.On_processor _ | Schedule.On_region _ -> ()
  done;
  Array.iteri
    (fun p tasks ->
      let ordered =
        List.sort
          (fun a b ->
            let c = compare (slot a).Schedule.start_ (slot b).Schedule.start_ in
            if c <> 0 then c else compare a b)
          tasks
      in
      (* Walk in start order keeping the slot with the furthest end seen
         so far: any slot starting before that end overlaps the witness
         (a zero-length slot never overlaps anything). *)
      let rec sweep witness = function
        | u :: tl ->
          let s = slot u in
          (match witness with
          | Some w
            when s.Schedule.start_ < (slot w).Schedule.end_
                 && overlap (slot w).Schedule.start_ (slot w).Schedule.end_
                      s.Schedule.start_ s.Schedule.end_ ->
            fail "EXCL" "processor %d: tasks %d and %d overlap" p w u
          | Some _ | None -> ());
          let witness =
            match witness with
            | Some w when (slot w).Schedule.end_ >= s.Schedule.end_ -> Some w
            | Some _ | None -> Some u
          in
          sweep witness tl
        | [] -> ()
      in
      sweep None ordered)
    per_proc;
  (* Single reconfiguration controller. *)
  let rcs = Array.of_list sched.Schedule.reconfigurations in
  Array.iteri
    (fun i (a : Schedule.reconfiguration) ->
      if a.Schedule.r_start < 0 then
        fail "RECONF" "reconfiguration %d starts before 0" i;
      Array.iteri
        (fun j (b : Schedule.reconfiguration) ->
          if j > i
             && overlap a.Schedule.r_start a.Schedule.r_end b.Schedule.r_start
                  b.Schedule.r_end
          then
            fail "CTRL" "reconfigurations %d and %d overlap on the controller"
              i j)
        rcs)
    rcs;
  (* Makespan. *)
  let real_makespan =
    Array.fold_left
      (fun acc (s : Schedule.task_slot) -> Stdlib.max acc s.Schedule.end_)
      0 sched.Schedule.slots
  in
  if real_makespan <> sched.Schedule.makespan then
    fail "SPAN" "declared makespan %d <> actual %d" sched.Schedule.makespan
      real_makespan;
  (* Floorplan, when present. *)
  (match sched.Schedule.floorplan with
  | None -> ()
  | Some placements -> (
    let needs =
      Array.map (fun (r : Schedule.region) -> r.Schedule.res) sched.Schedule.regions
    in
    match
      Floorplanner.validate inst.Instance.arch.Arch.device ~needs placements
    with
    | Ok () -> ()
    | Error msg -> fail "PLAN" "floorplan invalid: %s" msg));
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let check_exn sched =
  match check sched with Ok () -> () | Error vs -> raise (Invalid vs)
