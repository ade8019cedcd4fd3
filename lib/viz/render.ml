module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Placement = Resched_floorplan.Placement
module Instance = Resched_platform.Instance
module Arch = Resched_platform.Arch
module Schedule = Resched_core.Schedule

let kind_fill = function
  | Resource.Clb -> "#dce8f5"
  | Resource.Bram -> "#f5d9dc"
  | Resource.Dsp -> "#d9f0d9"

let region_palette =
  [| "#4c78a8"; "#f58518"; "#54a24b"; "#b279a2"; "#e45756"; "#72b7b2";
     "#eeca3b"; "#9d755d"; "#bab0ac"; "#4f5d75" |]

let region_fill i = region_palette.(i mod Array.length region_palette)

let floorplan device ?needs placements =
  let ncols = Array.length device.Device.columns in
  let rows = device.Device.rows in
  let col_w = 9. and row_h = 70. in
  let margin = 24. in
  let width = margin +. (float_of_int ncols *. col_w) +. margin in
  let height = margin +. (float_of_int rows *. row_h) +. margin in
  let doc = Svg.create ~width ~height in
  (* Fabric columns. *)
  Array.iteri
    (fun c kind ->
      Svg.rect doc
        ~x:(margin +. (float_of_int c *. col_w))
        ~y:margin ~w:col_w
        ~h:(float_of_int rows *. row_h)
        ~fill:(kind_fill kind) ~stroke:"#ffffff" ~stroke_width:0.4
        ~title:(Resource.kind_name kind) ())
    device.Device.columns;
  (* Clock-region boundaries. *)
  for r = 0 to rows do
    Svg.line doc ~x1:margin
      ~y1:(margin +. (float_of_int r *. row_h))
      ~x2:(margin +. (float_of_int ncols *. col_w))
      ~y2:(margin +. (float_of_int r *. row_h))
      ~stroke:"#666666" ~stroke_width:0.8 ~dash:"4,3" ()
  done;
  (* Region placements. *)
  Array.iteri
    (fun i (p : Placement.rect) ->
      let x = margin +. (float_of_int p.Placement.c0 *. col_w) in
      let y = margin +. (float_of_int p.Placement.r0 *. row_h) in
      let w = float_of_int (Placement.width p) *. col_w in
      let h = float_of_int (Placement.height p) *. row_h in
      let title =
        let provided = Placement.resources device p in
        match needs with
        | Some ns when i < Array.length ns ->
          Printf.sprintf "R%d: needs %s, placement provides %s" i
            (Resource.to_string ns.(i))
            (Resource.to_string provided)
        | _ -> Printf.sprintf "R%d: %s" i (Resource.to_string provided)
      in
      Svg.rect doc ~x ~y ~w ~h ~rx:2. ~fill:(region_fill i)
        ~stroke:"#202020" ~stroke_width:1.2 ~opacity:0.55 ~title ();
      Svg.text doc
        ~x:(x +. (w /. 2.))
        ~y:(y +. (h /. 2.) +. 4.)
        ~size:12. ~anchor:"middle" ~fill:"#101010"
        (Printf.sprintf "R%d" i))
    placements;
  Svg.text doc ~x:margin ~y:(height -. 6.) ~size:10. ~fill:"#555555"
    (Printf.sprintf "%s: %d columns x %d clock regions" device.Device.name
       ncols rows);
  Svg.to_string doc

let gantt (sched : Schedule.t) =
  let width = 900. (* drawing width, pixels *) in
  let inst = sched.Schedule.instance in
  let makespan = float_of_int (Stdlib.max 1 sched.Schedule.makespan) in
  let lane_h = 26. and lane_gap = 6. in
  let label_w = 76. and margin = 14. in
  let procs = inst.Instance.arch.Arch.processors in
  let nregions = Array.length sched.Schedule.regions in
  let has_icap = sched.Schedule.reconfigurations <> [] in
  let lanes = procs + nregions + if has_icap then 1 else 0 in
  let height =
    margin +. (float_of_int lanes *. (lane_h +. lane_gap)) +. 30.
  in
  let doc = Svg.create ~width:(label_w +. width +. (2. *. margin)) ~height in
  let x_of t = label_w +. margin +. (float_of_int t /. makespan *. width) in
  let lane_y i = margin +. (float_of_int i *. (lane_h +. lane_gap)) in
  let lane_label i name =
    Svg.text doc ~x:margin ~y:(lane_y i +. (lane_h /. 2.) +. 4.) ~size:11.
      name
  in
  let box lane_idx ~start_ ~end_ ~fill ~title label =
    let x = x_of start_ in
    let w = Float.max 1.5 (x_of end_ -. x) in
    let y = lane_y lane_idx in
    Svg.rect doc ~x ~y ~w ~h:lane_h ~rx:2. ~fill ~stroke:"#303030"
      ~stroke_width:0.8 ~title ();
    if w > 30. then
      Svg.text doc
        ~x:(x +. (w /. 2.))
        ~y:(y +. (lane_h /. 2.) +. 4.)
        ~size:10. ~anchor:"middle" label
  in
  (* Lane backgrounds. *)
  for i = 0 to lanes - 1 do
    Svg.rect doc ~x:(label_w +. margin) ~y:(lane_y i) ~w:width ~h:lane_h
      ~fill:"#f6f6f6" ~stroke:"#e0e0e0" ~stroke_width:0.5 ()
  done;
  (* Processor lanes. *)
  for p = 0 to procs - 1 do
    lane_label p (Printf.sprintf "cpu%d" p);
    Array.iteri
      (fun u (s : Schedule.task_slot) ->
        match s.Schedule.placement with
        | Schedule.On_processor q when q = p ->
          box p ~start_:s.Schedule.start_ ~end_:s.Schedule.end_
            ~fill:"#c5d6ea"
            ~title:
              (Printf.sprintf "%s: %d..%d (SW)" (Instance.task_name inst u)
                 s.Schedule.start_ s.Schedule.end_)
            (Instance.task_name inst u)
        | _ -> ())
      sched.Schedule.slots
  done;
  (* Region lanes. *)
  Array.iteri
    (fun ridx (r : Schedule.region) ->
      let lane_idx = procs + ridx in
      lane_label lane_idx (Printf.sprintf "region%d" ridx);
      List.iter
        (fun u ->
          let s = sched.Schedule.slots.(u) in
          box lane_idx ~start_:s.Schedule.start_ ~end_:s.Schedule.end_
            ~fill:(region_fill ridx)
            ~title:
              (Printf.sprintf "%s: %d..%d (HW on R%d)"
                 (Instance.task_name inst u) s.Schedule.start_ s.Schedule.end_
                 ridx)
            (Instance.task_name inst u))
        r.Schedule.tasks;
      List.iter
        (fun (rc : Schedule.reconfiguration) ->
          if rc.Schedule.region = ridx then
            box lane_idx ~start_:rc.Schedule.r_start ~end_:rc.Schedule.r_end
              ~fill:"#999999"
              ~title:
                (Printf.sprintf "reconfiguration for %s: %d..%d"
                   (Instance.task_name inst rc.Schedule.t_out)
                   rc.Schedule.r_start rc.Schedule.r_end)
              "rcfg")
        sched.Schedule.reconfigurations)
    sched.Schedule.regions;
  (* Controller lane. *)
  if has_icap then begin
    let lane_idx = procs + nregions in
    lane_label lane_idx "icap";
    List.iter
      (fun (rc : Schedule.reconfiguration) ->
        box lane_idx ~start_:rc.Schedule.r_start ~end_:rc.Schedule.r_end
          ~fill:"#b5b5b5"
          ~title:
            (Printf.sprintf "R%d bitstream: %d..%d" rc.Schedule.region
               rc.Schedule.r_start rc.Schedule.r_end)
          (Printf.sprintf "R%d" rc.Schedule.region))
      sched.Schedule.reconfigurations
  end;
  Svg.text doc ~x:(label_w +. margin)
    ~y:(height -. 8.)
    ~size:10. ~fill:"#555555"
    (Printf.sprintf "makespan: %d ticks" sched.Schedule.makespan);
  Svg.to_string doc

let save path svg =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc svg)
