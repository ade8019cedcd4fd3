(** SVG renderers for floorplans and schedules.

    Both are deterministic pure functions of their inputs, so renders can
    be regression-tested and diffed. *)

val floorplan : Resched_fabric.Device.t ->
  ?needs:Resched_fabric.Resource.t array ->
  Resched_floorplan.Placement.rect array -> string
(** Draw the device fabric (one column per resource column, colored by
    kind, clock-region boundaries dashed) with the region placements
    overlaid and labelled [R0, R1, ...]. When [needs] is given, each
    region's tooltip shows requirement vs provided resources. *)

val gantt : Resched_core.Schedule.t -> string
(** Draw the schedule, 900 pixels wide: one lane per processor, per
    reconfigurable region and one for the reconfiguration controller;
    tasks as labelled boxes, reconfigurations hatched. *)

val save : string -> string -> unit
(** [save path svg] writes the document to a file. *)
