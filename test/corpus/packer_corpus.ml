(* Line format of the golden packer corpus ([packer_golden.txt]), shared
   by its generator and the replay test.

     <shape> <device> <path> <nodes> <clb>.<bram>.<dsp> ... = <outcome>

   <shape> names the workload that first issued the query, <device> is a
   [Device.presets] name, <path> is the packer's [Packer.path], <nodes>
   the search nodes it spent (see [Packer.pack_path]) and the needs are
   in the order [Packer.pack] received them. <outcome> is
   [infeasible], [unknown] or [placed c0-c1:r0-r1 ...] (one rect per
   region, in region order). Lines starting with '#' are comments. *)

module Resource = Resched_fabric.Resource
module Device = Resched_fabric.Device
module Placement = Resched_floorplan.Placement
module Packer = Resched_floorplan.Packer

type query = {
  shape : string;
  device : string;
  path : Packer.path;
  nodes : int;
  needs : Resource.t array;
  outcome : Packer.outcome;
}

let paths =
  Packer.
    [
      (Capacity_bound, "capacity");
      (Root_tile_bound, "root-tiles");
      (Greedy, "greedy");
      (Portfolio, "portfolio");
      (Fallback, "fallback");
    ]

let path_name p = List.assoc p paths

let path_of_name s =
  match List.find_opt (fun (_, n) -> n = s) paths with
  | Some (p, _) -> p
  | None -> failwith ("packer corpus: unknown path " ^ s)

let device_name d =
  match List.find_opt (fun (_, p) -> p == d) Device.presets with
  | Some (name, _) -> name
  | None -> failwith "packer corpus: not a preset device"

let device_of_name s =
  match Device.by_name s with
  | Some d -> d
  | None -> failwith ("packer corpus: unknown device " ^ s)

let string_of_outcome = function
  | Packer.Infeasible -> "infeasible"
  | Packer.Unknown -> "unknown"
  | Packer.Placed rects ->
    String.concat " "
      ("placed"
      :: Array.to_list
           (Array.map
              (fun (r : Placement.rect) ->
                Printf.sprintf "%d-%d:%d-%d" r.c0 r.c1 r.r0 r.r1)
              rects))

let to_line q =
  String.concat " "
    ([ q.shape; q.device; path_name q.path; string_of_int q.nodes ]
    @ Array.to_list
        (Array.map
           (fun (r : Resource.t) ->
             Printf.sprintf "%d.%d.%d" r.clb r.bram r.dsp)
           q.needs)
    @ [ "="; string_of_outcome q.outcome ])

let outcome_of_words = function
  | [ "infeasible" ] -> Packer.Infeasible
  | [ "unknown" ] -> Packer.Unknown
  | "placed" :: rects ->
    Packer.Placed
      (Array.of_list
         (List.map
            (fun w ->
              Scanf.sscanf w "%d-%d:%d-%d" (fun c0 c1 r0 r1 ->
                  { Placement.c0; c1; r0; r1 }))
            rects))
  | _ -> failwith "packer corpus: bad outcome"

let of_line line =
  let words = String.split_on_char ' ' (String.trim line) in
  let rec split acc = function
    | "=" :: rest -> (List.rev acc, rest)
    | w :: rest -> split (w :: acc) rest
    | [] -> failwith "packer corpus: missing '='"
  in
  match split [] words with
  | shape :: device :: path :: nodes :: needs, outcome ->
    {
      shape;
      device;
      path = path_of_name path;
      nodes =
        (match int_of_string_opt nodes with
        | Some n -> n
        | None -> failwith ("packer corpus: bad node count " ^ nodes));
      needs =
        Array.of_list
          (List.map
             (fun w ->
               Scanf.sscanf w "%d.%d.%d" (fun clb bram dsp ->
                   Resource.make ~clb ~bram ~dsp))
             needs);
      outcome = outcome_of_words outcome;
    }
  | _ -> failwith "packer corpus: short line"

let load file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
  |> List.map of_line
