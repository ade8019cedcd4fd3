(* Run directories: every bench invocation gets
   [<out_dir>/runs/<run-id>/] holding a manifest plus one JSON log per
   section. The [ab] and [check] subcommands consume these logs, so a
   comparison can always be reproduced from two committed (or
   CI-archived) run directories. A run under the [full] profile also
   writes each log to the repo-root [BENCH_<section>.json], the
   committed artifacts the docs cite. *)

module Json = Resched_util.Json

type run = { id : string; dir : string }

let runs_root () = Filename.concat Bench_env.out_dir "runs"

let manifest_path r = Filename.concat r.dir "manifest.json"

let section_path r section = Filename.concat r.dir (section ^ ".json")

(* The run the harness is recording, with its profile; sections write
   their logs into it. *)
let active : (run * Profile.t) option ref = ref None

let active_id () = match !active with Some (r, _) -> r.id | None -> "adhoc"

let run_of_dir dir = { id = Filename.basename dir; dir }

let list_runs () =
  let root = runs_root () in
  if not (Sys.file_exists root) then []
  else
    Sys.readdir root |> Array.to_list
    |> List.filter (fun n ->
           Sys.is_directory (Filename.concat root n)
           && String.length n >= 4
           && String.sub n 0 4 = "run-")
    |> List.sort compare
    |> List.map (fun n -> run_of_dir (Filename.concat root n))

(* Run ids are monotone ([run-NNNN-label]) so lexicographic order is
   creation order and "the latest two runs" is well-defined for [ab]. *)
let next_id ~label =
  let seq =
    List.fold_left
      (fun acc r ->
        match String.split_on_char '-' r.id with
        | "run" :: n :: _ -> (
          match int_of_string_opt n with
          | Some v -> Stdlib.max acc v
          | None -> acc)
        | _ -> acc)
      0 (list_runs ())
  in
  let label =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      label
  in
  if label = "" then Printf.sprintf "run-%04d" (seq + 1)
  else Printf.sprintf "run-%04d-%s" (seq + 1) label

(* Per-section GC counters (S1): the section driver measures
   [Gc.quick_stat] deltas around each section and records them here;
   [finalize] folds them into the manifest so [ab] can report
   allocation-rate drift between two runs without re-executing
   anything. Orchestrating-domain counters only — worker-domain
   allocation is reported by the sections that measure it (the
   iteration section's words-per-iteration telemetry). *)
let section_gc : (string * Json.t) list ref = ref []

let record_section_gc ~section ~elapsed_s (b : Gc.stat) (a : Gc.stat) =
  section_gc :=
    ( section,
      Json.Obj
        [
          ("elapsed_s", Json.float elapsed_s);
          ("minor_words", Json.float (a.Gc.minor_words -. b.Gc.minor_words));
          ("major_words", Json.float (a.Gc.major_words -. b.Gc.major_words));
          ( "promoted_words",
            Json.float (a.Gc.promoted_words -. b.Gc.promoted_words) );
          ( "minor_collections",
            Json.Int (a.Gc.minor_collections - b.Gc.minor_collections) );
          ( "major_collections",
            Json.Int (a.Gc.major_collections - b.Gc.major_collections) );
        ] )
    :: !section_gc

let manifest_json ~profile ~sections ~completed ~elapsed_s =
  Json.Obj
    [
      ("schema", Json.String "resched-bench-run/2");
      ("label", Json.String (active_id ()));
      ("created", Json.float (Unix.gettimeofday ()));
      ("profile", Profile.to_json profile);
      ("sections", Json.List (List.map (fun s -> Json.String s) sections));
      Bench_env.host ();
      ("completed", Json.Bool completed);
      ( "elapsed_s",
        match elapsed_s with Some s -> Json.float s | None -> Json.Null );
      ("sections_gc", Json.Obj (List.rev !section_gc));
    ]

let create ~profile ~label ~sections =
  Bench_env.mkdir_p (runs_root ());
  let id = next_id ~label in
  let dir = Filename.concat (runs_root ()) id in
  Bench_env.mkdir_p dir;
  let r = { id; dir } in
  active := Some (r, profile);
  Json.write_file (manifest_path r)
    (manifest_json ~profile ~sections ~completed:false ~elapsed_s:None);
  Printf.printf "[run] %s (profile %s)\n%!" dir profile.Profile.name;
  r

let finalize r ~profile ~sections ~elapsed_s =
  Json.write_file (manifest_path r)
    (manifest_json ~profile ~sections ~completed:true
       ~elapsed_s:(Some elapsed_s))

(* Write one section's log into the active run, with the run's profile
   and the host appended to the section's fields; a [full] run also
   writes it to the repo-root [BENCH_<section>.json]. *)
let write_section_json ~section record =
  match (!active, record) with
  | Some (r, profile), Json.Obj fields ->
    let log =
      Json.Obj
        (fields @ [ ("profile", Profile.to_json profile); Bench_env.host () ])
    in
    let write path =
      Json.write_file path log;
      Printf.printf "  [json] %s\n%!" path
    in
    write (section_path r section);
    if profile.Profile.name = Profile.full.Profile.name then
      write ("BENCH_" ^ section ^ ".json")
  | None, _ -> invalid_arg "Run_store.write_section_json: no active run"
  | Some _, _ -> invalid_arg "Run_store.write_section_json: not an object"

(* Resolve a run argument: an id under the runs root, a directory path,
   or [None] for the latest run. *)
let find = function
  | None -> (
    match List.rev (list_runs ()) with r :: _ -> Some r | [] -> None)
  | Some arg ->
    if Sys.file_exists arg && Sys.is_directory arg then
      Some (run_of_dir arg)
    else
      let dir = Filename.concat (runs_root ()) arg in
      if Sys.file_exists dir && Sys.is_directory dir then
        Some (run_of_dir dir)
      else None

let load_manifest r = Json.parse_file (manifest_path r)

(* The section logs actually present in a run directory (sans the
   manifest), for comparing two runs' coverage before comparing their
   numbers. *)
let sections_present r =
  match Sys.readdir r.dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".json" && f <> "manifest.json" then
             Some (Filename.chop_suffix f ".json")
           else None)
    |> List.sort String.compare

let load_section r section = Json.parse_file (section_path r section)
