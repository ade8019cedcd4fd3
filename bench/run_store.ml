(* Run directories: every bench invocation gets
   [<out_dir>/runs/<run-id>/] holding a manifest plus one JSON log per
   section. The [ab] and [check] subcommands consume these logs, so a
   comparison can always be reproduced from two committed (or
   CI-archived) run directories. Sections additionally mirror their log
   to the legacy repo-root [BENCH_<section>.json] paths that older
   tooling and the README reference. *)

module Json = Resched_util.Json

type run = { id : string; dir : string }

let runs_root () = Filename.concat Bench_env.out_dir "runs"

let manifest_path r = Filename.concat r.dir "manifest.json"

let section_path r section = Filename.concat r.dir (section ^ ".json")

(* The active run, if the harness created one; sections write through
   [write_section] regardless, and only get a run-dir copy when a run is
   active (so a bare section invocation still produces the legacy
   files). *)
let active : run option ref = ref None

let set_active r = active := Some r

let active_id () = match !active with Some r -> r.id | None -> "adhoc"

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
   allocation is reported by the sections that measure it
   (iteration/batch words-per-iteration telemetry). *)
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

let manifest_json ~completed ~elapsed_s =
  let p = Bench_env.par_plan in
  Json.Obj
    [
      ("schema", Json.String "resched-bench-run/1");
      ("label", Json.String (match !active with Some r -> r.id | None -> ""));
      ("created", Json.float (Unix.gettimeofday ()));
      ("seed", Json.Int Bench_env.seed);
      ( "groups",
        Json.List (List.map (fun g -> Json.Int g) Bench_env.groups) );
      ("graphs_per_group", Json.Int Bench_env.graphs_per_group);
      ("budget_seconds", Json.float Bench_env.par_budget_cap);
      ( "jobs",
        Json.Obj
          [
            ("requested", Json.Int p.Resched_util.Domain_pool.requested);
            ("effective", Json.Int p.Resched_util.Domain_pool.effective);
            ("cores", Json.Int p.Resched_util.Domain_pool.cores);
            ( "downgraded",
              Json.Bool (Resched_util.Domain_pool.downgraded p) );
          ] );
      ("completed", Json.Bool completed);
      ( "elapsed_s",
        match elapsed_s with Some s -> Json.float s | None -> Json.Null );
      ("sections_gc", Json.Obj (List.rev !section_gc));
    ]

let create ~label =
  Bench_env.mkdir_p (runs_root ());
  let id = next_id ~label in
  let dir = Filename.concat (runs_root ()) id in
  Bench_env.mkdir_p dir;
  let r = { id; dir } in
  set_active r;
  Json.write_file (manifest_path r) (manifest_json ~completed:false ~elapsed_s:None);
  Printf.printf "[run] %s\n%!" dir;
  r

let finalize r ~elapsed_s =
  Json.write_file (manifest_path r)
    (manifest_json ~completed:true ~elapsed_s:(Some elapsed_s))

(* Write one section's JSON log: always to the legacy repo-root
   [BENCH_<section>.json], and into the active run directory when there
   is one. [contents] is the already-serialized document (sections that
   build their log with Printf keep doing so; new sections pass
   [Json.to_string]). *)
let write_section ~section contents =
  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents);
    Printf.printf "  [json] %s\n%!" path
  in
  write ("BENCH_" ^ section ^ ".json");
  match !active with
  | Some r -> write (section_path r section)
  | None -> ()

(* A section's JSON object, with the provenance members every artifact
   records appended. *)
let write_section_json ~section = function
  | Json.Obj fields ->
    write_section ~section
      (Json.to_string (Json.Obj (fields @ Bench_env.provenance ())))
  | _ -> invalid_arg "Run_store.write_section_json: not an object"

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

(* A section log for [r], falling back to the legacy repo-root file so
   [check] also works right after a bare `bench run` with no run dir
   (or on a checkout that only has the committed BENCH_*.json). *)
let load_section r section =
  let p =
    match r with
    | Some r when Sys.file_exists (section_path r section) ->
      Some (section_path r section)
    | _ ->
      let legacy = "BENCH_" ^ section ^ ".json" in
      if Sys.file_exists legacy then Some legacy else None
  in
  match p with
  | None -> Error (Printf.sprintf "no %s log found" section)
  | Some p -> Json.parse_file p
