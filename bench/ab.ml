(* A/B comparison and release guards over recorded run directories.

   [compare_runs] reads the section logs of two runs and reports, per
   section, the per-group deltas (iterations, makespans), any makespan
   regression of B against A, and any verdict divergence (a
   must-be-true gate that A passed and B failed). The comparison never
   re-executes anything — two committed or CI-archived run directories
   are enough to reproduce it.

   [check] is the single-run release gate: it applies the gates each
   logged section declares (see skeleton.ml) to the run's logs, under
   the bounds of the profile the run recorded. [ab] compares only runs
   recorded under the same profile. *)

module Json = Resched_util.Json

let get path j = Json.path path j

let get_bool path j = Option.bind (get path j) Json.get_bool
let get_int path j = Option.bind (get path j) Json.get_int
let get_float path j = Option.bind (get path j) Json.get_float
let get_string path j = Option.bind (get path j) Json.get_string

(* ------------------------------------------------------------------ *)
(* Gate plumbing: each gate pushes a line; [finish] prints them and     *)
(* computes the exit code.                                              *)

type verdicts = {
  mutable failures : string list;
  mutable notes : string list;
}

let new_verdicts () = { failures = []; notes = [] }

let fail v fmt =
  Printf.ksprintf (fun s -> v.failures <- s :: v.failures) fmt

let note v fmt = Printf.ksprintf (fun s -> v.notes <- s :: v.notes) fmt

let finish ~label v =
  List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev v.notes);
  match v.failures with
  | [] ->
    Printf.printf "%s: OK\n" label;
    0
  | fs ->
    List.iter (fun f -> Printf.printf "  FAIL %s\n" f) (List.rev fs);
    Printf.printf "%s: %d guard(s) failed\n" label (List.length fs);
    1

(* ------------------------------------------------------------------ *)
(* Single-run gates (the [check] subcommand)                           *)

(* A member of a run's manifest, if the manifest and the member exist. *)
let manifest_member (r : Run_store.run) key =
  Option.bind (Result.to_option (Run_store.load_manifest r)) (Json.member key)

(* Audit [run] (default: the latest) under the bounds of the profile its
   manifest names. The recorded profile must still equal that profile's
   definition, and every section the manifest lists that [check] can
   audit must have left its log in the run directory. *)
let check ?run () =
  match Run_store.find run with
  | None ->
    Printf.printf "check: run %s not found\n"
      (Option.value ~default:"(latest)" run);
    2
  | Some r ->
    Printf.printf "check: auditing %s\n" r.Run_store.dir;
    let v = new_verdicts () in
    let recorded = manifest_member r "profile" in
    let name = Option.bind recorded (get_string [ "name" ]) in
    (match Option.bind name Profile.of_name with
    | None -> fail v "the run's manifest names no known profile"
    | Some p ->
      note v "profile %s" p.Profile.name;
      if recorded <> Some (Profile.to_json p) then
        fail v
          "the run recorded profile %s with values other than its definition \
           in bench/profile.ml"
          p.Profile.name;
      let listed =
        Option.bind (manifest_member r "sections") Json.to_list
        |> Option.value ~default:[]
        |> List.filter_map Json.get_string
      in
      List.iter
        (fun (s : Skeleton.section) ->
          if List.mem s.name listed then
            match Run_store.load_section r s.name with
            | Ok log ->
              List.iter
                (fun g ->
                  match Skeleton.apply log g with
                  | true, line -> note v "%s.%s" s.name line
                  | false, line -> fail v "%s.%s" s.name line)
                (s.gates p)
            | Error e -> fail v "%s: no log (%s)" s.name e)
        Sections.logged);
    finish ~label:"check" v

(* ------------------------------------------------------------------ *)
(* Two-run comparison (the [ab] subcommand)                            *)

(* Index a parallel log's widest measurement by tasks. *)
let widest_rows j =
  match Option.bind (Json.member "measurements" j) Json.to_list with
  | None -> []
  | Some ms ->
    let widest =
      List.fold_left
        (fun best m ->
          match (best, get_int [ "jobs_effective" ] m) with
          | None, Some _ -> Some m
          | Some b, Some e
            when e > Option.value ~default:0 (get_int [ "jobs_effective" ] b)
            -> Some m
          | _ -> best)
        None ms
    in
    (match Option.bind widest (fun m -> Option.bind (Json.member "rows" m) Json.to_list) with
    | None -> []
    | Some rows ->
      List.filter_map
        (fun r ->
          match
            ( get_int [ "tasks" ] r,
              get_int [ "iterations" ] r,
              get_int [ "makespan" ] r )
          with
          | Some t, Some it, Some ms -> Some (t, (it, ms))
          | _ -> None)
        rows)

(* The must-be-true gates of every logged section under profile [p]; a
   true->false transition of one between A and B is a divergence. *)
let verdicts (p : Profile.t) =
  List.concat_map
    (fun (s : Skeleton.section) ->
      List.filter_map
        (function Skeleton.True key -> Some (s.name, key) | _ -> None)
        (s.gates p))
    Sections.logged

let compare_runs (p : Profile.t) (a : Run_store.run) (b : Run_store.run) =
  let load r section = Run_store.load_section r section in
  let v = new_verdicts () in
  (* Coverage audit first: a comparison that silently matches zero
     sections reads as "no regressions" when it actually compared
     nothing. Partial overlap is explicitly noted; empty overlap is a
     failure. *)
  let sa = Run_store.sections_present a
  and sb = Run_store.sections_present b in
  let only_a = List.filter (fun s -> not (List.mem s sb)) sa
  and only_b = List.filter (fun s -> not (List.mem s sa)) sb in
  let shared = List.filter (fun s -> List.mem s sb) sa in
  if only_a <> [] then
    note v "WARNING: section(s) only in %s: %s" a.Run_store.id
      (String.concat ", " only_a);
  if only_b <> [] then
    note v "WARNING: section(s) only in %s: %s" b.Run_store.id
      (String.concat ", " only_b);
  if shared = [] && (sa <> [] || sb <> []) then
    fail v
      "runs share no section logs (%s: %s | %s: %s) — nothing was compared"
      a.Run_store.id
      (if sa = [] then "none" else String.concat ", " sa)
      b.Run_store.id
      (if sb = [] then "none" else String.concat ", " sb);
  let group_deltas = ref [] in
  (match (load a "parallel", load b "parallel") with
  | Ok ja, Ok jb ->
    let ra = widest_rows ja and rb = widest_rows jb in
    List.iter
      (fun (tasks, (it_b, ms_b)) ->
        match List.assoc_opt tasks ra with
        | None -> ()
        | Some (it_a, ms_a) ->
          group_deltas :=
            Json.Obj
              [
                ("tasks", Json.Int tasks);
                ("iterations_a", Json.Int it_a);
                ("iterations_b", Json.Int it_b);
                ( "iteration_ratio",
                  Json.float
                    (float_of_int it_b /. float_of_int (Stdlib.max 1 it_a)) );
                ("makespan_a", Json.Int ms_a);
                ("makespan_b", Json.Int ms_b);
                ("makespan_delta", Json.Int (ms_b - ms_a));
              ]
            :: !group_deltas;
          note v
            "parallel %3d tasks: iters %d -> %d (x%.2f), makespan %d -> %d \
             (%+d)"
            tasks it_a it_b
            (float_of_int it_b /. float_of_int (Stdlib.max 1 it_a))
            ms_a ms_b (ms_b - ms_a);
          if ms_b > ms_a then
            fail v
              "parallel: %d-task group makespan regressed %d -> %d (B worse \
               than A)"
              tasks ms_a ms_b)
      rb
  | Error e, _ -> note v "parallel: skipped for %s (%s)" a.Run_store.id e
  | _, Error e -> note v "parallel: skipped for %s (%s)" b.Run_store.id e);
  let divergences = ref [] in
  List.iter
    (fun (section, key) ->
      let path = Skeleton.path_of key in
      match (load a section, load b section) with
      | Ok ja, Ok jb -> (
        match (get_bool path ja, get_bool path jb) with
        | Some true, Some false ->
          let name = section ^ "." ^ key in
          divergences := name :: !divergences;
          fail v "verdict divergence: %s was true in %s, false in %s" name
            a.Run_store.id b.Run_store.id
        | _ -> ())
      | _ -> ())
    (verdicts p);
  (* S1: per-section GC counters from the two manifests — allocation
     drift on the orchestrating domain, informational (never a
     failure: absolute rates shift with groups/iteration knobs). *)
  let gc_deltas = ref [] in
  (match (Run_store.load_manifest a, Run_store.load_manifest b) with
  | Ok ma, Ok mb -> (
    match
      ( Option.bind (Json.member "sections_gc" ma) (function
          | Json.Obj kvs -> Some kvs
          | _ -> None),
        Option.bind (Json.member "sections_gc" mb) (function
          | Json.Obj kvs -> Some kvs
          | _ -> None) )
    with
    | Some ga, Some gb ->
      List.iter
        (fun (section, jb') ->
          match List.assoc_opt section ga with
          | None -> ()
          | Some ja' -> (
            match
              ( get_float [ "minor_words" ] ja',
                get_float [ "minor_words" ] jb' )
            with
            | Some wa, Some wb ->
              let majors label j =
                Option.value ~default:0 (get_int [ label ] j)
              in
              gc_deltas :=
                Json.Obj
                  [
                    ("section", Json.String section);
                    ("minor_words_a", Json.float wa);
                    ("minor_words_b", Json.float wb);
                    ( "minor_words_ratio",
                      Json.float (wb /. Float.max wa 1.) );
                    ( "major_collections_a",
                      Json.Int (majors "major_collections" ja') );
                    ( "major_collections_b",
                      Json.Int (majors "major_collections" jb') );
                  ]
                :: !gc_deltas;
              note v
                "gc %-10s minor words %.2e -> %.2e (x%.2f), major \
                 collections %d -> %d"
                section wa wb
                (wb /. Float.max wa 1.)
                (majors "major_collections" ja')
                (majors "major_collections" jb')
            | _ -> ()))
        gb
    | _ -> ())
  | _ -> ());
  let report =
    Json.Obj
      [
        ("schema", Json.String "resched-bench-ab/1");
        ("run_a", Json.String a.Run_store.id);
        ("run_b", Json.String b.Run_store.id);
        ( "sections_only_a",
          Json.List (List.map (fun s -> Json.String s) only_a) );
        ( "sections_only_b",
          Json.List (List.map (fun s -> Json.String s) only_b) );
        ("groups", Json.List (List.rev !group_deltas));
        ("sections_gc", Json.List (List.rev !gc_deltas));
        ( "divergences",
          Json.List (List.map (fun d -> Json.String d) (List.rev !divergences))
        );
        ("regressions", Json.Int (List.length v.failures));
        ("ok", Json.Bool (v.failures = []));
      ]
  in
  (report, v)

let ab ?run_a ?run_b ?out () =
  let resolve label arg =
    match Run_store.find arg with
    | Some r -> r
    | None ->
      failwith
        (Printf.sprintf "ab: run %s not found" (Option.value ~default:label arg))
  in
  let a, b =
    match (run_a, run_b) with
    | Some a, Some b -> (resolve "A" (Some a), resolve "B" (Some b))
    | _ -> (
      (* Default: the two most recent runs, older as A. *)
      match List.rev (Run_store.list_runs ()) with
      | b :: a :: _ -> (a, b)
      | _ -> failwith "ab: need two recorded runs (or pass two run ids)")
  in
  Printf.printf "ab: A=%s  B=%s\n" a.Run_store.dir b.Run_store.dir;
  (* Two runs under different profiles differ by design; a comparison
     of them would report the profile, not the code. *)
  let profile =
    match (manifest_member a "profile", manifest_member b "profile") with
    | Some pa, Some pb when pa = pb ->
      Option.bind (get_string [ "name" ] pa) Profile.of_name
    | _ -> None
  in
  let profile =
    match profile with
    | Some p -> p
    | None ->
      failwith
        (Printf.sprintf
           "ab: %s and %s were not recorded under the same known profile"
           a.Run_store.id b.Run_store.id)
  in
  let report, v = compare_runs profile a b in
  (match out with
  | Some path ->
    Json.write_file path report;
    Printf.printf "  [json] %s\n" path
  | None -> ());
  finish ~label:"ab" v
