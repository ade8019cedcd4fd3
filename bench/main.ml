(* Bench CLI.

     main run [SECTION,...] [--profile ci|full]
                                run sections (default: all) under a
                                profile (default: full) in a fresh run
                                directory under bench_out/runs/; a full
                                run also writes the repo-root
                                BENCH_*.json
     main ab [A] [B]            compare two runs recorded under the same
                                profile (default: the latest two);
                                nonzero exit on regression or verdict
                                divergence
     main check [RUN]           audit one run's logs (default: the
                                latest) under its profile's bounds
     main champions             print the best-known PA-R results
     main list                  list recorded runs

   Invoking with no arguments runs every section under the full
   profile. *)

open Cmdliner

let sections_arg =
  let doc =
    Printf.sprintf "Comma-separated sections to run (known: %s)."
      (String.concat ", " Sections.section_names)
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"SECTIONS" ~doc)

let label_arg =
  let doc = "Label recorded in the run directory name." in
  Arg.(value & opt string "" & info [ "label" ] ~docv:"LABEL" ~doc)

let profile_arg =
  let doc =
    "Profile to run under: $(b,ci) (smoke scale, with CI's check bounds) or \
     $(b,full) (the scale of the committed artifacts; only a full run \
     writes the repo-root BENCH_*.json). See bench/profile.ml."
  in
  let profiles = List.map (fun p -> (p.Profile.name, p)) Profile.all in
  Arg.(
    value
    & opt (enum profiles) Profile.full
    & info [ "profile" ] ~docv:"PROFILE" ~doc)

let run_bench sections label profile =
  let names =
    match sections with
    | None -> Sections.default_sections
    | Some s ->
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> x <> "")
  in
  List.iter
    (fun n ->
      if not (List.mem n Sections.section_names) then begin
        Printf.eprintf "unknown section %s (known: %s)\n" n
          (String.concat ", " Sections.section_names);
        exit 2
      end)
    names;
  let run = Run_store.create ~profile ~label ~sections:names in
  let t0 = Unix.gettimeofday () in
  Sections.run_sections profile names;
  let elapsed = Unix.gettimeofday () -. t0 in
  Run_store.finalize run ~profile ~sections:names ~elapsed_s:elapsed;
  Printf.printf "\n[run] completed %s (%.1fs)\n" run.Run_store.dir elapsed;
  0

let run_cmd =
  let info = Cmd.info "run" ~doc:"Run bench sections into a run directory." in
  Cmd.v info Term.(const run_bench $ sections_arg $ label_arg $ profile_arg)

let run_a_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"RUN_A"
         ~doc:"Baseline run (id or directory).")

let run_b_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"RUN_B"
         ~doc:"Candidate run (id or directory).")

let ab_out_arg =
  let doc = "Write the A/B report JSON to this path." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)

let ab_cmd =
  let doc = "Compare two recorded runs; fail on regression/divergence." in
  let f a b out =
    try Ab.ab ?run_a:a ?run_b:b ?out ()
    with Failure m ->
      Printf.eprintf "%s\n" m;
      2
  in
  Cmd.v (Cmd.info "ab" ~doc)
    Term.(const f $ run_a_arg $ run_b_arg $ ab_out_arg)

let check_run_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"RUN"
         ~doc:"Run to audit (id or directory; default: the latest).")

let check_cmd =
  let doc =
    "Audit a run's logs under the bounds of the profile it recorded (the CI \
     release gate)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const (fun run -> Ab.check ?run ()) $ check_run_arg)

let champions_cmd =
  let doc = "Print the best-known PA-R results per task group." in
  Cmd.v (Cmd.info "champions" ~doc)
    Term.(
      const (fun () ->
          Champions.print ();
          0)
      $ const ())

let list_cmd =
  let doc = "List recorded run directories." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          (match Run_store.list_runs () with
          | [] -> print_endline "no recorded runs"
          | rs ->
            List.iter (fun r -> print_endline r.Run_store.dir) rs);
          0)
      $ const ())

let default =
  (* No subcommand: run everything under the full profile. *)
  Term.(const (fun () -> run_bench None "" Profile.full) $ const ())

let () =
  let info = Cmd.info "bench" ~doc:"resched benchmark harness" in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ run_cmd; ab_cmd; check_cmd; champions_cmd; list_cmd ]))
