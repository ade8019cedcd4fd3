(* Shared bench plumbing. Every value that steers a run lives in its
   profile (profile.ml); the one environment variable read here is
   RESCHED_OUT_DIR [bench_out], the directory that holds run
   directories, the champions file and the paper section's CSVs. *)

module Csv = Resched_util.Csv
module Json = Resched_util.Json

let out_dir =
  match Sys.getenv_opt "RESCHED_OUT_DIR" with Some d -> d | None -> "bench_out"

(* The host that recorded an artifact, as one JSON member. *)
let host () =
  let cpu =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_lines with
    | lines ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.starts_with ~prefix:"model name" line ->
            Some
              (String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        lines
      |> Option.value ~default:"unknown"
    | exception Sys_error _ -> "unknown"
  in
  ( "host",
    Json.Obj
      [
        ("cpu", Json.String cpu);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("os", Json.String Sys.os_type);
        ("ocaml", Json.String Sys.ocaml_version);
      ] )

(* mkdir -p, tolerating concurrent creation: RESCHED_OUT_DIR may be
   nested (a/b/c) and several writers may race on the same suffix. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_out_dir () = mkdir_p out_dir

let write_csv name rows =
  ensure_out_dir ();
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Csv.write oc rows);
  Printf.printf "  [csv] %s\n%!" path

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)
