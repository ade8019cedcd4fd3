(* Records the golden schedule digests: per instance, the makespan and
   the MD5 of the serialized schedule PA-R returns at fixed work.

     dune exec test/corpus/gen_schedule_digests.exe > test/corpus/schedule_digests.txt

   The inputs are in schedule_corpus.ml. A kernel change that keeps
   every schedule byte-identical must leave the file unchanged. *)

let () =
  print_endline
    "# Golden schedule digests: see schedule_corpus.ml for the inputs and \
     the format.";
  List.iter
    (fun e -> print_endline (Schedule_corpus.to_line e))
    (Schedule_corpus.run ())
