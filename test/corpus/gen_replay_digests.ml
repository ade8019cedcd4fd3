(* Records the golden replay digests: the jitter executor and fault
   replay over PA and PA-R schedules, and the exact ILP on tiny
   instances.

     dune exec test/corpus/gen_replay_digests.exe > test/corpus/replay_digests.txt

   The inputs and the line format are in replay_corpus.ml. A change that
   keeps every re-timed plan byte-identical must leave the file
   unchanged. *)

let () =
  print_endline
    "# Golden replay digests: see replay_corpus.ml for the inputs and the \
     format.";
  List.iter print_endline (Replay_corpus.lines ())
