(* Records the golden baseline digests: per algorithm and instance, the
   makespan and the MD5 of the serialized schedule that PA, IS-1, IS-5
   and HEFT return through their floorplan shrink-retry loop.

     dune exec test/corpus/gen_baseline_digests.exe > test/corpus/baseline_digests.txt

   The inputs are in schedule_corpus.ml. A change that keeps every
   schedule byte-identical must leave the file unchanged. *)

let () =
  print_endline
    "# Golden baseline digests: see schedule_corpus.ml for the inputs and \
     the format.";
  List.iter
    (fun e -> print_endline (Schedule_corpus.to_line e))
    (Schedule_corpus.baselines ())
