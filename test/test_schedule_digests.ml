(* Replays the golden schedule digests (test/corpus/schedule_digests.txt):
   PA-R at fixed work over the seed-1 paper suite and saturated XC7Z010
   graphs, through the batch engine. Every instance must reach the same
   makespan and serialize to the same bytes (same MD5). *)

module Corpus = Schedule_corpus

let test_replay_identical () =
  let want = Corpus.load "corpus/schedule_digests.txt" in
  let got = Corpus.run () in
  Alcotest.(check int) "instances" (List.length want) (List.length got);
  List.iter2
    (fun (w : Corpus.entry) (g : Corpus.entry) ->
      Alcotest.(check string) w.Corpus.name (Corpus.to_line w)
        (Corpus.to_line g))
    want got

let () =
  Alcotest.run "schedule-digests"
    [
      ( "digests",
        [ Alcotest.test_case "replay identical" `Quick test_replay_identical ]
      );
    ]
