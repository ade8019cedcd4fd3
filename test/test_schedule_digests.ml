(* Replays the golden schedule digests (test/corpus/schedule_digests.txt):
   PA-R at fixed work over the seed-1 paper suite and saturated XC7Z010
   graphs, through the batch engine; and the baseline digests
   (test/corpus/baseline_digests.txt): PA, IS-1, IS-5 and HEFT through
   their shrink-retry loop. Every instance must reach the same makespan
   and serialize to the same bytes (same MD5). The replay digests
   (test/corpus/replay_digests.txt) pin what re-times a finished plan:
   jitter execution, fault replay with repair, and the exact ILP. *)

module Corpus = Schedule_corpus

let replay path got =
  let want = Corpus.load path in
  Alcotest.(check int) "instances" (List.length want) (List.length got);
  List.iter2
    (fun (w : Corpus.entry) (g : Corpus.entry) ->
      Alcotest.(check string) w.Corpus.name (Corpus.to_line w)
        (Corpus.to_line g))
    want got

let test_replay_identical () =
  replay "corpus/schedule_digests.txt" (Corpus.run ())

let test_baselines_identical () =
  replay "corpus/baseline_digests.txt" (Corpus.baselines ())

let test_replays_identical () =
  let want = Replay_corpus.load "corpus/replay_digests.txt" in
  let got = Replay_corpus.lines () in
  Alcotest.(check int) "cases" (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      let name = List.hd (String.split_on_char ' ' w) in
      Alcotest.(check string) name w g)
    want got

let () =
  Alcotest.run "schedule-digests"
    [
      ( "digests",
        [
          Alcotest.test_case "replay identical" `Quick test_replay_identical;
          Alcotest.test_case "baselines replay identical" `Quick
            test_baselines_identical;
          Alcotest.test_case "plan replays identical" `Quick
            test_replays_identical;
        ]
      );
    ]
