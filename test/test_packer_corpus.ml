(* Replays the golden packer corpus (test/corpus/packer_golden.txt): the
   column-interval packer queries that seeded runs of four workload
   shapes made (the three benchmark workloads and a ZC706-sized one),
   each recorded with the path that
   decided it, the search nodes it spent and its outcome. Every query
   must take the same path, spend the same nodes and return the same
   outcome, placements included. *)

module Packer = Resched_floorplan.Packer
module Corpus = Packer_corpus

let corpus = lazy (Corpus.load "corpus/packer_golden.txt")

let kind = function
  | Packer.Placed _ -> "placed"
  | Packer.Infeasible -> "infeasible"
  | Packer.Unknown -> "unknown"

(* The corpus must exercise every way [pack] can end. *)
let test_reaches_every_exit () =
  let reached =
    List.sort_uniq compare
      (List.map
         (fun q -> (Corpus.path_name q.Corpus.path, kind q.Corpus.outcome))
         (Lazy.force corpus))
  in
  List.iter
    (fun exit ->
      Alcotest.(check bool)
        (Printf.sprintf "reaches %s/%s" (fst exit) (snd exit))
        true (List.mem exit reached))
    [
      ("capacity", "infeasible");
      ("root-tiles", "infeasible");
      ("greedy", "placed");
      ("portfolio", "placed");
      ("portfolio", "infeasible");
      ("fallback", "placed");
      ("fallback", "infeasible");
      ("fallback", "unknown");
    ]

let test_replay_identical () =
  let diffs =
    List.filter_map
      (fun (q : Corpus.query) ->
        let device = Corpus.device_of_name q.device in
        let path, nodes, outcome = Packer.pack_path device q.needs in
        let got = { q with path; nodes; outcome } in
        if Corpus.to_line got = Corpus.to_line q then None
        else Some (Corpus.to_line q, Corpus.to_line got))
      (Lazy.force corpus)
  in
  List.iteri
    (fun i (want, got) ->
      if i < 5 then Printf.printf "want %s\n got  %s\n" want got)
    diffs;
  Alcotest.(check int) "queries that differ" 0 (List.length diffs)

let () =
  Alcotest.run "packer-corpus"
    [
      ( "golden",
        [
          Alcotest.test_case "reaches every exit" `Quick
            test_reaches_every_exit;
          Alcotest.test_case "replay identical" `Quick test_replay_identical;
        ] );
    ]
