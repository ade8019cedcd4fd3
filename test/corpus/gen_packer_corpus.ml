(* Records the golden packer corpus: every column-interval [Packer.pack]
   query that seeded runs of the three benchmark workload shapes make,
   with the path that decided it, the search nodes it spent and its
   outcome, placements included.

     dune exec test/corpus/gen_packer_corpus.exe > test/corpus/packer_golden.txt

   The shapes, each at fixed work:
   - [paper]: the XC7Z020 paper suite, one graph per 10..100-task group,
     PA-R at 100 restarts over a fresh cache per graph;
   - [serve]: 40 fresh 10..30-task XC7Z020 graphs at 30 restarts over
     one shared cache, as the serve daemon runs them;
   - [lns]: 15 saturated XC7Z010 graphs of 40..80 tasks, PA-R at 40
     restarts, then [Lns.polish] over 1500 moves on the same cache;
   - [zc706]: 20 XC7Z045 graphs of 20..80 tasks at 30 restarts over one
     shared cache: the one preset of seven rows, with three occupancy
     words per row and the largest candidate tables.

   Queries are deduplicated on (device, needs); the first shape to issue
   one keeps it. The packer is deterministic, so a replay of the corpus
   must reproduce every path, node count and outcome exactly. *)

module Rng = Resched_util.Rng
module Arch = Resched_platform.Arch
module Suite = Resched_platform.Suite
module Fp_cache = Resched_floorplan.Fp_cache
module Packer = Resched_floorplan.Packer
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Delta = Resched_core.Delta
module Lns = Resched_core.Lns

let seed = 1
let inst_seed k = (seed * 1000) + k + 1

let pa_r ~cache ~restarts ~seed inst =
  Pa_random.run ~cache ~seed ~min_iterations:restarts ~budget_seconds:0. inst

let paper () =
  List.iteri
    (fun g (_, insts) ->
      List.iter
        (fun inst ->
          ignore
            (pa_r ~cache:(Fp_cache.create ()) ~restarts:100 ~seed:(inst_seed g)
               inst))
        insts)
    (Suite.full ~graphs_per_group:1 ~seed ())

let serve () =
  let rng = Rng.create seed in
  let cache = Fp_cache.create () in
  for k = 0 to 39 do
    let tasks = 10 + (k * 13 mod 21) in
    let inst = Suite.instance ~arch:Arch.zedboard rng ~tasks in
    ignore (pa_r ~cache ~restarts:30 ~seed:(inst_seed k) inst)
  done

let lns () =
  let rng = Rng.create seed in
  let params =
    { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }
  in
  for k = 0 to 14 do
    let tasks = 40 + (10 * (k mod 5)) in
    let inst = Suite.instance ~params ~arch:Arch.microzed rng ~tasks in
    let cache = Fp_cache.create () in
    let o = pa_r ~cache ~restarts:40 ~seed:(inst_seed k) inst in
    let sched =
      match o.Pa_random.schedule with Some s -> s | None -> fst (Pa.run inst)
    in
    let config = { Delta.default_config with Delta.cache = Some cache } in
    ignore
      (Lns.polish ~config ~seed:(inst_seed k) ~min_moves:1500
         ~budget_seconds:0. sched)
  done

let zc706 () =
  let rng = Rng.create seed in
  let cache = Fp_cache.create () in
  for k = 0 to 19 do
    let tasks = 20 + (k * 13 mod 61) in
    let inst = Suite.instance ~arch:Arch.zc706 rng ~tasks in
    ignore (pa_r ~cache ~restarts:30 ~seed:(inst_seed k) inst)
  done

let () =
  let seen = Hashtbl.create 4096 in
  let queries = ref [] in
  let record shape device needs path ~nodes outcome =
    let key = (Packer_corpus.device_name device, needs) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      queries :=
        {
          Packer_corpus.shape;
          device = fst key;
          path;
          nodes;
          needs = Array.copy needs;
          outcome;
        }
        :: !queries
    end
  in
  List.iter
    (fun (shape, run) -> Packer.observe (record shape) run)
    [ ("paper", paper); ("serve", serve); ("lns", lns); ("zc706", zc706) ];
  print_endline
    "# Golden packer corpus: see gen_packer_corpus.ml for the shapes and \
     packer_corpus.ml for the format.";
  List.iter
    (fun q -> print_endline (Packer_corpus.to_line q))
    (List.rev !queries)
