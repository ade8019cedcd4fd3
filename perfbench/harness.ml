(* The benchmark's OCaml harness. perfbench/run.py calls it to generate
   each workload's inputs from the seed, to run the library-level
   workload (lns_saturated), to check every output against an offline
   oracle, and to make the traced runs.

     harness gen-suite  --dir D --seed S --chunks K --restarts R
     harness gen-serve  --dir D --seed S --count N --rate HZ --restarts R
                        --emit-every K --warmup W
     harness gen-lns    --dir D --seed S --count N
     harness lns        --dir D --seed S --restarts R --moves M
     harness check-suite --dir D --chunks K --sample N --seed S
     harness check-serve --dir D --responses FILE
     harness trace-suite|trace-serve|trace-lns --dir D ... --trace-out FILE

   Results go to stdout as JSON, one object per line; the last line of a
   check or trace command is its summary. *)

module Json = Resched_util.Json
module Rng = Resched_util.Rng
module Pool = Resched_util.Domain_pool.Pool
module Arch = Resched_platform.Arch
module Io = Resched_platform.Io
module Instance = Resched_platform.Instance
module Suite = Resched_platform.Suite
module Fp_cache = Resched_floorplan.Fp_cache
module Pa = Resched_core.Pa
module Pa_random = Resched_core.Pa_random
module Course = Pa_random.Course
module Batch = Resched_core.Batch
module Delta = Resched_core.Delta
module Lns = Resched_core.Lns
module Schedule = Resched_core.Schedule
module Schedule_io = Resched_core.Schedule_io
module Validate = Resched_core.Validate
module Protocol = Resched_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("harness: " ^ s); exit 2) fmt
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let read_lines path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")

let emit fields = print_endline (Json.to_string ~indent:0 (Json.Obj fields))

let parse_instance text =
  match Io.of_string text with Ok i -> i | Error e -> die "instance: %s" e

let valid s = Result.is_ok (Validate.check s)

let get_int name j =
  match Option.bind (Json.member name j) Json.get_int with
  | Some v -> v
  | None -> die "missing int field %S" name

let get_string name j =
  match Option.bind (Json.member name j) Json.get_string with
  | Some v -> v
  | None -> die "missing string field %S" name

let parse_json line =
  match Json.parse line with Ok j -> j | Error e -> die "json: %s" e

(* Per-instance solver seed: a pure function of the workload seed and
   the instance's position. *)
let inst_seed ~seed k = (seed * 1000) + k + 1

(* The saturated XC7Z010 parameters of the bench's [iteration] section:
   large implementations on the half-size fabric, so improving
   candidates keep re-querying the floorplanner. *)
let sat_params = { Suite.default_params with Suite.clb_min = 1000; clb_max = 2500 }

let fresh_cache () = Fp_cache.create ~subsumption:false ()

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)

let chunk_manifest dir k = Filename.concat dir (Printf.sprintf "chunk_%02d.jsonl" k)

(* The paper's suite (XC7Z020, 10..100 tasks) with [chunks] graphs per
   group. Chunk k holds graph k of every group, so each batch invocation
   spans the whole task-count range. *)
let gen_suite ~dir ~seed ~chunks ~restarts =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "inst");
  let groups = Suite.full ~graphs_per_group:chunks ~seed () in
  let manifest ~iters k =
    List.mapi
      (fun g (tasks, insts) ->
        let rel = Printf.sprintf "inst/t%03d_%02d.inst" tasks k in
        let path = Filename.concat dir rel in
        if not (Sys.file_exists path) then Io.save path (List.nth insts k);
        Json.to_string ~indent:0
          (Json.Obj
             [
               ("path", Json.String rel);
               ("seed", Json.Int (inst_seed ~seed ((k * 10) + g)));
               ("min_iterations", Json.Int iters);
               ("budget_ms", Json.Int 0);
             ]))
      groups
    |> String.concat "\n"
  in
  for k = 0 to chunks - 1 do
    write_file (chunk_manifest dir k) (manifest ~iters:restarts k ^ "\n")
  done;
  (* Cold starts run the first chunks at one restart: 40 instances, so
     the set-up time does not hinge on a few graphs. *)
  write_file (Filename.concat dir "setup.jsonl")
    (String.concat "\n" (List.init (Stdlib.min 4 chunks) (manifest ~iters:1)) ^ "\n")

(* One seeded Poisson arrival schedule at a constant rate: [count]
   arrivals placed uniformly at random over [count / rate] seconds, which
   is a Poisson process conditioned on its count, so every run offers
   the same load over the same span. Each request carries a fresh inline
   10..30-task graph; every [emit_every]-th asks for the full schedule
   text. [warmup] more requests with their own graphs go to
   warmup.jsonl, to be served before the timed phase. *)
let gen_serve ~dir ~seed ~count ~rate ~restarts ~emit_every ~warmup =
  mkdir_p dir;
  let rng = Rng.create seed in
  let span = float_of_int count /. rate in
  let times = Array.init count (fun _ -> Rng.float rng span) in
  Array.sort compare times;
  let request prefix k =
    let tasks = 10 + (k * 13 mod 21) in
    let inst = Suite.instance ~arch:Arch.zedboard rng ~tasks in
    Json.to_string ~indent:0
      (Json.Obj
         [
           ("op", Json.String "schedule");
           ("id", Json.String (Printf.sprintf "%s%d" prefix k));
           ("instance", Json.String (Io.to_string inst));
           ("seed", Json.Int (inst_seed ~seed k));
           ("min_iterations", Json.Int restarts);
           ("budget_ms", Json.Int 0);
           ("emit_schedule", Json.Bool (k mod emit_every = 0));
         ])
    ^ "\n"
  in
  let arrivals = Buffer.create 4096 and requests = Buffer.create 65536 in
  Array.iteri
    (fun k t ->
      Printf.bprintf arrivals "%.6f %d r%d\n" t (k mod 2) k;
      Buffer.add_string requests (request "r" k))
    times;
  write_file (Filename.concat dir "arrivals.txt") (Buffer.contents arrivals);
  write_file (Filename.concat dir "requests.jsonl") (Buffer.contents requests);
  write_file (Filename.concat dir "warmup.jsonl")
    (String.concat "" (List.init warmup (request "w")))

let lns_files dir =
  let d = Filename.concat dir "lns" in
  Sys.readdir d |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat d)

(* Saturated XC7Z010 instances, 40..80 tasks in a fixed rotation so
   every run has the same size mix. *)
let gen_lns ~dir ~seed ~count =
  mkdir_p dir;
  mkdir_p (Filename.concat dir "lns");
  let rng = Rng.create seed in
  for k = 0 to count - 1 do
    let tasks = 40 + (10 * (k mod 5)) in
    let inst = Suite.instance ~params:sat_params ~arch:Arch.microzed rng ~tasks in
    Io.save (Filename.concat dir (Printf.sprintf "lns/%03d.inst" k)) inst
  done

(* ------------------------------------------------------------------ *)
(* lns_saturated: the two calls [fpga_sched optimize] makes, at fixed   *)
(* work: a PA-R seed, then [Lns.polish] over the same                  *)
(* verdict-transparent cache.                                          *)

let optimize_fixed ~seed ~restarts ~moves inst =
  let cache = fresh_cache () in
  let o =
    Pa_random.run ~cache ~seed ~min_iterations:restarts ~budget_seconds:0. inst
  in
  (* [optimize] falls back to deterministic PA when no restart found a
     floorplannable schedule. *)
  let seed_sched =
    match o.Pa_random.schedule with Some s -> s | None -> fst (Pa.run inst)
  in
  let config = { Delta.default_config with Delta.cache = Some cache } in
  (seed_sched, Lns.polish ~config ~seed ~min_moves:moves ~budget_seconds:0. seed_sched)

(* One result line per instance; its latency is the load, seed and
   polish of that instance, as [optimize] would spend it after start-up. *)
let lns ~dir ~seed ~restarts ~moves =
  List.iteri
    (fun k path ->
      let t0 = Unix.gettimeofday () in
      let inst = parse_instance (read_file path) in
      let seed_sched, p = optimize_fixed ~seed:(inst_seed ~seed k) ~restarts ~moves inst in
      let latency = Unix.gettimeofday () -. t0 in
      let final = Option.value p.Lns.schedule ~default:seed_sched in
      emit
        [
          ("id", Json.Int k);
          ("latency_s", Json.float latency);
          ("makespan", Json.Int final.Schedule.makespan);
          ("seed_makespan", Json.Int seed_sched.Schedule.makespan);
          ("valid", Json.Bool (valid seed_sched && valid final));
        ])
    (lns_files dir)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let summary extra =
  emit
    (extra
    @ [
        ("failed", Json.Int (List.length !failures));
        ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
      ])

type entry = { rel : string; seed : int; iters : int }

let manifest_entries path =
  List.map
    (fun l ->
      let j = parse_json l in
      {
        rel = get_string "path" j;
        seed = get_int "seed" j;
        iters = get_int "min_iterations" j;
      })
    (read_lines path)

(* The file name [fpga_sched batch --out-dir] gives entry [i]. *)
let sched_name i e =
  Printf.sprintf "%03d_%s.sched" i
    (Filename.remove_extension (Filename.basename e.rel))

let offline_run ~seed ~iters inst =
  (Pa_random.run ~cache:(fresh_cache ()) ~seed ~min_iterations:iters
     ~budget_seconds:0. inst)
    .Pa_random.schedule

(* The per-instance rows of chunk [k]'s [batch --stats] file; none when
   the invocation failed to write it. *)
let batch_rows dir k =
  match Json.parse_file (Filename.concat dir (Printf.sprintf "stats_%02d.json" k)) with
  | Ok stats -> Option.value (Option.bind (Json.member "instances" stats) Json.to_list) ~default:[]
  | Error _ -> []

(* Every schedule [batch] wrote must load, validate, match the makespan
   in its stats file and carry its input instance; a seeded sample must
   equal an offline [Pa_random.run] of the same recipe, byte for byte
   (batch = sequential). *)
let check_suite ~dir ~chunks ~sample ~seed =
  let checked = ref 0 and pool = ref [] in
  for k = 0 to chunks - 1 do
    let entries = manifest_entries (chunk_manifest dir k) in
    let rows = batch_rows dir k in
    if List.length rows <> List.length entries then fail "chunk %d: %d results for %d entries" k (List.length rows) (List.length entries);
    List.iteri
      (fun i e ->
        incr checked;
        let out = Filename.concat dir (Printf.sprintf "out_%02d/%s" k (sched_name i e)) in
        let expect = Option.bind (List.nth_opt rows i) (fun r -> Option.bind (Json.member "makespan" r) Json.get_int) in
        match Schedule_io.load out with
        | Error msg -> fail "%s: %s" out msg
        | Ok s ->
          if not (valid s) then fail "%s: invalid schedule" out;
          if expect <> Some s.Schedule.makespan then fail "%s: makespan differs from batch stats" out;
          if Io.to_string s.Schedule.instance <> read_file (Filename.concat dir e.rel) then
            fail "%s: not the input instance" out;
          pool := (out, e) :: !pool)
      entries
  done;
  let pool = Array.of_list (List.rev !pool) in
  let rng = Rng.create seed in
  Rng.shuffle_in_place rng pool;
  let sampled = Stdlib.min sample (Array.length pool) in
  for i = 0 to sampled - 1 do
    let out, e = pool.(i) in
    let inst = parse_instance (read_file (Filename.concat dir e.rel)) in
    match offline_run ~seed:e.seed ~iters:e.iters inst with
    | None -> fail "%s: offline run found no schedule" out
    | Some s ->
      if Schedule_io.to_string s <> read_file out then fail "%s: batch <> offline" out
  done;
  summary [ ("checked", Json.Int !checked); ("sampled", Json.Int sampled) ]

let request_lines dir = Array.of_list (read_lines (Filename.concat dir "requests.jsonl"))

(* served = offline: an [ok] response at rung 0 or 1 must equal a fresh
   [Pa_random.run] of its recipe (seed, effective restarts) under a fresh
   verdict-transparent cache; an emitted schedule must be byte-identical
   and valid. Runs on both cores. *)
let check_serve ~dir ~responses =
  let reqs = request_lines dir in
  let oks =
    read_lines responses |> List.map parse_json
    |> List.filter (fun j -> Json.member "status" j = Some (Json.String "ok"))
    |> Array.of_list
  in
  let verdicts = Array.make (Array.length oks) None in
  let pool = Pool.create ~jobs:2 () in
  Pool.run_chunked pool ~chunk:4 ~n:(Array.length oks) (fun i ->
      let r = oks.(i) in
      let id = get_string "id" r in
      let bad msg = verdicts.(i) <- Some (id ^ ": " ^ msg) in
      let line =
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | Some k when id.[0] = 'r' && k >= 0 && k < Array.length reqs -> reqs.(k)
        | _ | (exception Invalid_argument _) -> ""
      in
      match Protocol.parse_request line with
      | Ok { Protocol.op = Protocol.Schedule (Protocol.Inline text, p); _ } ->
        if get_int "degrade" r < 2 then begin
          let inst = parse_instance text in
          let seed = Option.value p.Protocol.seed ~default:1 in
          match offline_run ~seed ~iters:(get_int "effective_min_iterations" r) inst with
          | None -> if Json.member "makespan" r <> Some Json.Null then bad "offline found no schedule"
          | Some s ->
            if not (valid s) then bad "invalid schedule";
            if Json.member "makespan" r <> Some (Json.Int s.Schedule.makespan) then bad "served <> offline makespan";
            match Option.bind (Json.member "schedule" r) Json.get_string with
            | Some text ->
              if text <> Schedule_io.to_string s then bad "served <> offline schedule";
              (match Schedule_io.of_string text with
              | Ok s' when valid s' -> ()
              | _ -> bad "emitted schedule does not validate")
            | None -> if p.Protocol.emit_schedule then bad "schedule not emitted"
        end
      | _ -> bad "no such request");
  Pool.shutdown pool;
  Array.iter (Option.iter (fun m -> failures := m :: !failures)) verdicts;
  summary [ ("checked", Json.Int (Array.length oks)) ]

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)

(* Restarts one at a time through [Course.run_slice ~max_iterations:1],
   each classified by the [Fp_cache.stats] delta read around it: no
   lookup (kernel only), an L1 hit, an L2 hit, or a miss that ran the
   packer. A restart's span is named after the deepest layer it reached,
   so self time per layer counts a miss-bearing restart as packer time.
   [extra] is a restart's time beyond its instance's mean kernel-only
   restart: the estimated cost of its lookups. Only valid where one
   domain does all the work, so the L1 and GC deltas attribute exactly. *)
let kinds = [| "kernel"; "l1"; "l2"; "miss" |]
let span_names = [| "pa_random.restart"; "fp_cache.restart_l1"; "fp_cache.restart_l2"; "packer.restart_miss" |]

type restart_acc = {
  mutable n : int;
  mutable secs : float;
  mutable extra : float;
  mutable l1 : int;
  mutable l2 : int;
  mutable misses : int;
  mutable words : float;
}

let restart_accs () =
  Array.init 4 (fun _ -> { n = 0; secs = 0.; extra = 0.; l1 = 0; l2 = 0; misses = 0; words = 0. })

let run_restarts accs ~cache ~id course =
  let mine = ref [] in
  while not (Course.finished course) do
    let w0 = Gc.minor_words () in
    let s0 = Fp_cache.stats cache in
    let t0 = Spans.now () in
    let ran = Course.run_slice course ~max_iterations:1 in
    let t1 = Spans.now () in
    let d = Fp_cache.diff (Fp_cache.stats cache) s0 in
    let w1 = Gc.minor_words () in
    if ran > 0 then begin
      let l2 = d.Fp_cache.hits + d.Fp_cache.sub_hits in
      let k =
        if d.Fp_cache.misses > 0 then 3
        else if l2 > 0 then 2
        else if d.Fp_cache.l1_hits > 0 then 1
        else 0
      in
      let a = accs.(k) in
      a.n <- a.n + 1;
      a.secs <- a.secs +. (t1 -. t0);
      a.l1 <- a.l1 + d.Fp_cache.l1_hits;
      a.l2 <- a.l2 + l2;
      a.misses <- a.misses + d.Fp_cache.misses;
      a.words <- a.words +. (w1 -. w0);
      mine := (k, t1 -. t0) :: !mine;
      Spans.add ~id ~t0 ~t1 span_names.(k)
    end
  done;
  let kn, ks =
    List.fold_left (fun (n, s) (k, dt) -> if k = 0 then (n + 1, s +. dt) else (n, s)) (0, 0.) !mine
  in
  if kn > 0 then
    List.iter
      (fun (k, dt) ->
        if k > 0 then accs.(k).extra <- accs.(k).extra +. dt -. (ks /. float_of_int kn))
      !mine

let restarts_json accs =
  Json.Obj
    (Array.to_list
       (Array.mapi
          (fun i a ->
            ( kinds.(i),
              Json.Obj
                [
                  ("n", Json.Int a.n);
                  ("secs", Json.float a.secs);
                  ("extra", Json.float a.extra);
                  ("l1", Json.Int a.l1);
                  ("l2", Json.Int a.l2);
                  ("misses", Json.Int a.misses);
                  ("words", Json.float a.words);
                ] ))
          accs))

(* Named timers for single calls into a layer: count, seconds, bytes. *)
let timers : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 16

let timer name =
  match Hashtbl.find_opt timers name with
  | Some x -> x
  | None ->
    let x = (ref 0, ref 0., ref 0.) in
    Hashtbl.replace timers name x;
    x

let timed ?(id = "") ?(bytes = 0) name f =
  if not !Spans.enabled then f ()
  else
  let t0 = Spans.now () in
  let v = Spans.span ~id name f in
  let dt = Spans.now () -. t0 in
  let n, s, b = timer name in
  incr n;
  s := !s +. dt;
  b := !b +. float_of_int bytes;
  v

let add_bytes name bytes =
  if !Spans.enabled then begin
    let _, _, b = timer name in
    b := !b +. float_of_int bytes
  end

let timers_json () =
  Json.Obj
    (Hashtbl.fold
       (fun name (n, s, b) acc ->
         ( name,
           Json.Obj
             [ ("n", Json.Int !n); ("secs", Json.float !s); ("bytes", Json.float !b) ] )
         :: acc)
       timers [])

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let gc_json (w0, c0) =
  let w1, c1 = gc_counters () in
  Json.Obj [ ("minor_words", Json.float (w1 -. w0)); ("major_collections", Json.Int (c1 - c0)) ]

let load_timed ?id path =
  let text = read_file path in
  timed ?id ~bytes:(String.length text) "io.parse" (fun () -> parse_instance text)

let check_and_encode ~id s =
  if not (timed ~id "validate.check" (fun () -> valid s)) then fail "%s: invalid schedule" id;
  let text = timed ~id "schedule_io.encode" (fun () -> Schedule_io.to_string s) in
  add_bytes "schedule_io.encode" (String.length text);
  text

(* Probes of single calls, timed outside any restart: a context build,
   and [hit_probes] lookups of a schedule's region needs once they are
   in the calling domain's L1 memo. *)
let hit_probes = 200

let probe_context ~id inst =
  timed ~id "pa.context_create" (fun () ->
      ignore (Pa.Context.state (Pa.Context.create inst) ~resource_scale:1.0 : Resched_core.State.t))

let probe_hits ~id ~cache (s : Schedule.t) =
  let device = s.Schedule.instance.Instance.arch.Arch.device in
  let needs = Array.map (fun (r : Schedule.region) -> r.Schedule.res) s.Schedule.regions in
  if Array.length needs > 0 then begin
    ignore (Fp_cache.check cache device needs : Resched_floorplan.Floorplanner.report);
    let t0 = Spans.now () in
    for _ = 1 to hit_probes do
      ignore (Fp_cache.check cache device needs : Resched_floorplan.Floorplanner.report)
    done;
    let t1 = Spans.now () in
    Spans.add ~id ~t0 ~t1 "fp_cache.hit_probe";
    let n, secs, _ = timer "fp_cache.hit" in
    n := !n + hit_probes;
    secs := !secs +. (t1 -. t0)
  end

(* Run item [k] of a workload's mirror once untraced and once traced
   (inside a [trace.mirror] root span), for every [k], alternating which
   goes first. Interleaving at item grain cancels the host's slow phases
   and the warm-up order out of the comparison; the wall-time ratio of
   the two sides is the tracing overhead. GC counters are read around
   the untraced side only. *)
let interleave ~n item =
  let untraced = ref 0. and traced = ref 0. and words = ref 0. and majors = ref 0 in
  let run_untraced k =
    Spans.enabled := false;
    let w0, c0 = gc_counters () in
    let t0 = Unix.gettimeofday () in
    item ~traced:false k;
    untraced := !untraced +. (Unix.gettimeofday () -. t0);
    let w1, c1 = gc_counters () in
    words := !words +. (w1 -. w0);
    majors := !majors + (c1 - c0)
  in
  let run_traced k =
    Spans.enabled := true;
    let t0 = Unix.gettimeofday () in
    Spans.span "trace.mirror" (fun () -> item ~traced:true k);
    traced := !traced +. (Unix.gettimeofday () -. t0)
  in
  for k = 0 to n - 1 do
    if k mod 2 = 0 then begin
      run_untraced k;
      run_traced k
    end
    else begin
      run_traced k;
      run_untraced k
    end
  done;
  Spans.enabled := true;
  [
    ("untraced_s", Json.float !untraced);
    ("traced_s", Json.float !traced);
    ("gc", Json.Obj [ ("minor_words", Json.float !words); ("major_collections", Json.Int !majors) ]);
  ]

let finish_trace ~trace_out fields =
  let n = Spans.write_chrome trace_out in
  summary
    (fields
    @ [ ("trace_file", Json.String trace_out); ("spans", Json.Int n); ("timers", timers_json ()) ])

(* paper_suite: each chunk as [fpga_sched batch] runs it — load, one
   [Batch.run] over a 2-domain pool, validate and encode every result —
   with slice boundaries seen through a [cancel] hook that never fires.
   Then the restart probe: chunk 0's instances on this domain alone, one
   restart at a time. Makespans must equal the untraced run's. *)
let trace_suite ~dir ~chunks ~trace_out =
  let pool = Pool.create ~jobs:2 () in
  let polls = ref [] and poll_lock = Mutex.create () in
  let slices = ref 0 and busy = ref 0. and capacity = ref 0. in
  let expected k =
    batch_rows dir k |> List.map (fun r -> Option.bind (Json.member "makespan" r) Json.get_int)
  in
  let compare_outcomes ~what k makespans =
    if makespans <> expected k then fail "chunk %d: %s makespans differ from the untraced run" k what
  in
  let mirror ~traced k =
    let id = Printf.sprintf "chunk%02d" k in
    Spans.span ~id "batch.invocation" (fun () ->
        let entries = manifest_entries (chunk_manifest dir k) in
        let insts = List.map (fun e -> load_timed ~id (Filename.concat dir e.rel)) entries in
        let hook i () =
          let t = Spans.now () in
          Mutex.lock poll_lock;
          polls := (Spans.domain_id (), t, i) :: !polls;
          Mutex.unlock poll_lock;
          false
        in
        let requests =
          Array.of_list
            (List.mapi
               (fun i (e, inst) ->
                 Batch.request ~seed:e.seed ~min_iterations:e.iters
                   ?cancel:(if traced then Some (hook i) else None)
                   inst)
               (List.combine entries insts))
        in
        let outcomes =
          Spans.span ~id "batch.run" (fun () ->
              let parent = Spans.current () in
              polls := [];
              let t0 = Spans.now () in
              let outcomes, st = Batch.run ~cache:(fresh_cache ()) ~pool requests in
              let t1 = Spans.now () in
              if traced then begin
                slices := !slices + st.Batch.total_slices;
                capacity := !capacity +. (2. *. (t1 -. t0));
                (* A slice runs from its poll to the same domain's
                   next poll. A domain's last slice has no next poll:
                   it is taken to last as long as the median of its
                   course's other slices (capped by the run's end), and
                   the rest of the run counts as that domain idle. *)
                let by_domain = Hashtbl.create 2 and durs = Hashtbl.create 16 in
                List.iter
                  (fun (d, t, i) ->
                    Hashtbl.replace by_domain d
                      ((t, i) :: Option.value (Hashtbl.find_opt by_domain d) ~default:[]))
                  !polls;
                let slice d ta tb i =
                  busy := !busy +. (tb -. ta);
                  Spans.add ~id:(Printf.sprintf "%s/%d" id i) ~parent ~tid:d ~t0:ta ~t1:tb "pa_random.slice"
                in
                let lasts =
                  Hashtbl.fold
                    (fun d ps acc ->
                      let rec go = function
                        | (ta, i) :: (((tb, _) :: _) as rest) ->
                          Hashtbl.replace durs i ((tb -. ta) :: Option.value (Hashtbl.find_opt durs i) ~default:[]);
                          slice d ta tb i;
                          go rest
                        | [ (ta, i) ] -> (d, ta, i) :: acc
                        | [] -> acc
                      in
                      go (List.sort compare ps))
                    by_domain []
                in
                List.iter
                  (fun (d, ta, i) ->
                    let est =
                      match List.sort compare (Option.value (Hashtbl.find_opt durs i) ~default:[]) with
                      | [] -> t1 -. ta
                      | ds -> List.nth ds (List.length ds / 2)
                    in
                    slice d ta (Float.min t1 (ta +. est)) i)
                  lasts
              end;
              outcomes)
        in
        let out_dir = Filename.concat dir "trace_out" in
        mkdir_p out_dir;
        let makespans =
          Array.to_list
            (Array.mapi
               (fun i (o : Pa_random.outcome) ->
                 match o.Pa_random.schedule with
                 | None -> None
                 | Some s ->
                   let text = check_and_encode ~id s in
                   timed ~id "io.write" (fun () ->
                       write_file (Filename.concat out_dir (sched_name i (List.nth entries i))) text);
                   Some s.Schedule.makespan)
               outcomes)
        in
        compare_outcomes ~what:"batch" k makespans)
  in
  let timing = interleave ~n:chunks mirror in
  Pool.shutdown pool;
  let accs = restart_accs () in
  (* The mirror ran on two domains; GC counters come from the probe. *)
  let gc0 = gc_counters () in
  Spans.span "trace.probe" (fun () ->
      let entries = manifest_entries (chunk_manifest dir 0) in
      let cache = fresh_cache () in
      let makespans =
        List.mapi
          (fun i e ->
            let id = Printf.sprintf "chunk00/%d" i in
            Spans.span ~id "instance" (fun () ->
                let inst = parse_instance (read_file (Filename.concat dir e.rel)) in
                probe_context ~id inst;
                let c = Course.create ~cache ~seed:e.seed ~min_iterations:e.iters ~budget_seconds:0. inst in
                run_restarts accs ~cache ~id c;
                let best = (Course.outcome c).Pa_random.schedule in
                Option.iter (probe_hits ~id ~cache) best;
                Option.map (fun s -> s.Schedule.makespan) best))
          entries
      in
      compare_outcomes ~what:"probe" 0 makespans);
  finish_trace ~trace_out
    (List.remove_assoc "gc" timing
    @ [
      ("results", Json.Int (10 * chunks));
      ("probe_results", Json.Int 10);
      ("restarts", restarts_json accs);
      ("gc", gc_json gc0);
      ("batch", Json.Obj [ ("slices", Json.Int !slices); ("busy_s", Json.float !busy); ("capacity_s", Json.float !capacity) ]);
    ])

(* serve_fresh: every request's recipe replayed offline through the
   layers a request crosses — Protocol.parse_request, Io.of_string, a
   course of single restarts under a fresh cache, Validate.check,
   Schedule_io.to_string (when emitted) and Protocol.response_to_line —
   and compared with the daemon's response (the identity oracle). *)
let trace_serve ~dir ~responses ~trace_out =
  let reqs = request_lines dir in
  let resp = Hashtbl.create 512 in
  List.iter
    (fun l ->
      let j = parse_json l in
      match Json.member "id" j with Some (Json.String id) -> Hashtbl.replace resp id j | _ -> ())
    (read_lines responses);
  let accs = restart_accs () and solve = ref [] and probes = ref [] in
  let mirror ~traced k =
    let line = reqs.(k) in
    let id = Printf.sprintf "r%d" k in
    Spans.span ~id "request" (fun () ->
        let req =
          timed ~id ~bytes:(String.length line) "protocol.parse" (fun () -> Protocol.parse_request line)
        in
        match req with
        | Ok { Protocol.op = Protocol.Schedule (Protocol.Inline text, p); _ } ->
          let inst = timed ~id ~bytes:(String.length text) "io.parse" (fun () -> parse_instance text) in
          let seed = Option.value p.Protocol.seed ~default:1 in
          let iters = Option.value p.Protocol.min_iterations ~default:1 in
          let t0 = Spans.now () in
          let sched =
            if traced then begin
              let cache = fresh_cache () in
              let c = Course.create ~cache ~seed ~min_iterations:iters ~budget_seconds:0. inst in
              run_restarts accs ~cache ~id c;
              (Course.outcome c).Pa_random.schedule
            end
            else offline_run ~seed ~iters inst
          in
          let text =
            match sched with
            | Some s when p.Protocol.emit_schedule -> Some (check_and_encode ~id s)
            | Some s ->
              ignore (timed ~id "validate.check" (fun () -> valid s) : bool);
              None
            | None -> None
          in
          let solve_s = Spans.now () -. t0 in
          if traced then probes := (id, inst, sched) :: !probes;
          let makespan = Option.map (fun s -> s.Schedule.makespan) sched in
          let line_out =
            timed ~id "protocol.encode" (fun () ->
                Protocol.response_to_line
                  (Protocol.Completed
                     {
                       Protocol.c_id = id;
                       c_tenant = p.Protocol.tenant;
                       c_makespan = makespan;
                       c_iterations = iters;
                       c_degrade = 0;
                       c_effective_min_iterations = iters;
                       c_attempts = 1;
                       c_latency_s = solve_s;
                       c_deadline_hit = false;
                       c_schedule = text;
                     }))
          in
          if traced then begin
            match Hashtbl.find_opt resp id with
            | Some r when Json.member "status" r = Some (Json.String "ok") ->
              let served_ms = Option.value (Option.bind (Json.member "latency_ms" r) Json.get_float) ~default:nan in
              solve := (served_ms, 1000. *. solve_s, String.length line_out) :: !solve;
              if Json.member "makespan" r <> Some (match makespan with Some m -> Json.Int m | None -> Json.Null)
              then fail "%s: served <> replayed makespan" id;
              (match (text, Option.bind (Json.member "schedule" r) Json.get_string) with
              | Some a, Some b when a <> b -> fail "%s: served <> replayed schedule" id
              | _ -> ())
            | _ -> fail "%s: no ok response to compare" id
          end
        | _ -> fail "%s: request does not parse" id)
  in
  let timing = interleave ~n:(Array.length reqs) mirror in
  Spans.span "trace.probe" (fun () ->
      List.iter
        (fun (id, inst, sched) ->
          probe_context ~id inst;
          Option.iter (probe_hits ~id ~cache:(fresh_cache ())) sched)
        (List.rev !probes));
  finish_trace ~trace_out
    (timing
    @ [
      ("results", Json.Int (Array.length reqs));
      ("probe_results", Json.Int (Array.length reqs));
      ("restarts", restarts_json accs);
      ( "requests",
        Json.List
          (List.rev_map
             (fun (served, solve, out) ->
               Json.Obj [ ("served_ms", Json.float served); ("solve_ms", Json.float solve); ("bytes_out", Json.Int out) ])
             !solve) );
    ])

(* lns_saturated: per instance, the PA-R seed one restart at a time,
   [Lns.polish] as one span (cache and GC deltas around it), validate
   and encode. Then the move probe: from each seed state, [probe_moves]
   draws of [Lns.propose], each [Delta.apply]d and rolled back. *)
let move_kind = function
  | Delta.Reassign _ -> "reassign"
  | Delta.Swap _ -> "swap"
  | Delta.To_sw _ -> "to_sw"
  | Delta.To_hw _ -> "to_hw"
  | Delta.Merge _ -> "merge"
  | Delta.Split _ -> "split"

let trace_lns ~dir ~seed ~restarts ~moves ~probe_moves ~trace_out =
  let files = Array.of_list (lns_files dir) in
  let expected = List.map parse_json (read_lines (Filename.concat dir "lns_results.jsonl")) in
  let accs = restart_accs () in
  let counts = Hashtbl.create 16 in
  let bump name v =
    Hashtbl.replace counts name (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.)
  in
  let seeds = ref [] in
  let mirror ~traced k =
    let path = files.(k) in
    let id = Printf.sprintf "i%d" k in
    let s = inst_seed ~seed k in
    Spans.span ~id "instance" (fun () ->
        let inst = load_timed ~id path in
        if not traced then
          ignore (optimize_fixed ~seed:s ~restarts ~moves inst : Schedule.t * Lns.outcome)
        else begin
          let cache = fresh_cache () in
          let c = Course.create ~cache ~seed:s ~min_iterations:restarts ~budget_seconds:0. inst in
          run_restarts accs ~cache ~id c;
          let seed_sched =
            match (Course.outcome c).Pa_random.schedule with
            | Some s -> s
            | None -> Spans.span ~id "pa.run" (fun () -> fst (Pa.run inst))
          in
          let config = { Delta.default_config with Delta.cache = Some cache } in
          let s0 = Fp_cache.stats cache in
          let p =
            Spans.span ~id "lns.polish" (fun () ->
                Lns.polish ~config ~seed:s ~min_moves:moves ~budget_seconds:0. seed_sched)
          in
          let d = Fp_cache.diff (Fp_cache.stats cache) s0 in
          let st = p.Lns.stats in
          List.iter
            (fun (name, v) -> bump ("lns." ^ name) v)
            [
              ("proposed", float_of_int st.Lns.proposed);
              ("applied", float_of_int st.Lns.applied);
              ("accepted", float_of_int st.Lns.accepted);
              ("improvements", float_of_int st.Lns.improvements);
              ("elapsed_s", st.Lns.elapsed);
              ("misses", float_of_int d.Fp_cache.misses);
              ("lookups", float_of_int (Fp_cache.lookups d));
            ];
          let final = Option.value p.Lns.schedule ~default:seed_sched in
          ignore (check_and_encode ~id final : string);
          seeds := (inst, seed_sched, cache) :: !seeds;
          match List.nth_opt expected k with
          | Some r
            when Json.member "makespan" r = Some (Json.Int final.Schedule.makespan)
                 && Json.member "seed_makespan" r = Some (Json.Int seed_sched.Schedule.makespan) -> ()
          | _ -> fail "%s: traced outcome differs from the untraced run" id
        end)
  in
  let timing = interleave ~n:(Array.length files) mirror in
  (* The move probe, from each seed state over the cache its polish left:
     per-kind apply cost (applies that ran the packer are counted apart),
     rollback cost, and how often a move is legal, changes the demand
     multiset, and stays feasible. *)
  Spans.span "trace.probe" (fun () ->
      List.iteri
        (fun k (inst, seed_sched, cache) ->
          let id = Printf.sprintf "i%d" k in
          probe_context ~id inst;
          let d = Delta.of_schedule ~config:{ Delta.default_config with Delta.cache = Some cache } seed_sched in
          probe_hits ~id ~cache seed_sched;
          let rng = Rng.create (inst_seed ~seed k) in
          for _ = 1 to probe_moves do
            bump "moves.drawn" 1.;
            let mv = Lns.propose d rng in
            let s0 = Fp_cache.stats cache in
            let t0 = Spans.now () in
            let v = Delta.apply d mv in
            let t1 = Spans.now () in
            match v with
            | None -> ()
            | Some v ->
              let miss = (Fp_cache.diff (Fp_cache.stats cache) s0).Fp_cache.misses in
              bump "moves.legal" 1.;
              if v.Delta.needs_changed then bump "moves.requery" 1.;
              if v.Delta.needs_changed && v.Delta.fp_feasible then bump "moves.requery_feasible" 1.;
              let name = if miss > 0 then "packer.requery" else "delta.apply." ^ move_kind mv in
              bump (name ^ ".n") 1.;
              bump (name ^ ".secs") (t1 -. t0);
                  Spans.add ~id ~t0 ~t1 name;
              let t2 = Spans.now () in
              Delta.rollback d;
              let t3 = Spans.now () in
              bump "delta.rollback.n" 1.;
              bump "delta.rollback.secs" (t3 -. t2);
              Spans.add ~id ~t0:t2 ~t1:t3 "delta.rollback"
          done)
        (List.rev !seeds));
  finish_trace ~trace_out
    (timing
    @ [
        ("results", Json.Int (Array.length files));
        ("probe_results", Json.Int (Array.length files));
        ("restarts", restarts_json accs);
        ("counts", Json.Obj (Hashtbl.fold (fun k v acc -> (k, Json.float v) :: acc) counts []));
      ])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, rest = match argv with _ :: c :: r -> (c, r) | _ -> die "usage: harness COMMAND --key value ..." in
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
      parse r
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  parse rest;
  let str k = match Hashtbl.find_opt opts k with Some v -> v | None -> die "missing --%s" k in
  let int k = match int_of_string_opt (str k) with Some v -> v | None -> die "--%s: not an integer" k in
  let flt k = match float_of_string_opt (str k) with Some v -> v | None -> die "--%s: not a number" k in
  let dir () = str "dir" in
  match cmd with
  | "gen-suite" -> gen_suite ~dir:(dir ()) ~seed:(int "seed") ~chunks:(int "chunks") ~restarts:(int "restarts")
  | "gen-serve" ->
    gen_serve ~dir:(dir ()) ~seed:(int "seed") ~count:(int "count") ~rate:(flt "rate")
      ~restarts:(int "restarts") ~emit_every:(int "emit-every") ~warmup:(int "warmup")
  | "gen-lns" -> gen_lns ~dir:(dir ()) ~seed:(int "seed") ~count:(int "count")
  | "lns" -> lns ~dir:(dir ()) ~seed:(int "seed") ~restarts:(int "restarts") ~moves:(int "moves")
  | "check-suite" -> check_suite ~dir:(dir ()) ~chunks:(int "chunks") ~sample:(int "sample") ~seed:(int "seed")
  | "check-serve" -> check_serve ~dir:(dir ()) ~responses:(str "responses")
  | "trace-suite" -> trace_suite ~dir:(dir ()) ~chunks:(int "chunks") ~trace_out:(str "trace-out")
  | "trace-serve" -> trace_serve ~dir:(dir ()) ~responses:(str "responses") ~trace_out:(str "trace-out")
  | "trace-lns" ->
    trace_lns ~dir:(dir ()) ~seed:(int "seed") ~restarts:(int "restarts") ~moves:(int "moves")
      ~probe_moves:(int "probe-moves") ~trace_out:(str "trace-out")
  | c -> die "unknown command %S" c
