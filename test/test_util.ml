(* Tests for the util substrate: RNG determinism and distribution sanity,
   statistics, table rendering and CSV escaping, the persistent domain
   pool and the JSON codec. *)

module Rng = Resched_util.Rng
module Stats = Resched_util.Stats
module Table = Resched_util.Table
module Csv = Resched_util.Csv
module Domain_pool = Resched_util.Domain_pool
module Json = Resched_util.Json

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different first draw" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    if v < 0. || v >= 3.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "independent" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let l = List.init 50 (fun i -> i) in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let check_float = Alcotest.(check (float 1e-9))

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check_float "empty" 0. (Stats.mean [||])

let test_stats_stddev () =
  (* Population stddev of 2,4,4,4,5,5,7,9 is 2. *)
  check_float "known" 2. (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]);
  check_float "singleton" 0. (Stats.stddev [| 3. |])

let test_stats_minmax () =
  check_float "max" 7. (Stats.max [| 3.; -2.; 7. |]);
  Alcotest.check_raises "max of nothing" (Invalid_argument "Stats.max: empty")
    (fun () -> ignore (Stats.max [||]))

let test_stats_median_percentile () =
  check_float "odd median" 3. (Stats.percentile [| 5.; 1.; 3. |] 50.);
  check_float "even median" 2.5 (Stats.percentile [| 4.; 1.; 2.; 3. |] 50.);
  check_float "p0" 1. (Stats.percentile [| 4.; 1.; 2.; 3. |] 0.);
  check_float "p100" 4. (Stats.percentile [| 4.; 1.; 2.; 3. |] 100.)

let test_stats_improvement () =
  check_float "20% better" 20. (Stats.improvement_pct ~baseline:100. ~value:80.);
  check_float "worse is negative" (-50.)
    (Stats.improvement_pct ~baseline:100. ~value:150.);
  check_float "zero baseline" 0. (Stats.improvement_pct ~baseline:0. ~value:3.)

let test_table_renders () =
  let t = Table.create [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has rules and cells" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '+') lines
    && List.exists (fun l -> String.length l > 0 && l.[0] = '|') lines)

let test_table_row_length_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_row: row length mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "float" "1.500" (Table.cell_f 1.5);
  Alcotest.(check string) "pct" "+14.8%" (Table.cell_pct 14.8);
  Alcotest.(check string) "neg pct" "-3.0%" (Table.cell_pct (-3.0))

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d"
    (Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_domain_pool_ordered_results () =
  let r = Domain_pool.run ~jobs:4 (fun i -> i * i) in
  Alcotest.(check (array int)) "index order" [| 0; 1; 4; 9 |] r;
  Alcotest.(check (array int)) "jobs=1 runs inline" [| 42 |]
    (Domain_pool.run ~jobs:1 (fun _ -> 42))

let test_domain_pool_propagates_failure () =
  (* Every domain is joined even when one job raises; the first failure
     (by index) is re-raised. *)
  Alcotest.check_raises "failure propagates" (Failure "job 2") (fun () ->
      ignore
        (Domain_pool.run ~jobs:3 (fun i ->
             if i = 2 then failwith "job 2" else i)));
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Domain_pool.run: jobs must be >= 1") (fun () ->
      ignore (Domain_pool.run ~jobs:0 (fun i -> i)))

let test_domain_pool_shared_atomic () =
  let counter = Atomic.make 0 in
  ignore
    (Domain_pool.run ~jobs:4 (fun _ ->
         for _ = 1 to 1000 do
           Atomic.incr counter
         done));
  Alcotest.(check int) "all increments land" 4000 (Atomic.get counter)

let test_plan_jobs () =
  let cores = Domain_pool.available_cores () in
  let p = Domain_pool.plan_jobs ~requested:(cores + 8) () in
  Alcotest.(check int) "clamped to the core count" cores
    p.Domain_pool.effective;
  Alcotest.(check int) "request recorded" (cores + 8) p.Domain_pool.requested;
  Alcotest.(check bool) "clamping is a downgrade" true
    (Domain_pool.downgraded p);
  Alcotest.(check bool) "jobs=1 never downgrades" false
    (Domain_pool.downgraded (Domain_pool.plan_jobs ~requested:1 ()))

let test_warn_downgrade () =
  let capture p =
    let path = Filename.temp_file "resched_warn" ".log" in
    let oc = open_out path in
    Domain_pool.warn_downgrade ~out:oc ~label:"unit-test" p;
    close_out oc;
    let ic = open_in path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Sys.remove path;
    s
  in
  let msg = capture { Domain_pool.requested = 8; effective = 1; cores = 1 } in
  Alcotest.(check bool) "warning names the label" true
    (contains ~sub:"unit-test" msg);
  Alcotest.(check bool) "warning states the requested width" true
    (contains ~sub:"jobs=8" msg);
  Alcotest.(check string) "silent when nothing was downgraded" ""
    (capture { Domain_pool.requested = 2; effective = 2; cores = 4 })

let test_pool_map_reuses_domains () =
  let p = Domain_pool.Pool.create ~jobs:3 () in
  Alcotest.(check (array int)) "ordered results" [| 0; 2; 4 |]
    (Domain_pool.Pool.map p (fun i -> 2 * i));
  (* Workers are resident: domain-local state survives from one batch
     to the next. *)
  let key = Domain.DLS.new_key (fun () -> ref 0) in
  let bump _ =
    let r = Domain.DLS.get key in
    incr r;
    !r
  in
  Alcotest.(check (array int)) "first batch initializes DLS" [| 1; 1; 1 |]
    (Domain_pool.Pool.map p bump);
  Alcotest.(check (array int)) "second batch finds it warm" [| 2; 2; 2 |]
    (Domain_pool.Pool.map p bump);
  Domain_pool.Pool.shutdown p

let test_pool_failure_and_shutdown () =
  let p = Domain_pool.Pool.create ~jobs:2 () in
  Alcotest.check_raises "first failure re-raised" (Failure "job 1") (fun () ->
      ignore
        (Domain_pool.Pool.map p (fun i ->
             if i = 1 then failwith "job 1" else i)));
  Alcotest.(check (array int)) "pool survives a failed batch" [| 0; 1 |]
    (Domain_pool.Pool.map p (fun i -> i));
  Domain_pool.Pool.shutdown p;
  (* Idempotent; a shut pool refuses work instead of hanging. *)
  Domain_pool.Pool.shutdown p;
  Alcotest.(check bool) "map after shutdown raises" true
    (match Domain_pool.Pool.map p (fun i -> i) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Crash containment, the property the serve layer builds on: a task
   that raises fails only its own cell — every sibling in the same
   generation still runs to completion — and the pool keeps serving
   generation after generation afterwards. *)
let test_pool_crash_containment () =
  let jobs = 3 in
  let p = Domain_pool.Pool.create ~jobs () in
  let ran = Array.init jobs (fun _ -> Atomic.make 0) in
  Alcotest.check_raises "poisoned task re-raised" (Failure "poison")
    (fun () ->
      ignore
        (Domain_pool.Pool.map p (fun i ->
             Atomic.incr ran.(i);
             if i = 1 then failwith "poison";
             i)));
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "task %d of the poisoned generation still ran" i)
        1 (Atomic.get c))
    ran;
  (* Several healthy generations after the failure, including the
     chunked dispatch path — the pool state fully recovered. *)
  for gen = 1 to 3 do
    Alcotest.(check (array int))
      (Printf.sprintf "generation %d after the failure" gen)
      [| 0; gen; 2 * gen |]
      (Domain_pool.Pool.map p (fun i -> gen * i))
  done;
  let sum = Atomic.make 0 in
  Domain_pool.Pool.run_chunked p ~n:100 (fun i ->
      ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "run_chunked after a failed generation" 4950
    (Atomic.get sum);
  (* A second poisoned generation doesn't accumulate damage either. *)
  Alcotest.check_raises "second poisoned generation" (Failure "again")
    (fun () ->
      ignore
        (Domain_pool.Pool.map p (fun i ->
             if i = 2 then failwith "again" else i)));
  Alcotest.(check (array int)) "still alive after the second failure"
    [| 0; 1; 2 |]
    (Domain_pool.Pool.map p (fun i -> i));
  Domain_pool.Pool.shutdown p

let test_pool_run_chunked () =
  let p = Domain_pool.Pool.create ~jobs:3 () in
  let n = 1003 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Domain_pool.Pool.run_chunked p ~chunk:7 ~n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "item %d ran %d times" i (Atomic.get c))
    hits;
  Domain_pool.Pool.run_chunked p ~n:0 (fun _ ->
      Alcotest.fail "n=0 must dispatch nothing");
  let sum = Atomic.make 0 in
  Domain_pool.Pool.run_chunked p ~n:100 (fun i ->
      ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "default chunking covers every item" 4950
    (Atomic.get sum);
  Domain_pool.Pool.shutdown p

(* A caller taking [?jobs] and [?pool] fans out at the pool's width, at
   [jobs], or at the core count, and refuses a [jobs] that disagrees
   with its pool or is not positive. *)
let test_fan_out_jobs () =
  let width ?jobs ?pool () =
    Domain_pool.fan_out_jobs ~caller:"f" ~jobs ~pool
  in
  let p = Domain_pool.Pool.create ~jobs:2 () in
  Alcotest.(check int) "pool width" 2 (width ~pool:p ());
  Alcotest.(check int) "jobs agreeing with the pool" 2
    (width ~jobs:2 ~pool:p ());
  Alcotest.(check int) "jobs alone" 3 (width ~jobs:3 ());
  Alcotest.(check int) "neither: the core count"
    (Domain_pool.available_cores ()) (width ());
  Alcotest.check_raises "jobs disagreeing with the pool"
    (Invalid_argument "f: jobs=3 but the pool has 2 worker(s)") (fun () ->
      ignore (width ~jobs:3 ~pool:p ()));
  Alcotest.check_raises "jobs must be positive" (Invalid_argument "f: jobs=0")
    (fun () -> ignore (width ~jobs:0 ()));
  Domain_pool.Pool.shutdown p

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.float 1.5; Json.String "x\n\"\\y"; Json.Null ]);
        ("ok", Json.Bool true);
        ("empty", Json.Obj []);
        ("nested", Json.Obj [ ("l", Json.List []) ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty form roundtrips" true (v = v')
  | Error e -> Alcotest.fail e);
  let compact = Json.to_string ~indent:0 v in
  Alcotest.(check bool) "compact form is one line" true
    (not (String.contains compact '\n'));
  match Json.parse compact with
  | Ok v' -> Alcotest.(check bool) "compact form roundtrips" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_errors_and_nonfinite () =
  Alcotest.(check bool) "NaN prints as null" true
    (Json.float Float.nan = Json.Null);
  (match Json.parse "{\"a\":" with
  | Ok _ -> Alcotest.fail "accepted a truncated object"
  | Error _ -> ());
  (match Json.parse "[1, 2] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  (* A \u escape takes exactly four hex digits, in either case. *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [ {|"/x\uzzzz"|}; {|"\u12_4"|} ];
  match Json.parse {|"\u00e9\u00C9"|} with
  | Ok v ->
    Alcotest.(check (option string)) "hex digits of both cases"
      (Some "\xc3\xa9\xc3\x89") (Json.get_string v)
  | Error e -> Alcotest.fail e

let test_json_accessors () =
  match
    Json.parse
      "{\"jobs\": {\"requested\": 4, \"effective\": 1}, \"xs\": [1, 2.5, true]}"
  with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option int)) "nested path" (Some 4)
      (Option.bind (Json.path [ "jobs"; "requested" ] v) Json.get_int);
    Alcotest.(check (option int)) "missing member" None
      (Option.bind (Json.member "nope" v) Json.get_int);
    let xs = Option.value ~default:[] (Option.bind (Json.member "xs" v) Json.to_list) in
    Alcotest.(check int) "list length" 3 (List.length xs);
    Alcotest.(check (option bool)) "bool element" (Some true)
      (Json.get_bool (List.nth xs 2));
    Alcotest.(check (option (float 1e-9))) "int widens to float" (Some 1.)
      (Json.get_float (List.nth xs 0))

(* --- Lineio (reusable jsonl framing buffers) ----------------------- *)

module Lineio = Resched_util.Lineio

(* A fill callback that deposits bytes from an in-memory source string,
   [chunk] bytes at a time. *)
let feeder ?(chunk = max_int) s =
  let pos = ref 0 in
  fun buf off len ->
    let n = Stdlib.min (Stdlib.min len chunk) (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let drain_reader r =
  let rec go acc =
    match Lineio.Reader.next r with
    | `Line l -> go (`Line l :: acc)
    | `Overflow n -> go (`Overflow n :: acc)
    | `Pending -> List.rev acc
  in
  go []

let test_lineio_split_fills () =
  let r = Lineio.Reader.create ~capacity:8 ~max_line:64 () in
  (* One logical stream arriving in awkward 3-byte reads: lines split
     across fills, CRLF termination, and a final unterminated tail. *)
  let f = feeder ~chunk:3 "hello\nwor" in
  let rec pump f = if Lineio.Reader.fill r f > 0 then pump f in
  pump f;
  Alcotest.(check int) "first line framed" 1
    (List.length
       (List.filter (function `Line "hello" -> true | _ -> false)
          (drain_reader r)));
  Alcotest.(check int) "partial line buffered" 3 (Lineio.Reader.buffered r);
  pump (feeder ~chunk:3 "ld\r\nlast");
  (match drain_reader r with
  | [ `Line "world" ] -> ()
  | _ -> Alcotest.fail "expected exactly [world] with CRLF stripped");
  Alcotest.(check (option string)) "EOF flush returns the tail"
    (Some "last")
    (Lineio.Reader.pending_line r);
  Alcotest.(check int) "empty after pending_line" 0 (Lineio.Reader.buffered r)

let test_lineio_overflow_and_resume () =
  let r = Lineio.Reader.create ~capacity:8 ~max_line:5 () in
  let pump s =
    let f = feeder s in
    let rec go () = if Lineio.Reader.fill r f > 0 then go () in
    go ()
  in
  (* Exactly max_line is fine. *)
  pump "12345\n";
  (match drain_reader r with
  | [ `Line "12345" ] -> ()
  | _ -> Alcotest.fail "exact-limit line should frame");
  (* One byte over, terminated: a single overflow report, no line. *)
  pump "123456\n";
  (match drain_reader r with
  | [ `Overflow 6 ] -> ()
  | _ -> Alcotest.fail "expected one overflow for a 6-byte line");
  (* Unterminated flood: overflow reported once at detection, the rest
     of the line discarded silently, then framing resumes. *)
  pump "xxxxxxxxxx";
  (match drain_reader r with
  | [ `Overflow _ ] -> ()
  | _ -> Alcotest.fail "expected a single overflow report for the flood");
  pump "xxxx";
  Alcotest.(check int) "mid-discard bytes are silent" 0
    (List.length (drain_reader r));
  Alcotest.(check (option string)) "pending_line hides a discarded tail"
    None
    (Lineio.Reader.pending_line r);
  pump "xxx\nok\n";
  (match drain_reader r with
  | [ `Line "ok" ] -> ()
  | _ -> Alcotest.fail "framing should resume after the discarded line")

let test_lineio_writer () =
  let w = Lineio.Writer.create ~capacity:8 () in
  Alcotest.(check bool) "starts empty" true (Lineio.Writer.is_empty w);
  Alcotest.(check bool) "add a" true (Lineio.Writer.add_line w "aa");
  Alcotest.(check bool) "add b" true (Lineio.Writer.add_line w "bb");
  Alcotest.(check bool) "add c" true (Lineio.Writer.add_line w "cc");
  Alcotest.(check int) "coalesced length" 9 (Lineio.Writer.length w);
  (* The whole backlog is offered as one contiguous write. *)
  let seen = ref "" in
  let n =
    Lineio.Writer.write_with w (fun buf pos len ->
        seen := Bytes.sub_string buf pos len;
        (* short write: only 4 bytes go out *)
        4)
  in
  Alcotest.(check int) "short write consumed" 4 n;
  Alcotest.(check string) "offered contiguously" "aa\nbb\ncc\n" !seen;
  Alcotest.(check int) "remainder stays buffered" 5 (Lineio.Writer.length w);
  let n =
    Lineio.Writer.write_with w (fun buf pos len ->
        seen := Bytes.sub_string buf pos len;
        len)
  in
  Alcotest.(check int) "rest flushed" 5 n;
  Alcotest.(check string) "tail preserved across short writes" "b\ncc\n" !seen;
  Alcotest.(check bool) "empty again" true (Lineio.Writer.is_empty w);
  (* Slow-consumer guard: a cap violation leaves the buffer unchanged. *)
  Alcotest.(check bool) "within cap" true
    (Lineio.Writer.add_line ~max:8 w "12345");
  Alcotest.(check bool) "cap refused" false
    (Lineio.Writer.add_line ~max:8 w "12345");
  Alcotest.(check int) "refused add left buffer intact" 6
    (Lineio.Writer.length w);
  Lineio.Writer.clear w;
  Alcotest.(check bool) "clear empties" true (Lineio.Writer.is_empty w)

(* The zero-copy steady-state claim from ISSUE 10, measured: once the
   ring has grown to fit the traffic, pushing a line through
   Reader.fill/next and echoing it through Writer.add_line/write_with
   allocates only the line string itself (plus a few words of variant
   and closure plumbing) — no per-request buffers.  The budget of 64
   minor words per round trip is ~3x the line string's own size; a
   per-line buffer allocation (4096 bytes = 512+ words) blows it by an
   order of magnitude.  Capacities must also have stabilised. *)
let test_lineio_steady_state_alloc () =
  let line = String.make 100 'j' in
  let request = line ^ "\n" in
  let r = Lineio.Reader.create ~max_line:1024 () in
  let w = Lineio.Writer.create () in
  let pos = ref 0 in
  let fill_fn buf off len =
    let n = Stdlib.min len (String.length request - !pos) in
    Bytes.blit_string request !pos buf off n;
    pos := !pos + n;
    n
  in
  let sink _ _ len = len in
  let cycle () =
    pos := 0;
    while Lineio.Reader.fill r fill_fn > 0 do
      ()
    done;
    (match Lineio.Reader.next r with
    | `Line l ->
      if not (Lineio.Writer.add_line w l) then Alcotest.fail "writer refused"
    | _ -> Alcotest.fail "expected a line");
    (match Lineio.Reader.next r with
    | `Pending -> ()
    | _ -> Alcotest.fail "expected pending");
    ignore (Lineio.Writer.write_with w sink : int)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let rcap = Lineio.Reader.capacity r and wcap = Lineio.Writer.capacity w in
  let rounds = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    cycle ()
  done;
  let per_line = (Gc.minor_words () -. before) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "steady state allocates no buffers (%.1f words/line)"
       per_line)
    true
    (per_line <= 64.);
  Alcotest.(check int) "reader capacity stabilised" rcap
    (Lineio.Reader.capacity r);
  Alcotest.(check int) "writer capacity stabilised" wcap
    (Lineio.Writer.capacity w)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile monotone in p"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.))
        (float_range 0. 100.) (float_range 0. 100.))
    (fun (l, p1, p2) ->
      let a = Array.of_list l in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

(* --- Sort (the shared in-place insertion sorts) -------------------- *)

(* Elements carry a distinct id next to a many-collision key
   ([v = key * 1024 + id]) so stability is observable on plain ints. *)
let prop_sort_by_int_key_segment =
  QCheck.Test.make ~count:200
    ~name:"Sort.by_int_key sorts exactly [base, base+len) and is stable"
    QCheck.(triple (list small_nat) small_nat small_nat)
    (fun (l, b, len) ->
      let arr = Array.of_list (List.mapi (fun i k -> ((k mod 5) * 1024) + i) l) in
      let n = Array.length arr in
      let base = if n = 0 then 0 else b mod n in
      let len = Stdlib.min len (n - base) in
      let before = Array.copy arr in
      let key v = v / 1024 in
      let expected =
        List.stable_sort
          (fun a b -> compare (key a) (key b))
          (Array.to_list (Array.sub before base len))
      in
      Resched_util.Sort.by_int_key arr ~base ~len ~key;
      let outside_ok = ref true in
      for i = 0 to n - 1 do
        if (i < base || i >= base + len) && arr.(i) <> before.(i) then
          outside_ok := false
      done;
      !outside_ok
      && List.equal Int.equal expected (Array.to_list (Array.sub arr base len)))

let prop_sort_by_float_keys =
  QCheck.Test.make ~count:200
    ~name:"Sort.by_float_keys matches stable_sort, both directions"
    QCheck.(pair (list small_nat) bool)
    (fun (l, desc) ->
      let n = List.length l in
      let arr = Array.of_list (List.mapi (fun i k -> ((k mod 7) * 1024) + i) l) in
      let key v = float_of_int (v / 1024) in
      let keys = Array.map key arr in
      let expected =
        List.stable_sort
          (fun a b ->
            let c = compare (key a) (key b) in
            if desc then -c else c)
          (Array.to_list arr)
      in
      Resched_util.Sort.by_float_keys arr keys ~base:0 ~len:n ~desc;
      (* the key array is permuted alongside the values *)
      let keys_ok = ref true in
      Array.iteri (fun i v -> if keys.(i) <> key v then keys_ok := false) arr;
      !keys_ok && List.equal Int.equal expected (Array.to_list arr))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "rejects bound <= 0" `Quick
            test_rng_int_rejects_nonpositive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "median/percentile" `Quick
            test_stats_median_percentile;
          Alcotest.test_case "improvement_pct" `Quick test_stats_improvement;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "row mismatch" `Quick
            test_table_row_length_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
      ("csv", [ Alcotest.test_case "escaping" `Quick test_csv_escaping ]);
      ( "domain-pool",
        [
          Alcotest.test_case "ordered results" `Quick
            test_domain_pool_ordered_results;
          Alcotest.test_case "failure propagation" `Quick
            test_domain_pool_propagates_failure;
          Alcotest.test_case "shared atomic counter" `Quick
            test_domain_pool_shared_atomic;
          Alcotest.test_case "plan_jobs clamps honestly" `Quick test_plan_jobs;
          Alcotest.test_case "warn_downgrade output" `Quick test_warn_downgrade;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map reuses resident domains" `Quick
            test_pool_map_reuses_domains;
          Alcotest.test_case "failure and shutdown" `Quick
            test_pool_failure_and_shutdown;
          Alcotest.test_case "crash containment" `Quick
            test_pool_crash_containment;
          Alcotest.test_case "run_chunked covers all items" `Quick
            test_pool_run_chunked;
          Alcotest.test_case "fan-out width" `Quick test_fan_out_jobs;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors and non-finite" `Quick
            test_json_errors_and_nonfinite;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "lineio",
        [
          Alcotest.test_case "lines split across fills" `Quick
            test_lineio_split_fills;
          Alcotest.test_case "overflow, discard, resume" `Quick
            test_lineio_overflow_and_resume;
          Alcotest.test_case "writer coalesces and guards" `Quick
            test_lineio_writer;
          Alcotest.test_case "steady state allocates no buffers" `Quick
            test_lineio_steady_state_alloc;
        ] );
      ( "sort",
        [
          QCheck_alcotest.to_alcotest prop_sort_by_int_key_segment;
          QCheck_alcotest.to_alcotest prop_sort_by_float_keys;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_percentile_monotone ]);
    ]
