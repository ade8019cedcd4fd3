#!/usr/bin/env python3
"""perfbench: fixed-work benchmark of fpga_sched's entry points.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds bin/fpga_sched.exe and
perfbench/harness.exe with dune, generates the workload's inputs from
--seed, measures, checks every output, and prints one JSON object as the
last line of stdout. With --trace 0 its metrics are the end-to-end ones
(untraced runs); with --trace 1 they are the per-layer ones of a
separate traced run. See perfbench/README.md for what each workload and
metric is for.
"""

import argparse
import json
import os
import selectors
import shutil
import socket
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402

BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT = ".bench_out"
FPGA = os.path.join(BUILD, "default", "bin", "fpga_sched.exe")
HARNESS = os.path.join(BUILD, "default", "perfbench", "harness.exe")

# Fixed work per run. Each count below scales with --seconds through a
# constant rate picked once for the reference host; nothing is
# calibrated at run time, so a slower or faster program does the same
# work and only takes longer or shorter.
# Cold starts for setup_s are spread over the run (between batch
# invocations, or before and after the timed phase) so one burst of host
# noise cannot move their median.
PAPER = dict(restarts=100, chunks_per_s=1.6, setup_starts=5, sample=6)
SERVE = dict(rate=8.0, restarts=30, emit_every=4, warmup=10, setup_starts=5)
LNS = dict(restarts=40, moves=1500, per_s=4.5, setup_starts=3, setup_instances=20,
           probe_moves=300)


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    for need in ("dune-project", "bin/fpga_sched.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail_setup(f"{need} is missing: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail_setup("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD, "--profile", "release",
           "bin/fpga_sched.exe", "perfbench/harness.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if r.returncode != 0:
        fail_setup("build failed:\n" + r.stdout)


CHILDREN = []


def spawn(cmd, **kw):
    """Start a program; returns (process, spawn time)."""
    t = time.perf_counter()
    p = subprocess.Popen(cmd, **kw)
    CHILDREN.append(p)
    return p, t


def stop_children():
    """Kill and reap whatever a failed run left running."""
    for p in CHILDREN:
        if p.returncode is None:
            p.kill()
            p.wait()


def reap(p):
    """Wait for a child and take its kernel accounting (CPU over all its
    threads, high-water RSS). Returns (exit code, rusage, end time)."""
    _, status, ru = os.wait4(p.pid, 0)
    t = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, ru, t


def run_checked(cmd, **kw):
    """Run a helper to completion; its stdout lines parsed as JSON."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kw)
    if r.returncode != 0:
        fail_setup(f"{' '.join(cmd)} exited {r.returncode}")
    return [json.loads(line) for line in r.stdout.splitlines() if line.strip()]


def harness(*args):
    return run_checked([HARNESS, *map(str, args)])


def steal_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before, after):
    ds, dt = after[0] - before[0], after[1] - before[1]
    return ds / dt if dt > 0 else 0.0


def latency(latencies_s):
    """Median and tail latency, with the tail's percentile and sample
    count. Reported in the run details, and as per-layer metrics by the
    traced run: on this 2-vCPU host they move with the hypervisor's steal
    time far beyond any bound (see perfbench/README.md), so they are not
    end-to-end metrics with a bound."""
    tail, pct, n = bs.tail(latencies_s)
    return {
        "latency.p50_ms": bs.median(latencies_s) * 1000.0,
        "latency.tail_ms": tail * 1000.0,
    }, {"tail_percentile": pct, "latency_samples": n}


# ---------------------------------------------------------------------
# paper_suite: `fpga_sched batch --jobs 2` over chunks of the paper's suite


def paper_chunks(seconds):
    return max(2, round(seconds * PAPER["chunks_per_s"]))


def paper_batch(d, k):
    return [FPGA, "batch", os.path.join(d, f"chunk_{k:02d}.jsonl"), "--jobs", "2",
            "--out-dir", os.path.join(d, f"out_{k:02d}"),
            "--stats", os.path.join(d, f"stats_{k:02d}.json")]


def paper_cold_start(d):
    """`batch` on the set-up manifest (one restart per instance), spawn to
    exit."""
    p, t0 = spawn([FPGA, "batch", os.path.join(d, "setup.jsonl"), "--jobs", "2"],
                  stdout=subprocess.DEVNULL)
    code, _, t1 = reap(p)
    if code != 0:
        fail_setup("setup batch failed")
    return t1 - t0


def paper_timed(d, chunks, setup):
    """One batch invocation per chunk, back to back, with the cold starts
    (when `setup`) interleaved between them. Returns per-invocation
    (wall, rusage, exit code) and the cold-start times."""
    runs, starts = [], []
    every = max(1, chunks // PAPER["setup_starts"])
    for k in range(chunks):
        if setup and k % every == 0 and len(starts) < PAPER["setup_starts"]:
            starts.append(paper_cold_start(d))
        p, t0 = spawn(paper_batch(d, k), stdout=subprocess.DEVNULL)
        code, ru, t1 = reap(p)
        runs.append((t1 - t0, ru, code))
    return runs, starts


def paper_results(d, chunks):
    makespans = []
    for k in range(chunks):
        path = os.path.join(d, f"stats_{k:02d}.json")
        if os.path.exists(path):
            with open(path) as f:
                makespans += [r["makespan"] for r in json.load(f)["instances"]]
    return makespans


def run_paper(d, seed, seconds, trace):
    chunks = paper_chunks(seconds)
    harness("gen-suite", "--dir", d, "--seed", seed, "--chunks", chunks,
            "--restarts", PAPER["restarts"])
    steal0 = steal_ticks()
    runs, starts = paper_timed(d, chunks, setup=not trace)
    steal = steal_share(steal0, steal_ticks())
    bad_runs = sum(1 for _, _, code in runs if code != 0)
    check = harness("check-suite", "--dir", d, "--chunks", chunks,
                    "--sample", PAPER["sample"], "--seed", seed)[-1]
    makespans = paper_results(d, chunks)
    attempted = 10 * chunks
    # A failed invocation fails its ten instances; a missing or empty
    # result, and every failed output check, fails one.
    missing = max(10 * bad_runs, attempted - len(makespans))
    failed = min(attempted, missing + makespans.count(None) + check["failed"])
    lat, extra = latency([w for w, _, _ in runs])
    details = {"invocations": chunks, "instances": attempted, "steal_share": steal,
               "check": check, **lat, **extra}
    if trace:
        summary = harness("trace-suite", "--dir", d, "--chunks", chunks,
                          "--trace-out", os.path.join(d, "trace.json"))[-1]
        details.update(trace_details(summary))
        m = layer_metrics(summary, os.path.join(d, "trace.json"), details, steal=steal)
        return attempted, failed + summary["failed"], {**m, **lat}, details
    good = [m for m in makespans if m is not None]
    metrics = {
        "setup_s": bs.median(starts),
        "throughput_per_s": len(good) / sum(w for w, _, _ in runs),
        "cpu_ms_per_result": bs.cpu_ms_per_result([ru for _, ru, _ in runs], len(good)),
        "peak_rss_mb": max(bs.peak_rss_mb(ru) for _, ru, _ in runs),
        "makespan_geomean": bs.geomean(good),
    }
    return attempted, failed, metrics, details


# ---------------------------------------------------------------------
# serve_fresh: the `fpga_sched serve` daemon over its socket, open loop


class Daemon:
    """`fpga_sched serve --socket --jobs 2` with default admission
    settings. Ready when it prints its "serving on" line."""

    def __init__(self, d):
        self.path = os.path.join(d, "serve.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.proc, self.t_spawn = spawn([FPGA, "serve", "--socket", self.path, "--jobs", "2"],
                                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline()
        if b"serving on" not in line:
            self.proc.kill()
            reap(self.proc)
            fail_setup("daemon did not start: " + line.decode(errors="replace"))

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(120.0)  # a hung daemon fails the run instead of stalling it
        s.connect(self.path)
        return s

    def stop(self, conn):
        """Ask for shutdown and reap the daemon."""
        conn.sendall(b'{"op":"shutdown","id":"q"}\n')
        read_line(conn)
        code, ru, _ = reap(self.proc)
        self.proc.stderr.close()
        return code, ru


def read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            break
        buf += chunk
    return json.loads(buf) if buf.strip() else None


def serve_setup(d):
    """Spawn until the first `metrics` response, several times."""
    times = []
    for _ in range(SERVE["setup_starts"]):
        dm = Daemon(d)
        c = dm.connect()
        c.sendall(b'{"op":"metrics","id":"m"}\n')
        reply = read_line(c)
        t = time.perf_counter()
        if not reply or reply.get("status") != "metrics":
            fail_setup("daemon gave no metrics reply")
        times.append(t - dm.t_spawn)
        dm.stop(c)
        c.close()
    return times


def load_schedule(d):
    arrivals = []
    with open(os.path.join(d, "arrivals.txt")) as f:
        for line in f:
            t, conn, rid = line.split()
            arrivals.append((float(t), int(conn), rid))
    with open(os.path.join(d, "requests.jsonl"), "rb") as f:
        lines = [line if line.endswith(b"\n") else line + b"\n" for line in f if line.strip()]
    return arrivals, lines


def open_loop(conns, arrivals, lines, timeout_s):
    """Send each request at its scheduled time on its connection and
    collect response lines. Returns (scheduled, sent, received, responses)
    with times relative to perf_counter()."""
    sel = selectors.DefaultSelector()
    bufs = {}
    for c in conns:
        sel.register(c, selectors.EVENT_READ)
        bufs[c] = b""
    n = len(arrivals)
    t_start = time.perf_counter() + 0.05
    scheduled = [t_start + t for t, _, _ in arrivals]
    sent = [0.0] * n
    received = {}
    responses = []
    deadline = scheduled[-1] + timeout_s
    nxt = 0
    while len(responses) < n and time.perf_counter() < deadline:
        now = time.perf_counter()
        while nxt < n and scheduled[nxt] <= now:
            conns[arrivals[nxt][1]].sendall(lines[nxt])
            sent[nxt] = time.perf_counter()
            nxt += 1
            now = sent[nxt - 1]
        wait = scheduled[nxt] - now if nxt < n else deadline - now
        for key, _ in sel.select(max(0.0, wait)):
            chunk = key.fileobj.recv(1 << 20)
            t = time.perf_counter()
            if not chunk:
                sel.unregister(key.fileobj)
                continue
            buf = bufs[key.fileobj] + chunk
            *done, bufs[key.fileobj] = buf.split(b"\n")
            for line in done:
                r = json.loads(line)
                responses.append(r)
                received.setdefault(r.get("id"), t)
    sel.close()
    return scheduled, sent, received, responses


def serve_round(d, seconds):
    """One daemon life: spawn, open-loop phase, metrics, shutdown."""
    arrivals, lines = load_schedule(d)
    ids = [rid for _, _, rid in arrivals]
    dm = Daemon(d)
    conns = [dm.connect(), dm.connect()]
    # Warm-up, closed loop and untimed: the daemon's first requests pay
    # one-off costs (heap growth, first-touch pages) that a long-lived
    # service does not.
    warm_failed = warm_ok = 0
    with open(os.path.join(d, "warmup.jsonl"), "rb") as f:
        for k, line in enumerate(f):
            conns[k % 2].sendall(line)
            r = read_line(conns[k % 2])
            if r is not None and r.get("status") == "ok":
                warm_ok += 1
            else:
                warm_failed += 1
    steal0 = steal_ticks()
    scheduled, sent, received, responses = open_loop(conns, arrivals, lines, 60.0)
    steal = steal_share(steal0, steal_ticks())
    conns[0].sendall(b'{"op":"metrics","id":"m"}\n')
    server_metrics = read_line(conns[0])
    code, ru = dm.stop(conns[0])
    for c in conns:
        c.close()
    with open(os.path.join(d, "responses.jsonl"), "w") as f:
        for r in responses:
            f.write(json.dumps(r) + "\n")
    # Classify: exactly one ok response per request, nothing else.
    by_id = {}
    dup = 0
    for r in responses:
        if r.get("id") in by_id:
            dup += 1
        by_id.setdefault(r.get("id"), r)
    ok = {rid for rid in ids if by_id.get(rid, {}).get("status") == "ok"}
    not_ok = len(ids) - len(ok)
    late = bs.lateness(scheduled, sent)
    lat_s = [received[rid] - scheduled[k] for k, rid in enumerate(ids) if rid in ok]
    frontend_ms = [1000.0 * (received[rid] - sent[k]) - by_id[rid]["latency_ms"]
                   for k, rid in enumerate(ids) if rid in ok]
    return {
        "ids": ids, "ok": ok, "by_id": by_id, "bad": not_ok + dup + warm_failed, "exit": code,
        "rusage": ru, "served": warm_ok,
        "lat_s": lat_s, "late": late, "steal": steal, "server_metrics": server_metrics,
        "frontend_ms": frontend_ms,
        "phase_s": max(received.values()) - scheduled[0] if received else seconds,
    }


def run_serve(d, seed, seconds, trace):
    count = max(20, round(seconds * SERVE["rate"]))
    harness("gen-serve", "--dir", d, "--seed", seed, "--count", count, "--rate", SERVE["rate"],
            "--restarts", SERVE["restarts"], "--emit-every", SERVE["emit_every"],
            "--warmup", SERVE["warmup"])
    starts = [] if trace else serve_setup(d)
    rd = serve_round(d, seconds)
    starts += [] if trace else serve_setup(d)
    responses = os.path.join(d, "responses.jsonl")
    check = harness("check-serve", "--dir", d, "--responses", responses)[-1]
    degraded = sum(1 for rid in rd["ok"] if rd["by_id"][rid].get("degrade", 0) > 0)
    failed = min(count, rd["bad"] + check["failed"] + (1 if rd["exit"] != 0 else 0))
    lat, extra = latency(rd["lat_s"])
    details = {"requests": count, "degraded": degraded,
               "generator_lateness_ms_p99": 1000.0 * bs.percentile(rd["late"], 99),
               "generator_lateness_ms_max": 1000.0 * max(rd["late"]),
               "steal_share": rd["steal"], "check": check, **lat, **extra}
    if trace:
        summary = harness("trace-serve", "--dir", d, "--responses", responses,
                          "--trace-out", os.path.join(d, "trace.json"))[-1]
        details.update(trace_details(summary))
        m = layer_metrics(summary, os.path.join(d, "trace.json"), details, steal=rd["steal"],
                          late=rd["late"], serve=(rd, degraded))
        return count, failed + summary["failed"], {**m, **lat}, details
    results = len(rd["ok"])
    metrics = {
        "setup_s": bs.median(starts),
        "throughput_per_s": results / rd["phase_s"],
        # the daemon's CPU covers the warm-up requests too
        "cpu_ms_per_result": bs.cpu_ms_per_result([rd["rusage"]], results + rd["served"]),
        "peak_rss_mb": bs.peak_rss_mb(rd["rusage"]),
        "makespan_geomean": bs.geomean([rd["by_id"][rid]["makespan"] for rid in rd["ok"]
                                        if rd["by_id"][rid].get("makespan")]),
    }
    return count, failed, metrics, details


# ---------------------------------------------------------------------
# lns_saturated: PA-R seed + Lns.polish, in the harness's own process


def lns_count(seconds):
    return max(5, round(seconds * LNS["per_s"]))


def lns_setup(d, seed):
    """Instance load, one restart and one move per instance."""
    sd = os.path.join(d, "setup")
    os.makedirs(os.path.join(sd, "lns"), exist_ok=True)
    for name in sorted(os.listdir(os.path.join(d, "lns")))[:LNS["setup_instances"]]:
        shutil.copy(os.path.join(d, "lns", name), os.path.join(sd, "lns", name))
    times = []
    for _ in range(LNS["setup_starts"]):
        p, t0 = spawn([HARNESS, "lns", "--dir", sd, "--seed", str(seed), "--restarts", "1",
                       "--moves", "1"], stdout=subprocess.DEVNULL)
        code, _, t1 = reap(p)
        if code != 0:
            fail_setup("lns setup run failed")
        times.append(t1 - t0)
    return times


def run_lns(d, seed, seconds, trace):
    count = lns_count(seconds)
    harness("gen-lns", "--dir", d, "--seed", seed, "--count", count)
    starts = [] if trace else lns_setup(d, seed)
    steal0 = steal_ticks()
    p, t0 = spawn([HARNESS, "lns", "--dir", d, "--seed", str(seed), "--restarts",
                   str(LNS["restarts"]), "--moves", str(LNS["moves"])],
                  stdout=subprocess.PIPE, text=True)
    out = p.stdout.read()
    code, ru, t1 = reap(p)
    steal = steal_share(steal0, steal_ticks())
    starts += [] if trace else lns_setup(d, seed)
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    with open(os.path.join(d, "lns_results.jsonl"), "w") as f:
        f.write(out)
    good = [r for r in rows if r["valid"] and r["makespan"] <= r["seed_makespan"]]
    failed = count - len(good) if code == 0 else count
    lat, extra = latency([r["latency_s"] for r in good])
    details = {"instances": count, "steal_share": steal, **lat, **extra}
    if trace:
        summary = harness("trace-lns", "--dir", d, "--seed", seed, "--restarts", LNS["restarts"],
                          "--moves", LNS["moves"], "--probe-moves", LNS["probe_moves"],
                          "--trace-out", os.path.join(d, "trace.json"))[-1]
        details.update(trace_details(summary))
        m = layer_metrics(summary, os.path.join(d, "trace.json"), details, steal=steal)
        return count, failed + summary["failed"], {**m, **lat}, details
    metrics = {
        "setup_s": bs.median(starts),
        "throughput_per_s": len(good) / (t1 - t0),
        "cpu_ms_per_result": bs.cpu_ms_per_result([ru], len(good)),
        "peak_rss_mb": bs.peak_rss_mb(ru),
        "makespan_geomean": bs.geomean([r["makespan"] for r in good]),
    }
    return count, failed, metrics, details


# ---------------------------------------------------------------------
# Per-layer metrics of a traced run

LAYERS = ["batch", "pa_random", "pa", "fp_cache", "packer", "delta", "lns", "io", "protocol",
          "validate", "schedule_io"]


def span_shares(trace_path):
    """Self time per layer under the `trace.mirror` roots (one per traced
    item), as a share of all self time there; the share of the roots'
    wall time that falls inside no layer span; and self time in ms per
    span name under each kind of root (mirror and probe)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["idx"]: {"name": e["name"], "t0": e["ts"], "t1": e["ts"] + e["dur"],
                                "parent": e["args"]["parent"], "tid": e["tid"]} for e in events}

    def root_of(i):
        while spans[i]["parent"] in spans:
            i = spans[i]["parent"]
        return spans[i]["name"]

    selfs = bs.self_times(spans)
    by_name = {}
    for i, t in selfs.items():
        group = by_name.setdefault(root_of(i), {})
        group[spans[i]["name"]] = group.get(spans[i]["name"], 0.0) + t / 1000.0
    mirror = by_name.get("trace.mirror", {})
    total = sum(mirror.values()) or 1.0
    per_layer = {}
    for name, t in mirror.items():
        layer = name.split(".")[0]
        layer = layer if layer in LAYERS else "unattributed"
        per_layer[layer] = per_layer.get(layer, 0.0) + t
    shares = {f"self_share.{layer}": per_layer.get(layer, 0.0) / total
              for layer in LAYERS + ["unattributed"]}
    roots = [s for s in spans.values() if s["name"] == "trace.mirror"]
    uncovered = ratio(mirror.get("trace.mirror", 0.0),
                      sum(s["t1"] - s["t0"] for s in roots) / 1000.0)
    return shares, uncovered, len(events), by_name


def trace_details(summary):
    return {"trace_file": summary["trace_file"], "traced_s": summary["traced_s"],
            "untraced_s": summary["untraced_s"], "trace_failures": summary["failures"]}


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary, trace_path, details, steal, late=None, serve=None):
    rs = summary["restarts"]
    counts = summary.get("counts", {})
    timers = summary["timers"]

    def c(name):
        return counts.get(name, 0.0)

    def per_call_us(name):
        t = timers.get(name, {"n": 0, "secs": 0.0})
        return 1e6 * ratio(t["secs"], t["n"])

    def per_call_bytes(name):
        t = timers.get(name, {"n": 0, "bytes": 0.0})
        return ratio(t["bytes"], t["n"])

    n_restarts = sum(k["n"] for k in rs.values())
    l1 = sum(k["l1"] for k in rs.values())
    l2 = sum(k["l2"] for k in rs.values())
    misses = sum(k["misses"] for k in rs.values())
    lookups = l1 + l2 + misses
    hit_us = per_call_us("fp_cache.hit")
    miss = rs["miss"]
    restart_s = sum(k["secs"] for k in rs.values())
    probe_results = summary["probe_results"]
    results = summary["results"]
    io = timers.get("io.parse", {"secs": 0.0, "bytes": 0.0})
    gc = summary["gc"]
    batch = summary.get("batch", {})
    gc_results = probe_results if batch else results
    shares, uncovered, n_spans, by_name = span_shares(trace_path)
    m = {
        "pa_random.restarts": n_restarts,
        "pa_random.us_per_restart": 1e6 * ratio(rs["kernel"]["secs"], rs["kernel"]["n"]),
        "pa_random.minor_words_per_restart": ratio(sum(k["words"] for k in rs.values()), n_restarts),
        "pa.context_create_us": per_call_us("pa.context_create"),
        "fp_cache.lookups_per_result": ratio(lookups + c("lns.lookups"), probe_results),
        "fp_cache.l1_hit_share": ratio(l1, lookups),
        "fp_cache.l2_hit_share": ratio(l2, lookups),
        "fp_cache.miss_share": ratio(misses, lookups),
        "fp_cache.hit_us": hit_us,
        "packer.misses_per_result": ratio(misses + c("lns.misses"), probe_results),
        "packer.us_per_miss": ratio(1e6 * miss["extra"] - (miss["l1"] + miss["l2"]) * hit_us,
                                    miss["misses"]),
        "batch.slices": batch.get("slices", 0),
        "batch.busy_share": ratio(batch.get("busy_s", 0.0), batch.get("capacity_s", 0.0)),
        "delta.rollback_us": 1e6 * ratio(c("delta.rollback.secs"), c("delta.rollback.n")),
        "delta.legal_share": ratio(c("moves.legal"), c("moves.drawn")),
        "delta.requery_share": ratio(c("moves.requery"), c("moves.legal")),
        "delta.requery_feasible_share": ratio(c("moves.requery_feasible"), c("moves.requery")),
        "lns.proposals_per_s": ratio(c("lns.proposed"), c("lns.elapsed_s")),
        "lns.accept_share": ratio(c("lns.accepted"), c("lns.applied")),
        "lns.improvements": c("lns.improvements"),
        "io.parse_us_per_kb": ratio(1e6 * io["secs"], io["bytes"] / 1024.0),
        "protocol.parse_us": per_call_us("protocol.parse"),
        "protocol.encode_us": per_call_us("protocol.encode"),
        "protocol.bytes_in_per_request": per_call_bytes("protocol.parse"),
        "protocol.bytes_out_per_request": 0.0,
        "validate.us_per_schedule": per_call_us("validate.check"),
        "schedule_io.encode_us": per_call_us("schedule_io.encode"),
        "schedule_io.bytes_per_schedule": per_call_bytes("schedule_io.encode"),
        # paper_suite's mirror runs on two domains; its GC counters come
        # from the single-domain probe of chunk 0.
        "gc.minor_words_per_result": ratio(gc["minor_words"], gc_results),
        "gc.major_collections_per_result": ratio(gc["major_collections"], gc_results),
        "restart_share.kernel": ratio(rs["kernel"]["secs"], restart_s),
        "restart_share.fp_cache": ratio(rs["l1"]["secs"] + rs["l2"]["secs"], restart_s),
        "restart_share.packer": ratio(miss["secs"], restart_s),
        "trace.uncovered_share": uncovered,
        "trace.overhead_share": ratio(summary["traced_s"], summary["untraced_s"]) - 1.0,
        "trace.spans": n_spans,
        "host.steal_share": steal,
        "gen.lateness_ms_p99": 1000.0 * bs.percentile(late, 99) if late else 0.0,
        "gen.lateness_ms_max": 1000.0 * max(late) if late else 0.0,
        **shares,
    }
    details["self_ms_by_span"] = {root: {k: round(v, 3) for k, v in sorted(g.items())}
                                  for root, g in by_name.items()}
    for kind in ["reassign", "swap", "to_sw", "to_hw", "merge", "split"]:
        m[f"delta.apply_us.{kind}"] = 1e6 * ratio(c(f"delta.apply.{kind}.secs"),
                                                  c(f"delta.apply.{kind}.n"))
    for name in ["transport.frontend_ms_p50", "transport.frontend_ms_tail", "server.queue_wait_ms_p50",
                 "server.queue_wait_ms_tail", "server.max_queue_depth", "server.shed",
                 "server.degraded", "server.dispatch_ratio"]:
        m[name] = 0.0
    if serve:
        rd, degraded = serve
        sm = rd["server_metrics"]["metrics"]
        reqs = summary["requests"]
        wait = [r["served_ms"] - r["solve_ms"] for r in reqs]
        disp = sm["dispatch"]
        m.update({
            "transport.frontend_ms_p50": bs.median(rd["frontend_ms"]),
            "transport.frontend_ms_tail": bs.tail(rd["frontend_ms"])[0],
            "server.queue_wait_ms_p50": bs.median(wait),
            "server.queue_wait_ms_tail": bs.tail(wait)[0],
            "server.max_queue_depth": sm["queue"]["max_depth"],
            "server.shed": sum(sm["shed"].values()),
            "server.degraded": degraded,
            "server.dispatch_ratio": ratio(disp["dispatched_max"], disp["dispatched_min"]),
            "protocol.bytes_out_per_request": ratio(sum(r["bytes_out"] for r in reqs), len(reqs)),
        })
    return m


# ---------------------------------------------------------------------

def units():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


WORKLOADS = {"paper_suite": run_paper, "serve_fresh": run_serve, "lns_saturated": run_lns}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    e2e_units, layer_units = units()
    # One directory per workload and mode, emptied by the next such run.
    d = os.path.join(OUT, f"{a.workload}-{'traced' if a.trace else 'timed'}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        attempted, failed, metrics, details = WORKLOADS[a.workload](d, a.seed, a.seconds, a.trace)
    finally:
        stop_children()
    failed = min(attempted, failed)
    wanted = layer_units if a.trace else e2e_units
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        fail_setup(f"metrics not produced: {missing}")
    print(json.dumps({"workload": a.workload, "seed": a.seed, **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
