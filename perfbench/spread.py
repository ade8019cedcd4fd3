#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload serve_fresh --seeds 1-10 [--seconds 20]

Runs perfbench/run.py once per seed (one after another, from the root of
the checkout) and prints, per metric, the median over the runs and the
inter-quartile range as a share of the median, next to the bound in
BENCHMARK.json. Each run's result line is appended to
.bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_out", exist_ok=True)
    values = {name: [] for name in bounds}
    for seed in seed_list(a.seeds):
        r = subprocess.run([*spec["command"], "--workload", a.workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"],
                           stdout=subprocess.PIPE, text=True)
        *_, details, last = [json.loads(line) for line in r.stdout.strip().splitlines()]
        with open(f".bench_out/spread-{a.workload}.jsonl", "a") as f:
            f.write(json.dumps({"seed": seed, "exit": r.returncode, "details": details, **last}) + "\n")
        print(f"seed {seed}: exit {r.returncode} correct {last['correct']} "
              f"failed {last['failed']}/{last['attempted']} steal {details['steal_share']:.3f}",
              flush=True)
        for name in bounds:
            values[name].append(last["metrics"][name]["value"])
    for name, xs in values.items():
        share = bs.iqr_share(xs) if len(xs) >= 2 else 0.0
        print(f"{name:20s} median {bs.median(xs):12.4f}  iqr/median {share:.4f}  "
              f"bound {bounds[name]}")


if __name__ == "__main__":
    main()
