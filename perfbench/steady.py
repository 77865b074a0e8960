#!/usr/bin/env python3
"""Steadiness check for the fedaqp benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--seconds S] [--same-seed]

Runs every workload (or the listed ones) --runs times, each with another
seed, through perfbench/run.py, and prints for each end-to-end metric of
BENCHMARK.json its median, quartiles (statistics.quantiles, n=4) and
spread = (Q3 - Q1) / median against the metric's bound. A spread above
a third of the bound is flagged UNSTEADY (setup_s is listed but not
judged). With --same-seed every run repeats the first seed, and the
fixed-order answer checksums of all runs must agree. Exits non-zero when
a run fails, a checksum differs, or a metric is unsteady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {}
    path = os.path.join(ROOT, ".bench_build", "results",
                        f"{workload}-seed{seed}-trace0.json")
    checksum = None
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            checksum = json.load(f)["info"].get("checksum.fixed_order")
    return done.returncode, result, checksum


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        checksums = set()
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            code, result, checksum = run_once(workload, seed, seconds)
            if code != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {code})")
                bad = True
                continue
            checksums.add(checksum)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        if args.same_seed and len(checksums) > 1:
            print(f"{workload}: fixed-order answers differ across runs: {checksums}")
            bad = True
        print(f"\n{workload}: {'metric':<16} {'median':>11} {'Q1':>11} {'Q3':>11}"
              f" {'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3, s = spread(vals)
            judged = m["name"] != "setup_s"
            steady = s <= m["bound"] / 3
            bad = bad or (judged and not steady)
            flag = "" if steady or not judged else "  UNSTEADY"
            print(f"{workload}: {m['name']:<16} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                  f" {s:7.3f} {m['bound']:6.2f}{flag}")
        print(flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
