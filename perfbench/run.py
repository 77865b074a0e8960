#!/usr/bin/env python3
"""The fedaqp benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (which pulls in the
library from ../src) into .bench_build/, runs the C++ program, and writes
one result file per run to .bench_build/results/. Stdout carries the
program's table of every metric (name, value, unit, samples) and gates;
its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The traced run also writes a Chrome trace
and checks it with tools/trace_summary.py. Exits non-zero on a failed
correctness gate, a build failure, or when the library sources are absent.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def repo_root():
    root = os.path.dirname(BENCH_DIR)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no fedaqp sources (CMakeLists.txt and src/) in {root}")
    return root


def build(root, build_dir):
    """Configures once, then lets the build tool rebuild what changed.
    A lock keeps concurrent runs from building the same tree at once."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail(f"build failed: {' '.join(cmd)}")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha(root):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest(root):
    """sha256 over the library sources, the build's identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(root, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in sorted(files):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_ticks():
    """The aggregate cpu line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of the host's CPU time stolen by other guests during the run:
    the usual cause when wall-clock figures move and CPU costs do not."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return round(100.0 * delta[7] / total, 2) if total > 0 else None


def validate_trace(root, trace_path):
    tool = os.path.join(root, "tools", "trace_summary.py")
    if not os.path.isfile(tool):
        return {"name": "trace_summary", "ok": True,
                "detail": "tools/trace_summary.py absent; not checked"}
    done = subprocess.run([sys.executable, tool, trace_path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120)
    sys.stdout.write(done.stdout)
    return {"name": "trace_summary", "ok": done.returncode == 0,
            "detail": f"tools/trace_summary.py exit {done.returncode}"}


def run_workload(root, spec, build_dir, workload, seed, seconds, trace):
    """One run: drives the C++ benchmark, applies the gates, writes the
    result file, prints the table. Returns the result object of the last line."""
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    trace_path = os.path.join(results, stem + ".trace.json")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", trace_path]
    started = time.time()
    ticks = cpu_ticks()
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    steal = steal_pct(ticks, cpu_ticks())
    lines = done.stdout.splitlines()
    tagged = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    for line in lines:
        if not line.startswith("PERFBENCH_RESULT "):
            print(line)
    if done.returncode not in (0, 1) or not tagged:
        fail(f"{workload}: perfbench exited {done.returncode} without a result")
    run = json.loads(tagged[-1][len("PERFBENCH_RESULT "):])

    gates = list(run["gates"])
    if trace:
        gates.append(validate_trace(root, trace_path))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = run["metrics"].get(m["name"])
        if got is None:
            gates.append({"name": f"metric_{m['name']}", "ok": False,
                          "detail": "not reported"})
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = all(g["ok"] for g in gates)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": started,
        "host": dict(run["host"], nproc=os.cpu_count(), cpu_model=cpu_model(),
                     git_sha=git_sha(root), source_sha256=source_digest(root),
                     steal_pct_during_run=steal),
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "gates": gates,
        "info": run["info"],
        "metrics": run["metrics"],
    }
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for g in gates[len(run["gates"]):]:
        print(f"gate  {g['name']:<28} {'PASS' if g['ok'] else 'FAIL'}  {g['detail']}")
    print(f"result file: {os.path.relpath(os.path.join(results, stem + '.json'), root)}")
    return {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the statistics self-tests and exit")
    args = ap.parse_args()

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    build_dir = os.path.join(root, ".bench_build")
    build(root, build_dir)

    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        chosen = names
    elif args.workload in names:
        chosen = [args.workload]
    else:
        fail(f"--workload must be all or one of {names}")
    runs = {w: run_workload(root, spec, build_dir, w, args.seed, args.seconds,
                            args.trace) for w in chosen}
    if len(runs) == 1:
        result = runs[chosen[0]]
    else:
        # Every workload at once: metrics keyed <workload>.<metric>.
        result = {"correct": all(r["correct"] for r in runs.values()),
                  "attempted": sum(r["attempted"] for r in runs.values()),
                  "failed": sum(r["failed"] for r in runs.values()),
                  "metrics": {f"{w}.{k}": v for w, r in runs.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
