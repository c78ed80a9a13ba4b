#!/usr/bin/env python3
"""Builds and runs the NOVA benchmark, and prints its result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds `perfbench` (a package of its own, outside the
repository's workspace) in release mode, runs it once as a child
process, measures the peak resident memory of one more child that boots
and runs the workload once (`peak_rss_mb`), checks that the metric names it
printed are exactly the ones `BENCHMARK.json` lists for the mode, attaches
each metric's unit from there, prints a provenance report
(commit, core count, seed, samples, median and quartiles of every
metric), and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero without a result line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "nova-perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr; stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", BINARY)


def run(binary, args, extra=()):
    """Runs the benchmark binary; returns its stdout and peak RSS (MB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"benchmark exited with {child.returncode}")
    # ru_maxrss is in KiB on Linux.
    return out, usage.ru_maxrss / 1024.0


def commit():
    """The git commit, or a digest of the sources outside a repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.sha256()
    skip = {"target", ".bench_build", ".git", "__pycache__"}
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def units(trace):
    """Unit of each metric `BENCHMARK.json` lists for the mode, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    out, _ = run(binary, args)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no report")
    report = json.loads(lines[-1])
    metrics = report["metrics"]
    if not args.trace:
        # The high-water mark of one boot + run, in a process of its own
        # (the measuring process also holds the calibration kernel).
        _, rss_mb = run(binary, args, ["--single-run"])
        metrics["peak_rss_mb"] = {"value": rss_mb, "min": rss_mb, "median": rss_mb,
                                  "q1": rss_mb, "q3": rss_mb, "n": 1}
    unit = units(args.trace)
    names = set(unit)
    if set(metrics) != names:
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
    for name, m in metrics.items():
        m["unit"] = unit[name]

    provenance = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "workload": report["workload"],
        "seed": report["seed"],
        "seconds": report["seconds"],
        "trace": args.trace,
        "samples": report["samples"],
        "calibration": report["calibration"],
    }
    print("report " + json.dumps({
        "provenance": provenance,
        "failures": report["failures"],
        "notes": report["notes"],
        "metrics": metrics,
    }))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
