#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/lsa_perfbench.cpp).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload sync_fresh --seed 1 --seconds 15 \
        --trace 0

configures and builds perfbench/ (the repo's `lsa` library plus the driver)
in Release into .bench_build/, runs one workload, and passes the driver's
output through: human-readable metric lines, a fingerprint line, and last the
JSON result line. The exit status is the driver's (non-zero on any wrong
output, or when the build fails).

Repeat mode runs each workload k times on seeds seed, seed+1, ... and prints,
per end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median (the figures the bounds in BENCHMARK.json are set from):

    python3 perfbench/run.py --repeat 10 --workload all --seconds 15
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lsa_perfbench")
WORKLOADS = ["sync_fresh", "sync_steady", "async_buffered", "uds_relay"]
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no CMakeLists.txt and src/ at the checkout root; nothing to build")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(proc.returncode or 2)


def fingerprint():
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()[:16]


def command(workload, seed, seconds, trace, commit, digest):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--commit", commit, "--source-digest", digest]


def run_once(args, commit, digest):
    try:
        proc = subprocess.run(
            command(args.workload, args.seed, args.seconds, args.trace,
                    commit, digest),
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    return proc.returncode


def repeat(args, commit, digest):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {}
    status = 0
    for w in workloads:
        values = {}
        for k in range(args.repeat):
            seed = args.seed + k
            try:
                proc = subprocess.run(
                    command(w, seed, args.seconds, args.trace, commit, digest),
                    cwd=ROOT, capture_output=True, text=True,
                    timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log(f"{w} seed {seed}: run exceeded {RUN_TIMEOUT_S} s")
                status = 3
                continue
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                log(f"{w} seed {seed}: failed (exit {proc.returncode})")
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w:16s} seed {seed:<6d} " + "  ".join(
                f"{name} {m['value']:.6g}"
                for name, m in result["metrics"].items()), flush=True)
        summary[w] = {}
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"unit": unit, "median": med, "q1": q1,
                                "q3": q3, "spread": spread, "n": len(vals)}
            print(f"{w:16s} {name:34s} median {med:.6g} {unit}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  "
                  f"n {len(vals)}", flush=True)
    print(json.dumps({"repeat": args.repeat, "seconds": args.seconds,
                      "trace": args.trace, "commit": commit,
                      "source_digest": digest, "summary": summary}))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload this many times on successive "
                         "seeds and print medians and quartiles")
    args = ap.parse_args()
    if args.workload == "all" and args.repeat == 0:
        ap.error("--workload all needs --repeat")
    build()
    commit, digest = fingerprint()
    if args.repeat > 0:
        return repeat(args, commit, digest)
    return run_once(args, commit, digest)


if __name__ == "__main__":
    sys.exit(main())
