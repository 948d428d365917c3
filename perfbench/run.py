#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One workload, one fresh process (the form the results are gathered in):

    python3 perfbench/run.py --workload ilt-mbf --seed 1 --seconds 20 --trace 0

Every workload in turn, each in its own fresh process, untraced, with a
summary of every end-to-end metric by name and unit:

    python3 perfbench/run.py --all [--seed 0] [--seconds 20]

Run it from the repository root. The binary is built with the Go
toolchain on PATH into .bench_build/, which also holds the Go build
cache, so the run reads and writes nothing outside the checkout. Build
output goes to standard error; the benchmark's result is the last line
of standard output.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["ilt-mbf", "mask-replay", "manhattan-mbfl"]
# A run must end within 180 s; leave the margin to report the failure.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def go_env():
    """Environment for the go tool: every cache and temp dir inside the
    checkout, no network, no toolchain switch."""
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD_DIR, sub), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD_DIR, "gocache"),
        GOPATH=os.path.join(BUILD_DIR, "gopath"),
        GOTMPDIR=os.path.join(BUILD_DIR, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD_DIR, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def run_env():
    """Environment for a benchmark run: runtime tuning variables removed
    so every run uses the defaults."""
    env = dict(os.environ)
    for var in ("GOGC", "GOMEMLIMIT", "GOMAXPROCS", "GODEBUG"):
        env.pop(var, None)
    return env


def build():
    """Build the benchmark binary; exit non-zero if that fails."""
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=BENCH_DIR, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def run(args, capture=False):
    """Run the binary once; return (exit code, stdout or None)."""
    try:
        proc = subprocess.run(
            [BINARY] + args, cwd=ROOT, env=run_env(), timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and summarise")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not opts.all and not opts.workload:
        ap.error("give --workload NAME or --all")

    build()
    if not opts.all:
        code, _ = run(["-workload", opts.workload, "-seed", str(opts.seed),
                       "-seconds", str(opts.seconds), "-trace", str(opts.trace)])
        sys.exit(code)

    failed = False
    rows = []
    for name in WORKLOADS:
        code, out = run(["-workload", name, "-seed", str(opts.seed),
                         "-seconds", str(opts.seconds), "-trace", "0"], capture=True)
        sys.stderr.write(out or "")
        if code != 0 or not out:
            print(f"perfbench: {name} exited with {code}", file=sys.stderr)
            failed = True
            continue
        res = json.loads(out.strip().splitlines()[-1])
        failed = failed or not res["correct"]
        for metric, m in sorted(res["metrics"].items()):
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "error_rate", res["failed"] / res["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:16} {metric:14} {value:16.6g} {unit}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
