#!/usr/bin/env python3
"""Build the perfbench program and run benchmark workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload cold_paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

The program is built from this checkout's sources into .bench_build/ (the
Go build cache, temporary files and the binary all stay there). Each
workload runs in a fresh process, so peak RSS, GC state and allocation
counts never carry over from one workload to the next. For a single
workload the program's last output line is its JSON result; the exit
code is non-zero when the build fails or any simulated output is wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["cold_paper", "sweep_shared", "service_warm", "service_registry"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    """Keep every file the Go toolchain writes inside .bench_build."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off")
    return env


def build():
    """Build the benchmark program; returns the go build exit code."""
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."],
                          cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode


def run(workload, args):
    """Runs one workload in its own process; returns its exit code."""
    cmd = [BINARY, "-workload", workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-work", os.path.join(BUILD, "work"), "-spans", os.path.join(BUILD, "spans")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    if args.workload != "all":
        return run(args.workload, args)
    failed = [w for w in WORKLOADS if run(w, args) != 0]
    if failed:
        print("perfbench: failed workloads: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
