#!/usr/bin/env python3
"""Build and run the DISCO simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-delta --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset, then runs one workload.
The last line of stdout is the result JSON; build output goes to stderr.
Host facts and, for traced runs, the recorded spans are written next to the
binary under out/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig5-delta", "fig6-fpc-sc2", "noc-8x8")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out):
    subprocess.run(["cmake", "-S", HERE, "-B", out], stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--out-dir", results]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    ok = (proc.returncode == 0 and isinstance(result, dict)
          and set(result) == RESULT_KEYS)
    body = lines[:-1] if ok else [l for l in lines if not l.startswith("{\"correct\"")]
    for line in body:
        print(line)
    if not ok:
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
