#!/usr/bin/env python3
"""Fail when this tree simulates slower than a base tree on the same host.

Run from the repository root, with the base commit checked out beside it:

    git worktree add ../base <base-commit>
    python3 tools/perf_gate.py ../base

Builds perfbench/ in both trees (the head where perfbench/run.py puts it,
the base into .bench_build/base/), then runs PAIRS pairs of base and head
runs of WORKLOAD. Every head run must report "correct": true. The gate
fails when the head's median cells_per_s is below the base's median by more
than the cells_per_s bound in the base tree's BENCHMARK.json, so a change
cannot loosen its own gate.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOAD = "fig5-delta"
METRIC = "cells_per_s"
PAIRS = 5
SECONDS = 3


def bound(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)


def run(tree, env):
    """One perfbench run in `tree`; returns its result JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
           "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf gate: run in {tree} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} BASE_TREE")
    base_env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(".bench_build/base"))
    trees = {"base": (os.path.abspath(sys.argv[1]), base_env),
             "head": (os.getcwd(), os.environ)}
    limit = bound(trees["base"][0])
    scores = {"base": [], "head": []}
    for pair in range(1, PAIRS + 1):
        # Swap which side runs first each pair, so host drift favours neither.
        for side in ("base", "head") if pair % 2 else ("head", "base"):
            tree, env = trees[side]
            result = run(tree, env)
            if side == "head" and result["correct"] is not True:
                sys.exit(f"perf gate: head run {pair} is not correct")
            scores[side].append(result["metrics"][METRIC]["value"])
        print(f"pair {pair}: base {scores['base'][-1]:.3f}  head {scores['head'][-1]:.3f} {METRIC}",
              flush=True)
    base, head = statistics.median(scores["base"]), statistics.median(scores["head"])
    change = head / base - 1
    print(f"median {METRIC}: base {base:.3f}  head {head:.3f}  ({change:+.1%}, bound -{limit:.0%})")
    if change < -limit:
        print(f"perf gate: FAIL, head is {-change:.1%} below base")
        return 1
    print("perf gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
