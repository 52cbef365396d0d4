#!/usr/bin/env python3
"""A/B performance gate: perfbench on a base tree against a head tree.

    python3 tools/perf_gate.py BASE_TREE HEAD_TREE

For every workload listed in both trees' BENCHMARK.json, runs
`python3 <tree>/perfbench/run.py --workload W --trace 0` PAIRS times per
tree at SECONDS each, alternating which tree goes first. Each tree builds
into its own .bench_build/. Exits 1 if any run fails or reports
"correct": false (a digest mismatch or a failed run), or if head's median
sim_insts_per_ref_s is more than MAX_DROP below base's. Nothing is
compared against a committed baseline, so nothing can go stale.

The constants come from same-commit spread. Two copies of one commit on a
shared 4-CPU x86-64 host, two gate runs: medians differed by at most 1.4%,
and single runs spanned up to 11% (suite_mpppb 4.39e7..4.92e7). MAX_DROP
sits above that span, so even medians at opposite extremes pass, while a
25% slowdown fails with 13 points to spare.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SECONDS = 15
MAX_DROP = 0.12
METRIC = "sim_insts_per_ref_s"


def workloads(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(tree, workload):
    """One perfbench run; returns (correct, metric value or None)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--trace", "0", "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False, None
    out = json.loads(lines[-1])
    return out["correct"], out["metrics"][METRIC]["value"]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_gate.py BASE_TREE HEAD_TREE")
    trees = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    common = [w for w in workloads(trees["head"]) if w in workloads(trees["base"])]
    ok = bool(common)
    for w in common:
        values = {"base": [], "head": []}
        for i in range(PAIRS):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                correct, value = run(trees[side], w)
                print("%-18s %s pair %d: correct=%s %s=%s"
                      % (w, side, i, correct, METRIC, value), flush=True)
                if not correct:
                    ok = False
                if value is not None:
                    values[side].append(value)
        if not values["base"] or not values["head"]:
            continue  # every run on one side failed; ok is already False
        base, head = statistics.median(values["base"]), statistics.median(values["head"])
        change = head / base - 1.0
        passed = change >= -MAX_DROP
        ok = ok and passed
        print("%-18s median base %.4g head %.4g: %+.1f%% (limit -%.0f%%) %s"
              % (w, base, head, 100 * change, 100 * MAX_DROP, "ok" if passed else "REGRESSED"),
              flush=True)
    print("perf gate: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
