#!/usr/bin/env python3
"""A/B performance gate: perfbench on a base tree against a head tree.

    python3 tools/perf_gate.py BASE_TREE HEAD_TREE

For every workload listed in both trees' BENCHMARK.json, runs
`python3 <tree>/perfbench/run.py --workload W --trace 0` PAIRS times per
tree at SECONDS each, alternating which tree goes first. Each tree builds
into its own .bench_build/. Exits 1 if any run fails or reports
"correct": false (a digest mismatch or a failed run), if head's median
sim_insts_per_ref_s is more than MAX_DROP below base's, or if head's
median peak_rss_mb, cpu_ref_s or setup_s is more than MAX_RSS_RISE,
MAX_CPU_RISE or MAX_SETUP_RISE above base's. Each limit is printed with
its workload's result. Nothing is compared against a committed baseline,
so nothing can go stale.

The constants come from same-commit spread. Two copies of one commit on a
shared 4-CPU x86-64 host, two gate runs: medians differed by at most 1.4%,
and single runs spanned up to 11% (suite_mpppb 4.39e7..4.92e7). MAX_DROP
sits above that span, so even medians at opposite extremes pass, while a
25% slowdown fails with 13 points to spare.

Peak RSS is steadier. Same host, 52 runs of two commits (10-pair A/Bs of
both workloads and one same-commit gate run): the runs of one commit on
one workload spanned at most 7.1% (suite_lru_stream 198.6..212.8 MB), and
the same-commit gate's medians differed by 0.7% and 0.1%. MAX_RSS_RISE
sits about twice above that span. A head that keeps a copy of every
trace it generates read +450% (suite_mpppb) and +623% (suite_lru_stream),
and fails it.

The cpu_ref_s and setup_s limits come from 10 runs each of a parent and
a child commit (suite_mpppb, 45 s, alternating pairs on a shared 4-CPU
Xeon host). Within each commit, every way of drawing two disjoint sets
of three runs was compared by median, as the gate compares.
cpu_ref_s medians differed by at most 11.6% (99th percentile 8.5%), so
MAX_CPU_RISE sits above the largest. setup_s is the noisiest metric
(single runs spanned up to 44%, medians of three up to 32.8%, 99th
percentile 31.6%); MAX_SETUP_RISE is the benchmark's own 0.25 bound,
which a same-commit gate exceeds in about 3% of draws on the noisier
commit. A head that generates the suite_mpppb traces twice per setup
read +86.6% setup_s (and +27.1% peak_rss_mb), and fails it.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SECONDS = 15
MAX_DROP = 0.12
MAX_RSS_RISE = 0.15
MAX_CPU_RISE = 0.15
MAX_SETUP_RISE = 0.25
# (metric, limit, higher is better), judged in this order.
GATES = (
    ("sim_insts_per_ref_s", MAX_DROP, True),
    ("peak_rss_mb", MAX_RSS_RISE, False),
    ("cpu_ref_s", MAX_CPU_RISE, False),
    ("setup_s", MAX_SETUP_RISE, False),
)


def workloads(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(tree, workload):
    """One perfbench run; returns (correct, {metric: value}, empty if it failed)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--trace", "0", "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False, {}
    out = json.loads(lines[-1])
    return out["correct"], {m: out["metrics"][m]["value"] for m, _, _ in GATES}


def judge(workload, values, metric, limit, higher_is_better):
    """Compare head's median to base's; returns True if within limit."""
    base = statistics.median(v[metric] for v in values["base"])
    head = statistics.median(v[metric] for v in values["head"])
    change = head / base - 1.0
    passed = change >= -limit if higher_is_better else change <= limit
    print("%-18s %-19s median base %.4g head %.4g: %+.1f%% (limit %s%.0f%%) %s"
          % (workload, metric, base, head, 100 * change,
             "-" if higher_is_better else "+", 100 * limit,
             "ok" if passed else "REGRESSED"), flush=True)
    return passed


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
                print("%-18s %s pair %d: correct=%s %s"
                      % (w, side, i, correct,
                         " ".join("%s=%s" % kv for kv in value.items())), flush=True)
                if not correct:
                    ok = False
                if value:
                    values[side].append(value)
        if not values["base"] or not values["head"]:
            continue  # every run on one side failed; ok is already False
        for metric, limit, higher_is_better in GATES:
            ok = judge(w, values, metric, limit, higher_is_better) and ok
    print("perf gate: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
