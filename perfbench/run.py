#!/usr/bin/env python3
"""Build and run the simulator benchmark, check its outputs, print one result.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite_mpppb --seed 0 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the simulator sources
it compiles from src/) into .bench_build/perfbench; later runs only
re-check the build. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
(spans also written to .bench_build/spans/) under --trace 1.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_mpppb", "suite_lru_stream", "mix4_campaign")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir, jobs):
    """Configure once, then (re)build the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runner", "experiment_runner.hpp")):
        die("simulator sources not found under %s/src; run from a source checkout" % ROOT, 2)
    if shutil.which("cmake") is None:
        die("cmake not found on PATH", 2)
    pdir = os.path.join(bdir, "perfbench")
    os.makedirs(pdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(pdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", pdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", pdir, "--target", "perfbench", "-j", str(jobs)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build step failed: %s (log: %s)" % (" ".join(cmd), log_path), 1)
    return os.path.join(pdir, "perfbench")


def source_identity():
    """git SHA when the checkout is a repository, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "unknown (no git; sources sha256 %s)" % h.hexdigest()[:16]


def digest_failures(out, expected):
    """Batches whose report digest is wrong: against the committed digest
    when one applies, else against the first untraced batch."""
    want = expected or (out["digests"][0] if out["digests"] else None)
    return sum(1 for d in out["digests"] + out["traced_digests"] if d != want)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker threads (default min(4, nproc))")
    args = ap.parse_args()

    nproc = host_cpus()
    jobs = args.jobs or min(4, nproc)
    if jobs > nproc:
        ap.error("--jobs %d exceeds the %d CPUs available" % (jobs, nproc))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_root()
    binary = build(bdir, jobs)
    work = os.path.join(bdir, "work-%d" % os.getpid())
    spans = os.path.join(bdir, "spans", "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--work-dir", work, "--git-sha", source_identity()]
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("benchmark binary failed with exit code %d" % proc.returncode, 1)
    out = json.loads(lines[-1])

    with open(os.path.join(HERE, "digests.json")) as f:
        committed = json.load(f)
    canonical = args.seed == 0
    expected = committed[args.workload] if canonical else None
    mismatches = digest_failures(out, expected)
    failed = out["failed_runs"] + mismatches + len(out["checks"])
    attempted = out["attempted"]

    print("# context: " + json.dumps(out["context"]))
    for e in out["errors"] + out["checks"]:
        print("# error: " + e)
    print("# digest: %s (%s; %d mismatched batch(es))"
          % (out["digests"][0], "committed digest checked" if canonical
             else "non-default seed: batches checked against each other", mismatches))
    if args.trace:
        print("# spans: " + os.path.relpath(spans, ROOT))
    for m in out["metrics"]:
        print("%s %-28s %.6g %s" % (args.workload, m["name"], m["value"], m["unit"]))
    print("%s %-28s %.6g ratio (%d/%d)" % (args.workload, "failed_frac",
                                         failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": m["value"], "unit": m["unit"]}
                    for m in out["metrics"]},
    }))


if __name__ == "__main__":
    main()
