#!/usr/bin/env python3
"""dcatch end-to-end benchmark: build, run one workload, or compare.

Run one workload (from the root of a checkout):

    python3 e2ebench/run.py --workload pipeline_trigger --seed 1 \
        --seconds 20 --trace 0 [--save results.jsonl]

builds the library and the e2ebench binary from source (into $CARGO_TARGET_DIR,
default .bench_build), runs the workload, and passes its
output through; the last line is the JSON result.  --trace 1 gives the
per-layer metrics and the layer-share table instead.  --save appends
the result, with its workload and seed, to a JSON-lines file.

Compare two result sets (JSON-lines files written by --save):

    python3 e2ebench/run.py --compare before.jsonl after.jsonl

prints, for each workload and end-to-end metric, each side's median
and quartiles and a verdict against the metric's bound in
BENCHMARK.json.  See e2ebench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while tuning; re-check claims on it

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once and build e2ebench; return its path."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("dcatch sources not found (%s missing)" % required)
    out = os.path.join(build_dir(), "e2ebench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def run(args):
    binary = build()
    work = os.path.join(build_dir(), "e2e-work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            work, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not lines or not lines[-1].startswith("{"):
        fail("e2ebench exited %d without a result" % proc.returncode)
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": json.loads(lines[-1])}
        for line in lines:
            m = re.match(r"passes (\d+), items (\d+), item_ms.tail = "
                         r"p([\d.]+) over", line)
            if m:
                record["passes"] = int(m.group(1))
                record["tail_percentile"] = float(m.group(3))
                record["tail_samples"] = int(m.group(2))
        with open(args.save, "a") as f:
            f.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return proc.returncode


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["result"]["metrics"].items():
                sets.setdefault(record["workload"], {}).setdefault(
                    name, []).append(metric["value"])
    return sets


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def compare(path_a, path_b):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(path_a), load(path_b)
    print("%-17s %-13s %-31s %-31s %s" % (
        "workload", "metric", "A median [q1, q3] spread",
        "B median [q1, q3] spread", "B vs A"))
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = a.get(workload, {}).get(name)
            vb = b.get(workload, {}).get(name)
            if not va or not vb:
                print("%-17s %-13s missing on %s" % (
                    workload, name, "A" if not va else "B"))
                continue
            sa, sb = summary(va), summary(vb)
            change = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
            worse = change if metric["better"] == "lower" else -change
            if max(sa[3], sb[3]) > bound:
                verdict = "unresolved (spread > bound %.0f%%)" % (
                    bound * 100)
            elif worse > bound:
                verdict = "WORSE by %.1f%% (> bound %.0f%%)" % (
                    worse * 100, bound * 100)
                worst = 1
            elif -worse > bound:
                verdict = "better by %.1f%% (> bound)" % (-worse * 100)
            else:
                verdict = "%+.1f%% within bound %.0f%%" % (
                    -worse * 100, bound * 100)
            cell = "%.4g [%.4g, %.4g] %.1f%%"
            print("%-17s %-13s %-31s %-31s %s" % (
                workload, name, cell % (sa[0], sa[1], sa[2], sa[3] * 100),
                cell % (sb[0], sb[1], sb[2], sb[3] * 100), verdict))
    return worst


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d, held-out %d)" % (
                            DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the result to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
