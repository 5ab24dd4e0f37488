#!/usr/bin/env python3
"""hmcsim benchmark: build the simulator from source, run a workload,
print its metrics.

    python3 perfbench/run.py                         # every workload
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes a span
file.  Result and span files land in .bench_build/results/.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")

WORKLOADS = ["gups128_cube1", "stream128_vault0", "ring8_rw64"]
DEFAULT_SEED = 1
# Never used while tuning the benchmark; check claims on it too.
HELD_OUT_SEED = 20181
# Host seconds one workload measures: the run_seconds of BENCHMARK.json,
# which benchmark harnesses pass as --seconds.  The command measures
# each workload it runs this long.
SECONDS_PER_WORKLOAD = 30
# --seconds above this would not leave a traced run (measured window,
# then layer timings and ablations) inside RUN_TIMEOUT_S.
MAX_SECONDS_PER_WORKLOAD = 60
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure and build @target; False (with the log on stderr) on
    failure, e.g. when the simulator sources are absent."""
    env = dict(os.environ, CCACHE_DISABLE="1")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=env,
                                  timeout=700)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log("perfbench: build failed: %s" % exc)
            return False
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            return False
    return True


def commit():
    """HEAD of the checkout when it is itself a git work tree (git is not
    asked otherwise, so it never searches the directories above)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        return head.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources: provenance that
    holds without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns its result document or None."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (workload, seed, trace))
    out = stem + ".json"
    cmd = [os.path.join(BUILD, "hmcbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out,
           "--commit", commit(), "--source-digest", source_digest()]
    if trace:
        cmd += ["--spans", stem + "-spans.json"]
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0 or not os.path.exists(out):
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    with open(out) as f:
        return json.load(f)


def print_metrics(prefix, doc):
    for name, m in doc["metrics"].items():
        print("  %s%-40s %16.6g %s" % (prefix, name, m["value"], m["unit"]))
    print("  %sruns %d, failed_runs %d" % (prefix, doc["runs"],
                                             doc["failed_runs"]))


def compare(old_path, new_path):
    """Name every simulated statistic that differs; exit 1 if any."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("workload", "seed"):
        a, b = old["provenance"][key], new["provenance"][key]
        if a != b:
            print("warning: %s differs (%s vs %s); statistics are not "
                  "comparable" % (key, a, b))
    a, b = old["sim_stats"], new["sim_stats"]
    changed = 0
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            changed += 1
            print("changed %s: %s -> %s" % (name, a.get(name, "absent"),
                                             b.get(name, "absent")))
    print("%d of %d simulated statistics changed; digest %s -> %s"
          % (changed, len(set(a) | set(b)), old["digest"], new["digest"]))
    return 1 if changed or old["digest"] != new["digest"] else 0


def selftest():
    if not build("perfbench_tests"):
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=int, default=SECONDS_PER_WORKLOAD,
                    help="host seconds each workload measures (default %d, "
                    "at most %d)" % (SECONDS_PER_WORKLOAD,
                                     MAX_SECONDS_PER_WORKLOAD))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="diff the simulated statistics of two result files")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= MAX_SECONDS_PER_WORKLOAD:
        ap.error("--seconds must be from 1 to %d" % MAX_SECONDS_PER_WORKLOAD)
    if not build("hmcbench"):
        return 1

    workloads = [args.workload] if args.workload else WORKLOADS
    docs = {}
    for w in workloads:
        doc = run_workload(w, args.seed, args.seconds, args.trace)
        if doc is None:
            return 1
        docs[w] = doc
        print_metrics("" if args.workload else w + ".", doc)

    metrics = {}
    for w, doc in docs.items():
        prefix = "" if args.workload else w + "."
        for name, m in doc["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["runs"] for d in docs.values()),
        "failed": sum(d["failed_runs"] for d in docs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
