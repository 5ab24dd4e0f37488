#!/usr/bin/env python3
"""Figure identity: every figure, table and ablation binary's --fast
output must match the digests pinned in tests/golden/figures.sha256,
and every deterministic example's stdout those in
tests/golden/examples.sha256.

Runs each bench/ binary (all of bench/*.cc except micro_kernel, the
Google Benchmark engine sweep) with --fast --csv-dir=<tmp>, then takes
a SHA-256 of every CSV it wrote and of its stdout report with the
"csv written to <path>" lines removed (the path is the temp dir).
Runs each example in EXAMPLES with no arguments and takes a SHA-256 of
its stdout.

    figure_identity.py BIN_DIR            # check (ctest figure_identity)
    figure_identity.py BIN_DIR --update   # rewrite both golden files

A change that moves a figure on purpose regenerates the file with
--update in the same commit and names each changed entry.  Digests
compare bytes and were made with GCC 12.2.  If another toolchain (a CI
runner's g++) formats or rounds differently, the fix is a parsed-number
fallback that compares the outputs' numbers at a stated tolerance;
running --update on the tree under test is not a fix, because it would
pin that tree's own output instead of the parent's.
"""

import argparse
import concurrent.futures
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden", "figures.sha256")
EXAMPLES_GOLDEN = os.path.join(REPO, "tests", "golden", "examples.sha256")
EXCLUDED = {"micro_kernel"}
# Every example, run without arguments (trace_replay then replays its
# synthetic traces).
EXAMPLES = ["chain_topologies", "gups_sweep", "qos_private_vaults",
            "quickstart", "thermal_throttle", "trace_replay",
            "workload_playground"]
CSV_LINE = "csv written to "


def binaries():
    names = [os.path.splitext(os.path.basename(p))[0]
             for p in glob.glob(os.path.join(REPO, "bench", "*.cc"))]
    return sorted(n for n in names if n not in EXCLUDED)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_one(bin_dir, name, work):
    """Run one binary; return {entry name: digest}."""
    csv_dir = os.path.join(work, name)
    os.makedirs(csv_dir)
    # The report's flags come from the command line only.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HMCSIM_BENCH_")}
    proc = subprocess.run(
        [os.path.join(bin_dir, name), "--fast", "--csv-dir=" + csv_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            name, proc.returncode, proc.stderr.decode(errors="replace")))
    report = b"".join(
        line for line in proc.stdout.splitlines(keepends=True)
        if not line.startswith(CSV_LINE.encode()))
    out = {name + ".stdout": sha256(report)}
    for path in sorted(glob.glob(os.path.join(csv_dir, "*.csv"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = sha256(fh.read())
    return out


def run_example(bin_dir, name):
    """Run one example; return {entry name: digest of its stdout}."""
    exe = "example_" + name
    proc = subprocess.run([os.path.join(bin_dir, exe)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (
            exe, proc.returncode, proc.stderr.decode(errors="replace")))
    return {exe + ".stdout": sha256(proc.stdout)}


def measure(bin_dir):
    """Return ({figure entry: digest}, {example entry: digest})."""
    figures, examples = {}, {}
    with tempfile.TemporaryDirectory(prefix="figure_identity_") as work:
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_one, bin_dir, n, work)
                       for n in binaries()]
            ex_futures = [pool.submit(run_example, bin_dir, n)
                          for n in EXAMPLES]
            for f in futures:
                figures.update(f.result())
            for f in ex_futures:
                examples.update(f.result())
    return figures, examples


def read_golden(path):
    golden = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                digest, name = line.split()
                golden[name] = digest
    return golden


def write_golden(path, header, digests):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# %s;\n"
                 "# regenerate with scripts/figure_identity.py BIN_DIR "
                 "--update\n" % header)
        for name in sorted(digests):
            fh.write("%s  %s\n" % (digests[name], name))


def check(path, digests):
    """Print every mismatch against the golden file; return their count."""
    golden = read_golden(path)
    bad = []
    for name in sorted(set(golden) | set(digests)):
        if name not in digests:
            bad.append("missing output: " + name)
        elif name not in golden:
            bad.append("no golden digest: " + name)
        elif golden[name] != digests[name]:
            bad.append("changed: " + name)
    for line in bad:
        print(line)
    print("%d of %d outputs match %s" % (
        sum(1 for n in golden if digests.get(n) == golden[n]),
        len(golden), os.path.relpath(path, REPO)))
    return len(bad)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("bin_dir", help="build directory holding the binaries")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this build")
    args = ap.parse_args()

    figures, examples = measure(os.path.abspath(args.bin_dir))
    if args.update:
        write_golden(GOLDEN, "--fast output digests of every bench/ "
                     "figure, table and ablation binary", figures)
        write_golden(EXAMPLES_GOLDEN, "stdout digests of the "
                     "deterministic examples (no arguments)", examples)
        print("wrote %d + %d digests to %s and %s" % (
            len(figures), len(examples), GOLDEN, EXAMPLES_GOLDEN))
        return 0
    bad = check(GOLDEN, figures) + check(EXAMPLES_GOLDEN, examples)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
