#!/usr/bin/env python3
"""Figure identity: every figure, table and ablation binary's --fast
output must match the digests pinned in tests/golden/figures.sha256.

Runs each bench/ binary (all of bench/*.cc except micro_kernel, the
Google Benchmark engine sweep) with --fast --csv-dir=<tmp>, then takes
a SHA-256 of every CSV it wrote and of its stdout report with the
"csv written to <path>" lines removed (the path is the temp dir).

    figure_identity.py BIN_DIR            # check (ctest figure_identity)
    figure_identity.py BIN_DIR --update   # rewrite the golden file

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
EXCLUDED = {"micro_kernel"}
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


def measure(bin_dir):
    digests = {}
    with tempfile.TemporaryDirectory(prefix="figure_identity_") as work:
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_one, bin_dir, n, work)
                       for n in binaries()]
            for f in futures:
                digests.update(f.result())
    return digests


def read_golden(path):
    golden = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                digest, name = line.split()
                golden[name] = digest
    return golden


def write_golden(path, digests):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# --fast output digests of every bench/ figure, table "
                 "and ablation binary;\n"
                 "# regenerate with scripts/figure_identity.py BIN_DIR "
                 "--update\n")
        for name in sorted(digests):
            fh.write("%s  %s\n" % (digests[name], name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("bin_dir", help="build directory holding the binaries")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this build")
    args = ap.parse_args()

    digests = measure(os.path.abspath(args.bin_dir))
    if args.update:
        write_golden(GOLDEN, digests)
        print("wrote %d digests to %s" % (len(digests), GOLDEN))
        return 0

    golden = read_golden(GOLDEN)
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
        len(golden), os.path.relpath(GOLDEN, REPO)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
