#!/usr/bin/env python3
"""Base-vs-head performance gate over perfbench results.

    python3 perfbench/run.py --workload W > base.out    # in the base tree
    python3 perfbench/run.py --workload W > head.out    # in the head tree
    python3 scripts/perf_gate.py base.out head.out

Each file holds the standard output of one `perfbench/run.py
--workload W` run; only its last non-empty line, the JSON summary with
the keys correct, attempted, failed and metrics, is read.  The gated
metrics are the `end_to_end` list of the repository's BENCHMARK.json:
each entry's `name`, `better` (higher|lower) and relative `bound`.
The gate fails when, for any of them, head is worse than base by more
than the bound or head does not report the metric at all.  It also
fails when head reports `correct: false` or more failed runs than
base.  A metric base does not report (it predates the metric) is
listed but not gated.

Exit codes: 0 pass, 1 regression, 2 unreadable input.
"""

import argparse
import json
import math
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_summary(path):
    """The JSON object on the last non-empty line of @p path."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: empty" % path)
    doc = json.loads(lines[-1])
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"),
                                                   dict):
        raise ValueError("%s: last line is not a perfbench summary" % path)
    return doc


def metric_value(doc, name):
    """The finite numeric value of metric @p name, or None."""
    m = doc["metrics"].get(name)
    value = m.get("value") if isinstance(m, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value if math.isfinite(value) else None


def worse_by(better, base, head):
    """How much worse head is than base, relative to base (<= 0 when
    head is as good or better).  Against a zero base any worsening is
    infinitely large."""
    delta = head - base if better == "lower" else base - head
    if base:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def gate(base, head, end_to_end):
    """Return (ok, report lines) for one workload's base/head pair."""
    ok = True
    lines = []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        b, h = metric_value(base, name), metric_value(head, name)
        if h is None:
            ok = False
            lines.append("FAIL %s: missing or non-numeric in head" % name)
            continue
        if b is None:
            lines.append("skip %s: base does not report it (head %g)"
                         % (name, h))
            continue
        worse = worse_by(better, b, h)
        verdict = "FAIL" if worse > bound else "ok  "
        ok = ok and worse <= bound
        lines.append("%s %s: base %g, head %g, %+.1f%% worse "
                     "(bound %.0f%%, %s is better)"
                     % (verdict, name, b, h, 100 * worse, 100 * bound,
                        better))
    if head.get("correct") is not True:
        ok = False
        lines.append("FAIL correct: head reports %r" % head.get("correct"))
    base_failed, head_failed = base.get("failed", 0), head.get("failed", 0)
    if head_failed > base_failed:
        ok = False
        lines.append("FAIL failed runs: base %d, head %d"
                     % (base_failed, head_failed))
    return ok, lines


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    ap.add_argument("base", help="base-side perfbench stdout")
    ap.add_argument("head", help="head-side perfbench stdout")
    args = ap.parse_args(argv)

    try:
        with open(BENCHMARK, encoding="utf-8") as fh:
            end_to_end = json.load(fh)["end_to_end"]
        base = load_summary(args.base)
        head = load_summary(args.head)
    except (OSError, ValueError, KeyError) as exc:
        print("perf_gate: %s" % exc, file=sys.stderr)
        return 2

    ok, lines = gate(base, head, end_to_end)
    for line in lines:
        print(line)
    print("perf_gate: %s" % ("pass" if ok else "regression"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
