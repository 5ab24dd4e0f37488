#!/usr/bin/env python3
"""Determinism linter for the hmcsim source tree.

The simulator promises bit-identical results for identical configs --
that promise is what makes the figure CSVs and the benchmark's result
digests regression-testable.  This linter statically rejects the
constructs that historically break that promise:

  wall-clock        std::chrono::{system,steady,high_resolution}_clock,
                    time(), gettimeofday, clock_gettime, localtime, ...
                    anywhere under src/, observability included: the
                    simulator only ever reads Kernel::now().  Host time
                    is measured from outside src/ (perfbench/).
  rng               rand()/srand(), std::random_device, std::mt19937
                    and friends, anywhere under src/.  SplitMix64
                    (common/rng.h) is the only sanctioned RNG: seeded,
                    portable, and stable across libstdc++ versions.
  unordered-iter    iteration over std::unordered_{map,set,...} in
                    order-sensitive files (anything that schedules
                    events or lives in the core simulation dirs).
                    Unordered iteration order varies across libstdc++
                    versions and ASLR seeds, so any event schedule or
                    stats mutation derived from it diverges.
  std-function      std::function in src/sim/ and src/hmc/ hot paths.
                    It heap-allocates captures > 16 B and malloc order
                    then couples simulated behavior to allocator state;
                    use InlineEvent / InlineFunction instead.
  naked-packet-new  new HmcPacket / make_shared<HmcPacket> /
                    malloc(sizeof(HmcPacket)) outside the pool-backed
                    factory (hmc/packet.cc).  Bypassing the pool skews
                    the allocator telemetry and dodges the pool's
                    lifetime diagnostics.

Waivers: a finding is suppressed by a comment on the same line or the
immediately preceding line:

    // hmcsim-lint: allow(<rule>) <reason -- required>

Baseline: a checked-in shrink-only baseline (default
scripts/lint/determinism_baseline.txt) lists historical (rule, file)
pairs that predate the linter.  New findings beyond the baseline fail;
baseline entries that no longer fire ALSO fail (the baseline may only
shrink -- regenerate with --write-baseline after fixing).

Engines: --engine=libclang tokenizes each TU with the clang python
bindings (comments and string literals dropped by the lexer, include
flags taken from compile_commands.json); --engine=regex runs the same
rules over comment/string-stripped text with no dependencies beyond
the standard library.  --engine=auto (default) prefers libclang and
falls back to regex -- the container this repo builds in has no clang,
so regex is the everyday engine and libclang runs in CI.

Exit codes: 0 clean, 1 findings or stale baseline, 2 usage/internal.
"""

import argparse
import json
import os
import re
import sys

RULES = ("wall-clock", "rng", "unordered-iter", "std-function",
         "naked-packet-new")

# ---------------------------------------------------------------------------
# Rule patterns (applied to comment/string-stripped code lines)
# ---------------------------------------------------------------------------

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system|steady|high_resolution)_clock"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\b(?:localtime|gmtime|mktime)(?:_r|_s)?\s*\("
    r"|std::time\s*\("
    r"|(?<![A-Za-z0-9_.:])time\s*\(\s*(?:NULL|nullptr|0|&)"
)

RNG_RE = re.compile(
    r"(?<![A-Za-z0-9_])s?rand\s*\("
    r"|std::random_device"
    r"|std::(?:mt19937|minstd_rand|default_random_engine|ranlux)"
)

STD_FUNCTION_RE = re.compile(r"std::function\s*<")

NAKED_PACKET_RE = re.compile(
    r"\bnew\s+HmcPacket\b"
    r"|make_shared\s*<\s*HmcPacket\b"
    r"|\bmalloc\s*\(\s*sizeof\s*\(\s*HmcPacket\b"
)

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<")
# Variable name of an unordered declaration: last identifier before
# ';', '=', '{' or '(' on the declaration statement.
UNORDERED_VAR_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>\s*"
    r"(?:&|\*)?\s*([A-Za-z_]\w*)")

WAIVER_RE = re.compile(
    r"hmcsim-lint:\s*allow\(([a-z][a-z-]*)\)\s*(\S.*)?$")

# The pool-backed packet factory and the pool itself.
PACKET_FACTORY_FILES = {
    os.path.join("src", "hmc", "packet.cc"),
    os.path.join("src", "hmc", "packet_pool.h"),
    os.path.join("src", "hmc", "packet_pool.cc"),
}

STD_FUNCTION_DIRS = (os.path.join("src", "sim") + os.sep,
                     os.path.join("src", "hmc") + os.sep)

# Dirs whose files are order-sensitive even without a visible
# schedule() call (they mutate stats / drive the event core).
ORDER_SENSITIVE_DIRS = tuple(
    os.path.join("src", d) + os.sep
    for d in ("sim", "hmc", "chain", "noc", "host"))


class Finding:
    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # repo-relative, forward slashes
        self.line = line
        self.message = message

    def key(self):
        return (self.rule, self.path)

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving line
    structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1:])
                if m:
                    closer = ")%s\"" % m.group(1)
                    j = text.find(closer, i)
                    j = n if j == -1 else j + len(closer)
                    out.extend(ch if ch == "\n" else " "
                               for ch in text[i:j])
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated; bail at EOL
                j += 1
            j = min(j + 1, n)
            out.append(quote)
            out.extend(ch if ch == "\n" else " " for ch in text[i + 1:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_waivers(raw_lines):
    """Map line number -> set of waived rules.  A waiver on line N
    covers findings on N and N+1 (comment-above style).  A waiver with
    no reason is itself an error (returned separately)."""
    waived = {}
    errors = []
    for idx, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULES:
            errors.append((idx, "unknown lint rule '%s' in waiver" % rule))
            continue
        if not reason or not reason.strip():
            errors.append((idx, "waiver for '%s' needs a reason" % rule))
            continue
        waived.setdefault(idx, set()).add(rule)
        waived.setdefault(idx + 1, set()).add(rule)
    return waived, errors


def is_order_sensitive(rel, stripped):
    if any(rel.startswith(d) for d in ORDER_SENSITIVE_DIRS):
        return True
    return re.search(r"\bschedule(?:In|At)?\s*\(", stripped) is not None


def scan_stripped(rel, stripped, raw_lines):
    """Run every rule over one file's stripped text; yield Findings
    (before waiver filtering)."""
    findings = []
    lines = stripped.split("\n")

    std_function_scoped = any(rel.startswith(d) for d in STD_FUNCTION_DIRS)
    packet_factory = rel in {p.replace(os.sep, "/") for p in
                             PACKET_FACTORY_FILES}
    order_sensitive = is_order_sensitive(rel, stripped)

    unordered_vars = set(UNORDERED_VAR_RE.findall(stripped))

    for idx, line in enumerate(lines, start=1):
        if WALL_CLOCK_RE.search(line):
            findings.append(Finding(
                "wall-clock", rel, idx,
                "wall-clock access; simulation code must read "
                "Kernel::now()"))
        if RNG_RE.search(line):
            findings.append(Finding(
                "rng", rel, idx,
                "non-deterministic RNG; use SplitMix64 (common/rng.h)"))
        if std_function_scoped and STD_FUNCTION_RE.search(line):
            findings.append(Finding(
                "std-function", rel, idx,
                "std::function on a hot path; use InlineEvent / "
                "InlineFunction (common/inline_function.h)"))
        if not packet_factory and NAKED_PACKET_RE.search(line):
            findings.append(Finding(
                "naked-packet-new", rel, idx,
                "HmcPacket allocated outside the pool-backed factory "
                "(hmc/packet.cc)"))
        if order_sensitive and unordered_vars:
            m = re.search(r"for\s*\([^)]*:\s*(?:this->)?([A-Za-z_]\w*)\s*\)",
                          line)
            if m and m.group(1) in unordered_vars:
                findings.append(Finding(
                    "unordered-iter", rel, idx,
                    "iteration over unordered container '%s' in an "
                    "order-sensitive file; use std::map/std::vector or "
                    "sort first" % m.group(1)))
            m = re.search(r"([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(\)", line)
            if m and m.group(1) in unordered_vars:
                findings.append(Finding(
                    "unordered-iter", rel, idx,
                    "iterator over unordered container '%s' in an "
                    "order-sensitive file" % m.group(1)))
    return findings


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

def lint_file_regex(path, rel):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit("determinism_lint: cannot read %s: %s"
                         % (path, exc))
    raw_lines = text.split("\n")
    waived, waiver_errors = parse_waivers(raw_lines)
    stripped = strip_comments_and_strings(text)
    findings = scan_stripped(rel, stripped, raw_lines)
    kept = [f for f in findings
            if f.rule not in waived.get(f.line, set())]
    for lineno, msg in waiver_errors:
        kept.append(Finding("waiver", rel, lineno, msg))
    return kept


def try_import_libclang():
    try:
        from clang import cindex  # noqa: F401
        return cindex
    except ImportError:
        return None


def lint_file_libclang(cindex, index, path, rel, compile_args):
    """Tokenize with clang's lexer so comments/strings are dropped by
    the real frontend, then reuse the shared rule scan on the
    reconstructed token text."""
    tu = index.parse(path, args=compile_args,
                     options=cindex.TranslationUnit
                     .PARSE_DETAILED_PROCESSING_RECORD)
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    raw_lines = text.split("\n")
    nlines = len(raw_lines)
    code_lines = [""] * nlines
    for tok in tu.cursor.get_tokens():
        if tok.kind == cindex.TokenKind.COMMENT:
            continue
        if (tok.kind == cindex.TokenKind.LITERAL
                and tok.spelling.startswith(('"', "'", 'R"'))):
            continue
        line = tok.location.line
        if 1 <= line <= nlines:
            code_lines[line - 1] += tok.spelling + " "
    waived, waiver_errors = parse_waivers(raw_lines)
    findings = scan_stripped(rel, "\n".join(code_lines), raw_lines)
    kept = [f for f in findings
            if f.rule not in waived.get(f.line, set())]
    for lineno, msg in waiver_errors:
        kept.append(Finding("waiver", rel, lineno, msg))
    return kept


def compile_args_for(compile_commands, path):
    entry = compile_commands.get(os.path.abspath(path))
    if not entry:
        return ["-std=c++17"]
    args = []
    skip = False
    for a in entry:
        if skip:
            skip = False
            continue
        if a in ("-c", "-o"):
            skip = a == "-o"
            continue
        if a.startswith(("-I", "-D", "-std=", "-isystem")):
            args.append(a)
    return args or ["-std=c++17"]


def load_compile_commands(path):
    cmds = {}
    if not path or not os.path.exists(path):
        return cmds
    try:
        with open(path, encoding="utf-8") as fh:
            for entry in json.load(fh):
                f = os.path.abspath(
                    os.path.join(entry.get("directory", "."),
                                 entry["file"]))
                if "arguments" in entry:
                    cmds[f] = entry["arguments"]
                elif "command" in entry:
                    cmds[f] = entry["command"].split()
    except (OSError, ValueError, KeyError) as exc:
        print("determinism_lint: ignoring unreadable compile commands "
              "(%s)" % exc, file=sys.stderr)
    return cmds


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def load_baseline(path):
    entries = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[0] not in RULES:
                raise SystemExit(
                    "determinism_lint: malformed baseline line: %r"
                    % line)
            entries.add((parts[0], parts[1]))
    return entries


def write_baseline(path, findings):
    keys = sorted({f.key() for f in findings if f.rule in RULES})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hmcsim determinism-lint baseline -- shrink-only.\n"
                 "# One historical '<rule>\\t<file>' pair per line; "
                 "regenerate with --write-baseline.\n")
        for rule, rel in keys:
            fh.write("%s\t%s\n" % (rule, rel))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(src_root, explicit):
    if explicit:
        return [(p, os.path.relpath(p, os.path.dirname(
            os.path.abspath(src_root))).replace(os.sep, "/"))
            for p in explicit]
    files = []
    parent = os.path.dirname(os.path.abspath(src_root))
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith((".h", ".hh", ".hpp", ".cc", ".cpp",
                              ".cxx")):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, parent).replace(os.sep, "/")
                files.append((full, rel))
    files.sort(key=lambda t: t[1])
    return files


def main(argv):
    ap = argparse.ArgumentParser(
        prog="determinism_lint.py",
        description="hmcsim determinism linter (see module docstring)")
    ap.add_argument("--src", default="src",
                    help="source root to lint (default: src)")
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(
                        os.path.abspath(__file__)),
                        "determinism_baseline.txt"),
                    help="shrink-only baseline file")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline (report everything)")
    ap.add_argument("--engine", choices=("auto", "regex", "libclang"),
                    default="auto")
    ap.add_argument("--compile-commands",
                    default=os.path.join("build",
                                         "compile_commands.json"),
                    help="compile_commands.json for the libclang engine")
    ap.add_argument("files", nargs="*",
                    help="explicit files (default: walk --src)")
    args = ap.parse_args(argv)

    if not args.files and not os.path.isdir(args.src):
        print("determinism_lint: source root '%s' not found" % args.src,
              file=sys.stderr)
        return 2

    cindex = None
    if args.engine in ("auto", "libclang"):
        cindex = try_import_libclang()
        if cindex is None:
            if args.engine == "libclang":
                print("determinism_lint: --engine=libclang requested "
                      "but python clang bindings are unavailable",
                      file=sys.stderr)
                return 2
            print("determinism_lint: libclang unavailable, using the "
                  "regex engine", file=sys.stderr)

    files = collect_files(args.src, args.files)
    findings = []
    if cindex is not None:
        cmds = load_compile_commands(args.compile_commands)
        try:
            index = cindex.Index.create()
        except cindex.LibclangError as exc:
            if args.engine == "libclang":
                print("determinism_lint: libclang failed to load: %s"
                      % exc, file=sys.stderr)
                return 2
            cindex = None
            print("determinism_lint: libclang failed to load, using "
                  "the regex engine", file=sys.stderr)
    for full, rel in files:
        if cindex is not None:
            findings.extend(lint_file_libclang(
                cindex, index, full, rel,
                compile_args_for(cmds, full)))
        else:
            findings.extend(lint_file_regex(full, rel))

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print("determinism_lint: wrote %d baseline entr%s to %s"
              % (len({f.key() for f in findings}),
                 "y" if len({f.key() for f in findings}) == 1 else "ies",
                 args.baseline))
        return 0

    baseline = set() if args.no_baseline else load_baseline(args.baseline)
    current_keys = {f.key() for f in findings if f.rule in RULES}
    waiver_problems = [f for f in findings if f.rule == "waiver"]
    new = [f for f in findings
           if f.rule in RULES and f.key() not in baseline]
    stale = sorted(baseline - current_keys)

    status = 0
    for f in sorted(new, key=lambda f: (f.path, f.line, f.rule)):
        print(f)
        status = 1
    for f in waiver_problems:
        print(f)
        status = 1
    for rule, rel in stale:
        print("%s: [baseline] stale entry '%s' -- the finding is gone; "
              "shrink the baseline (--write-baseline)" % (rel, rule))
        status = 1
    if status == 0:
        suppressed = len(current_keys & baseline)
        msg = "determinism_lint: clean (%d files)" % len(files)
        if suppressed:
            msg += ", %d baselined finding%s remain" % (
                suppressed, "" if suppressed == 1 else "s")
        print(msg)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
