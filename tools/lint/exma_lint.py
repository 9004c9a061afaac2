#!/usr/bin/env python3
"""exma-lint: fast checks for project invariants clang-tidy can't express.

Seven rules, each born from a convention an earlier PR established and
that code review alone won't keep enforced:

  bare-assert        src/**.{hh,cc} must not use bare assert() or
                     include <cassert>/<assert.h>. Release builds keep
                     exma_assert; per-symbol hot paths use exma_dassert
                     (Debug-only, PR 3 convention). A bare assert
                     silently vanishes under NDEBUG *and* dodges the
                     panic handler's file/line formatting.

  bench-json         bench/bench_*.cc harnesses must join the --json
                     convention (bench::init, bench::jsonDestination,
                     or the bench_gbench_main.hh entry point), so every
                     harness can feed BENCH_*.json artifacts and the
                     bench-regression gate.

  concurrency-label  gtest suites that exercise threaded machinery
                     (ThreadPool, parallelFor, BatchSearcher, the
                     route/shard serving stack, a pool-parallel
                     KmerOccTable build, raw std::thread/std::async)
                     must carry the `concurrency` ctest LABEL in
                     tests/CMakeLists.txt — the TSan CI job runs
                     `ctest -L concurrency`, so a missing label means a
                     threaded suite is never sanitized.

  no-naked-future-get  a future .get() in src/route/ or src/fault/
                     (receiver named fut/futs/futures/...) must be
                     preceded within a few lines by a wait_for: the
                     serving tier's futures resolve from worker threads
                     that can die or hang, so every get must sit behind
                     an observed-ready / deadline-bounded wait, never
                     block unconditionally.

  mutex-annotations  src/** must not declare std::mutex (or friends),
                     the raw std lock adapters, or a raw
                     std::condition_variable outside
                     common/thread_annotations.hh. Shared state is an
                     exma::Mutex with EXMA_GUARDED_BY members locked
                     via exma::MutexLock, and waits go through
                     exma::CondVar (which takes the MutexLock
                     directly), so Clang's -Wthread-safety can prove
                     every access and the blocked-under-lock analyzer
                     can recognize every wait; a bare std::mutex or cv
                     is invisible to both.

  analyze-allow-reason  every `// analyze: allow(<pass>, <reason>)`
                     suppression for tools/analyze/exma_analyze.py
                     must name a real pass and carry a non-empty
                     reason. A reason-less allow is an unreviewable
                     mute; a typo'd pass name suppresses nothing and
                     rots silently.

  ondisk-pod-assert  every writeArray<T> / viewArray<T> call site (the
                     persistent .exma.* format, src/io/format.hh) must
                     static_assert sizeof(T) and
                     std::is_trivially_copyable_v<T> in the same file.
                     The arrays are mmap'd back and used in place, so a
                     silent struct-layout change (a reordered member, a
                     new field, a packing change) would reinterpret old
                     files as garbage; the paired asserts turn that
                     into a compile error at the write/read site,
                     forcing the author to bump kFormatVersion.

Usage:
    python3 tools/lint/exma_lint.py [--root DIR] [--rule NAME ...]
                                    [--json FILE] [--list-rules]

Exit status: 0 clean, 1 findings, 2 usage error.
Run directly or via CTest (lint.exma_lint); unit tests live in
tools/lint/test_exma_lint.py (no pytest dependency).
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------


class Finding:
    """One lint violation, formatted like a compiler diagnostic."""

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)

    def to_dict(self):
        return {"path": self.path, "line": self.line,
                "rule": self.rule, "message": self.message}


def strip_comments_and_strings(text):
    """Blank out //, /* */ comments and string/char literals, keeping
    newlines so line numbers survive. Regex-lite: good enough for this
    codebase's conventional C++ (no raw strings with embedded quotes,
    no trigraphs)."""

    out = []
    i = 0
    n = len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
            elif (mode == "string" and c == '"') or \
                    (mode == "char" and c == "'"):
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def iter_matches(pattern, stripped_text):
    """Yield (line_number, match) for a regex over stripped text."""
    for m in re.finditer(pattern, stripped_text):
        yield stripped_text.count("\n", 0, m.start()) + 1, m


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def cxx_files_under(root, subdir):
    """Sorted repo-relative paths of .hh/.cc files below root/subdir."""
    result = []
    top = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(top):
        for name in filenames:
            if name.endswith((".hh", ".cc")):
                full = os.path.join(dirpath, name)
                result.append(os.path.relpath(full, root))
    return sorted(result)


# --------------------------------------------------------------------------
# Rule: bare-assert
# --------------------------------------------------------------------------

BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
CASSERT_RE = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')


def check_bare_assert(root):
    findings = []
    for rel in cxx_files_under(root, "src"):
        stripped = strip_comments_and_strings(
            read_text(os.path.join(root, rel)))
        for line, _m in iter_matches(CASSERT_RE, stripped):
            findings.append(Finding(
                rel, line, "bare-assert",
                "<cassert> include in src/; use common/logging.hh "
                "(exma_assert / exma_dassert) instead"))
        for line, _m in iter_matches(BARE_ASSERT_RE, stripped):
            findings.append(Finding(
                rel, line, "bare-assert",
                "bare assert() in src/; use exma_assert (kept in "
                "release) or exma_dassert (Debug-only hot path)"))
    return findings


# --------------------------------------------------------------------------
# Rule: bench-json
# --------------------------------------------------------------------------

BENCH_JSON_MARKERS = (
    "bench::init",
    "jsonDestination",
    "bench_gbench_main.hh",
)


def check_bench_json(root):
    findings = []
    bench_dir = os.path.join(root, "bench")
    if not os.path.isdir(bench_dir):
        return findings
    for name in sorted(os.listdir(bench_dir)):
        if not (name.startswith("bench_") and name.endswith(".cc")):
            continue
        rel = os.path.join("bench", name)
        text = read_text(os.path.join(root, rel))
        if not any(marker in text for marker in BENCH_JSON_MARKERS):
            findings.append(Finding(
                rel, 1, "bench-json",
                "bench harness does not join the --json convention: "
                "call bench::init(argc, argv) first (or "
                "bench::jsonDestination / bench_gbench_main.hh for "
                "google-benchmark harnesses) so the harness can emit "
                "BENCH_*.json for the regression gate"))
    return findings


# --------------------------------------------------------------------------
# Rule: concurrency-label
# --------------------------------------------------------------------------

# Constructs whose presence in a test file means TSan must see it: pool
# machinery itself, the classes that own worker threads or fan work
# across the pool, and a KmerOccTable construction (its build goes
# pool-parallel above the row threshold).
CONCURRENCY_MACHINERY_RE = re.compile(
    r"\b(ThreadPool|parallelFor|BatchSearcher|ShardWorker|ShardRouter"
    r"|KmerOccTable|std::thread|std::jthread|std::async)\b")

ADD_TEST_RE = re.compile(r"exma_add_test\(\s*([^\s)]+)([^)]*)\)")


def parse_test_registrations(cmake_text):
    """Yield (line, source, labels) per exma_add_test call."""
    stripped = re.sub(r"#[^\n]*", lambda m: " " * len(m.group(0)),
                      cmake_text)
    for m in ADD_TEST_RE.finditer(stripped):
        line = stripped.count("\n", 0, m.start()) + 1
        src = m.group(1)
        rest = m.group(2)
        labels = []
        lm = re.search(r"\bLABELS\b(.*)", rest, re.S)
        if lm:
            tail = lm.group(1)
            # LABELS consumes tokens until the next keyword or the end.
            for tok in tail.split():
                if tok in ("DEPS", "SOURCES"):
                    break
                labels.append(tok)
        yield line, src, labels


def check_concurrency_label(root):
    findings = []
    cmake_rel = os.path.join("tests", "CMakeLists.txt")
    cmake_path = os.path.join(root, cmake_rel)
    if not os.path.isfile(cmake_path):
        return findings
    for line, src, labels in parse_test_registrations(
            read_text(cmake_path)):
        test_rel = os.path.join("tests", src)
        test_path = os.path.join(root, test_rel)
        if not os.path.isfile(test_path):
            findings.append(Finding(
                cmake_rel, line, "concurrency-label",
                "exma_add_test registers missing file %s" % test_rel))
            continue
        stripped = strip_comments_and_strings(read_text(test_path))
        m = CONCURRENCY_MACHINERY_RE.search(stripped)
        if m and "concurrency" not in labels:
            findings.append(Finding(
                cmake_rel, line, "concurrency-label",
                "%s uses %s but its exma_add_test call lacks "
                "LABELS concurrency — the TSan CI job "
                "(ctest -L concurrency) will never sanitize it"
                % (test_rel, m.group(1))))
    return findings


# --------------------------------------------------------------------------
# Rule: no-naked-future-get
# --------------------------------------------------------------------------

# A .get() whose receiver is future-named: `fut.get()`, `futures[s].get()`,
# `at.fut.get()`. Receivers like `worker.get()` (a smart pointer) don't
# match; the convention is that future variables are named fut*.
NAKED_FUTURE_GET_RE = re.compile(
    r"\bfut\w*\s*(?:\[[^\]\n]*\]\s*)?\.\s*get\s*\(")

# A wait_for this close above the get is taken as the bounded wait whose
# observed-ready result the get consumes.
FUTURE_WAIT_WINDOW = 8

FUTURE_GET_SCAN_DIRS = (
    os.path.join("src", "route"),
    os.path.join("src", "fault"),
    os.path.join("src", "transport"),
)


def check_no_naked_future_get(root):
    findings = []
    for sub in FUTURE_GET_SCAN_DIRS:
        for rel in cxx_files_under(root, sub):
            stripped = strip_comments_and_strings(
                read_text(os.path.join(root, rel)))
            lines = stripped.split("\n")
            for line, _m in iter_matches(NAKED_FUTURE_GET_RE, stripped):
                window = lines[max(0, line - FUTURE_WAIT_WINDOW):line]
                if any("wait_for" in w for w in window):
                    continue
                findings.append(Finding(
                    rel, line, "no-naked-future-get",
                    "future .get() without a wait_for in the preceding "
                    "%d lines; serving-tier futures resolve from worker "
                    "threads that can die or hang, so gate every get "
                    "behind a deadline-bounded wait_for whose ready "
                    "status was observed" % FUTURE_WAIT_WINDOW))
    return findings


# --------------------------------------------------------------------------
# Rule: mutex-annotations
# --------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex"
    r"|recursive_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?)\b")

MUTEX_EXEMPT = {os.path.join("src", "common", "thread_annotations.hh")}


def check_mutex_annotations(root):
    findings = []
    for rel in cxx_files_under(root, "src"):
        if rel in MUTEX_EXEMPT:
            continue
        stripped = strip_comments_and_strings(
            read_text(os.path.join(root, rel)))
        for line, m in iter_matches(RAW_MUTEX_RE, stripped):
            if m.group(1).startswith("condition_variable"):
                hint = ("use exma::CondVar "
                        "(common/thread_annotations.hh), whose waits "
                        "take the exma::MutexLock directly — raw cv "
                        "waits are invisible to -Wthread-safety and "
                        "to the blocked-under-lock analyzer")
            else:
                hint = ("use exma::Mutex + EXMA_GUARDED_BY members "
                        "and lock via exma::MutexLock "
                        "(common/thread_annotations.hh)")
            findings.append(Finding(
                rel, line, "mutex-annotations",
                "raw %s in src/ is invisible to -Wthread-safety; %s"
                % (m.group(0), hint)))
    return findings


# --------------------------------------------------------------------------
# Rule: ondisk-pod-assert
# --------------------------------------------------------------------------

# An explicit-template writeArray/viewArray call names the element type
# that hits the disk — and an explicit putPod/getPod names a type that
# crosses the router/worker process boundary in a wire frame; the
# definitions in src/io/format.hh and src/transport/wire.cc take the
# type from a deduced argument and never match this pattern.
ONDISK_CALL_RE = re.compile(
    r"\b(?:writeArray|viewArray|putPod|getPod)"
    r"\s*<\s*([A-Za-z_]\w*(?:::\w+)*)\s*>")

ONDISK_SCAN_DIRS = ("src", "tests", "tools", "bench")


def check_ondisk_pod_assert(root):
    findings = []
    for sub in ONDISK_SCAN_DIRS:
        for rel in cxx_files_under(root, sub):
            stripped = strip_comments_and_strings(
                read_text(os.path.join(root, rel)))
            first_use = {}
            for line, m in iter_matches(ONDISK_CALL_RE, stripped):
                first_use.setdefault(m.group(1), line)
            for type_name in sorted(first_use):
                escaped = re.escape(type_name)
                has_size = re.search(
                    r"static_assert\s*\(\s*sizeof\s*\(\s*%s\s*\)"
                    % escaped, stripped)
                has_triv = re.search(
                    r"static_assert\s*\(\s*std::is_trivially_copyable_v"
                    r"\s*<\s*%s\s*>" % escaped, stripped)
                if has_size and has_triv:
                    continue
                missing = []
                if not has_size:
                    missing.append("static_assert(sizeof(%s) == ...)"
                                   % type_name)
                if not has_triv:
                    missing.append(
                        "static_assert(std::is_trivially_copyable_v<%s>)"
                        % type_name)
                findings.append(Finding(
                    rel, first_use[type_name], "ondisk-pod-assert",
                    "%s is written to / read from the on-disk .exma.* "
                    "format but this file lacks %s — without the "
                    "paired asserts a silent layout change corrupts "
                    "existing index files instead of failing to "
                    "compile (add the asserts, and bump kFormatVersion "
                    "if the layout really changed)"
                    % (type_name, " and ".join(missing))))
    return findings


# --------------------------------------------------------------------------
# Rule: analyze-allow-reason
# --------------------------------------------------------------------------

# Mirrors SUPPRESS_RE in tools/analyze/cxxparse.py (kept in sync by the
# unit tests on both sides). Scans raw text — the allow lives in a
# comment, which strip_comments_and_strings would blank out.
ANALYZE_ALLOW_RE = re.compile(
    r"(?://|/\*)\s*analyze:\s*allow\(\s*([\w-]+)\s*"
    r"(?:,\s*([^)]*?)\s*)?\)")

ANALYZE_PASSES = ("blocked-under-lock", "layering", "lock-order",
                  "ondisk-abi")

ANALYZE_ALLOW_SCAN_DIRS = ("src", "tests", "tools", "bench")


def check_analyze_allow_reason(root):
    findings = []
    for sub in ANALYZE_ALLOW_SCAN_DIRS:
        for rel in cxx_files_under(root, sub):
            text = read_text(os.path.join(root, rel))
            for m in ANALYZE_ALLOW_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                pass_name, reason = m.group(1), m.group(2)
                if pass_name not in ANALYZE_PASSES:
                    findings.append(Finding(
                        rel, line, "analyze-allow-reason",
                        "analyze: allow(%s, ...) names an unknown "
                        "pass — it suppresses nothing; one of: %s"
                        % (pass_name, ", ".join(ANALYZE_PASSES))))
                if not (reason or "").strip():
                    findings.append(Finding(
                        rel, line, "analyze-allow-reason",
                        "analyze: allow(%s) has no reason; write "
                        "allow(%s, <why this site is deliberate>) so "
                        "the suppression is reviewable"
                        % (pass_name, pass_name)))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = {
    "analyze-allow-reason": check_analyze_allow_reason,
    "bare-assert": check_bare_assert,
    "bench-json": check_bench_json,
    "concurrency-label": check_concurrency_label,
    "mutex-annotations": check_mutex_annotations,
    "no-naked-future-get": check_no_naked_future_get,
    "ondisk-pod-assert": check_ondisk_pod_assert,
}


def run_rules(root, rules=None):
    findings = []
    for name in sorted(rules or RULES):
        findings.extend(RULES[name](root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv=None):
    default_root = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir))
    parser = argparse.ArgumentParser(
        prog="exma_lint",
        description="Project-invariant lints for the EXMA tree.")
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: two levels up "
                             "from this script)")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    parser.add_argument("--json", metavar="FILE",
                        help="also write findings as JSON (CI artifact)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("exma-lint: %s does not look like the repo root "
              "(no src/)" % root, file=sys.stderr)
        return 2

    findings = run_rules(root, args.rule)
    for f in findings:
        print(f)
    if args.json:
        payload = {
            "rules": sorted(args.rule or RULES),
            "findings": [f.to_dict() for f in findings],
        }
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True)
            fp.write("\n")
    if findings:
        print("exma-lint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    n_files = len(cxx_files_under(root, "src"))
    print("exma-lint: OK (%d src files, rules: %s)"
          % (n_files, ", ".join(sorted(args.rule or RULES))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
