#!/usr/bin/env python3
"""Unit tests for exma_lint.py: one positive (violation detected) and
one negative (clean code passes) fixture per rule, plus CLI exit-code
coverage — including the synthetic missing-`concurrency`-label case the
rule exists for.

Run directly (no pytest dependency): python3 tools/lint/test_exma_lint.py -v
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exma_lint  # noqa: E402  (path set up above)

LINTER = os.path.join(HERE, "exma_lint.py")


class FixtureTree:
    """A synthetic repo root the rules can run against."""

    def __init__(self, tmpdir):
        self.root = tmpdir

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return rel


class LintTestCase(unittest.TestCase):

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tree = FixtureTree(tmp.name)
        # Every fixture root needs src/ to look like a repo.
        self.tree.write("src/common/placeholder.hh",
                        "// empty placeholder\n")

    def rules(self, *names):
        return exma_lint.run_rules(self.tree.root, names)

    def rule_ids(self, findings):
        return [(f.rule, f.path) for f in findings]


class BareAssertTest(LintTestCase):

    def test_bare_assert_and_cassert_include_are_flagged(self):
        rel = self.tree.write("src/core/bad.cc", """\
#include <cassert>
void f(int x)
{
    assert(x > 0);
}
""")
        findings = self.rules("bare-assert")
        self.assertEqual([(f.rule, f.path, f.line) for f in findings],
                         [("bare-assert", rel, 1),
                          ("bare-assert", rel, 4)])

    def test_exma_asserts_and_commented_asserts_pass(self):
        self.tree.write("src/core/good.cc", """\
#include "common/logging.hh"
void f(int x)
{
    exma_assert(x > 0, "boundary");
    exma_dassert(x < 9, "hot path");
    static_assert(sizeof(int) == 4, "platform");
    // a comment mentioning assert( is fine
    const char *s = "assert( in a string is fine";
    (void)s;
}
""")
        self.assertEqual(self.rules("bare-assert"), [])

    def test_tests_and_bench_may_use_gtest_assertions(self):
        # Scope is src/ only: ASSERT_EQ etc. in tests never match, and
        # even a bare assert in tests/ is out of scope.
        self.tree.write("tests/core/test_x.cc",
                        "#include <cassert>\nvoid t() { assert(1); }\n")
        self.assertEqual(self.rules("bare-assert"), [])


class BenchJsonTest(LintTestCase):

    def test_harness_without_json_convention_is_flagged(self):
        rel = self.tree.write("bench/bench_rogue.cc", """\
int main()
{
    return 0;
}
""")
        findings = self.rules("bench-json")
        self.assertEqual(self.rule_ids(findings),
                         [("bench-json", rel)])

    def test_init_jsondestination_and_gbench_all_pass(self):
        self.tree.write("bench/bench_tables.cc",
                        "int main(int argc, char **argv)\n"
                        "{ exma::bench::init(argc, argv); }\n")
        self.tree.write("bench/bench_micro.cc",
                        "#include \"bench_gbench_main.hh\"\n")
        self.tree.write("bench/bench_custom.cc",
                        "int main(int argc, char **argv)\n"
                        "{ auto p = exma::bench::jsonDestination(argc, argv); }\n")
        # Non-harness files in bench/ are out of scope.
        self.tree.write("bench/util_helper.cc", "int x;\n")
        self.assertEqual(self.rules("bench-json"), [])


class ConcurrencyLabelTest(LintTestCase):

    CMAKE = """\
# comment with exma_add_test(common/in_comment.cc) must be ignored
exma_add_test(common/test_pool.cc DEPS exma::common
    LABELS concurrency)
exma_add_test(common/test_plain.cc DEPS exma::common)
exma_add_test(route/test_router.cc DEPS exma::route
    LABELS concurrency slow)
"""

    def test_synthetic_missing_label_case_is_flagged(self):
        # The case the rule exists for: a suite that spins up the pool
        # but was registered without the concurrency label, so the TSan
        # job (ctest -L concurrency) would silently skip it.
        self.tree.write("tests/CMakeLists.txt", self.CMAKE + """\
exma_add_test(batch/test_unlabelled.cc DEPS exma::batch)
""")
        self.tree.write("tests/common/test_pool.cc",
                        "#include \"common/thread_pool.hh\"\n"
                        "TEST(Pool, X) { exma::ThreadPool p(2); }\n")
        self.tree.write("tests/common/test_plain.cc",
                        "TEST(Plain, X) {}\n")
        self.tree.write("tests/route/test_router.cc",
                        "TEST(Router, X) { exma::ShardRouter r(a, b, c); }\n")
        self.tree.write("tests/batch/test_unlabelled.cc",
                        "TEST(Batch, X) { exma::BatchSearcher s(t, cfg); }\n")
        findings = self.rules("concurrency-label")
        self.assertEqual(len(findings), 1, findings)
        self.assertEqual(findings[0].rule, "concurrency-label")
        self.assertIn("test_unlabelled.cc", findings[0].message)
        self.assertIn("BatchSearcher", findings[0].message)
        # The finding points at the registration site, not the test.
        self.assertEqual(findings[0].path,
                         os.path.join("tests", "CMakeLists.txt"))

    def test_labelled_and_thread_free_suites_pass(self):
        self.tree.write("tests/CMakeLists.txt", self.CMAKE)
        self.tree.write("tests/common/test_pool.cc",
                        "TEST(Pool, X) { exma::parallelFor(8, 1, fn); }\n")
        self.tree.write("tests/common/test_plain.cc",
                        "// ThreadPool only named in a comment\n"
                        "TEST(Plain, X) {}\n")
        self.tree.write("tests/route/test_router.cc",
                        "TEST(Router, X) { exma::ShardWorker w(n, t, r, s); }\n")
        self.assertEqual(self.rules("concurrency-label"), [])

    def test_socket_transport_only_suite_needs_the_label(self):
        # A SocketTransport owns a serving-lane thread just like a
        # ShardWorker, so a suite that only builds socket transports
        # still belongs on the TSan leg.
        self.tree.write("tests/CMakeLists.txt",
                        "exma_add_test(transport/test_sock.cc "
                        "DEPS exma::transport LABELS socket)\n")
        self.tree.write("tests/transport/test_sock.cc",
                        "TEST(Sock, X) { exma::SocketTransport t(n, c, "
                        "false, true); }\n")
        findings = self.rules("concurrency-label")
        self.assertEqual(len(findings), 1, findings)
        self.assertIn("SocketTransport", findings[0].message)

    def test_registration_of_missing_file_is_flagged(self):
        self.tree.write("tests/CMakeLists.txt",
                        "exma_add_test(common/test_gone.cc DEPS x)\n")
        findings = self.rules("concurrency-label")
        self.assertEqual(len(findings), 1)
        self.assertIn("missing file", findings[0].message)


class MutexAnnotationsTest(LintTestCase):

    def test_raw_std_mutex_member_is_flagged(self):
        rel = self.tree.write("src/serve/cache.hh", """\
#include <mutex>
class HotCache
{
    std::mutex mtx_;
    void put() { std::lock_guard<std::mutex> lock(mtx_); }
};
""")
        findings = self.rules("mutex-annotations")
        self.assertEqual(
            [(f.rule, f.path) for f in findings],
            [("mutex-annotations", rel)] * 3)  # decl + guard + its arg

    def test_raw_condition_variable_is_flagged(self):
        rel = self.tree.write("src/serve/queue.hh", """\
#include <condition_variable>
class Queue
{
    std::condition_variable cv_;
    std::condition_variable_any any_cv_;
};
""")
        findings = self.rules("mutex-annotations")
        self.assertEqual(
            [(f.rule, f.path) for f in findings],
            [("mutex-annotations", rel)] * 2)
        self.assertIn("exma::CondVar", findings[0].message)

    def test_exma_condvar_passes(self):
        self.tree.write("src/serve/queue.hh", """\
#include "common/thread_annotations.hh"
class Queue
{
    exma::Mutex mtx_;
    exma::CondVar cv_;
    void drain() { exma::MutexLock lock(mtx_); cv_.wait(lock); }
};
""")
        self.assertEqual(self.rules("mutex-annotations"), [])

    def test_exma_mutex_and_exempt_header_pass(self):
        self.tree.write("src/common/thread_annotations.hh", """\
#include <mutex>
class Mutex { std::mutex mtx_; };
class MutexLock { std::unique_lock<std::mutex> lock_; };
""")
        self.tree.write("src/serve/cache.hh", """\
#include "common/thread_annotations.hh"
class HotCache
{
    exma::Mutex mtx_;
    long hits_ EXMA_GUARDED_BY(mtx_) = 0;
    void put() { exma::MutexLock lock(mtx_); ++hits_; }
};
""")
        # std::mutex in a comment or string must not trip the rule.
        self.tree.write("src/serve/notes.cc",
                        "// never hold a std::mutex here\n"
                        "const char *kWhy = \"std::mutex is banned\";\n")
        self.assertEqual(self.rules("mutex-annotations"), [])


class NoNakedFutureGetTest(LintTestCase):

    def test_unguarded_get_in_route_is_flagged(self):
        rel = self.tree.write("src/route/gather.cc", """\
void gather(std::future<Response> &fut)
{
    Response r = fut.get();
}
""")
        findings = self.rules("no-naked-future-get")
        self.assertEqual([(f.rule, f.path, f.line) for f in findings],
                         [("no-naked-future-get", rel, 3)])
        self.assertIn("wait_for", findings[0].message)

    def test_wait_for_within_window_passes(self):
        self.tree.write("src/route/gather.cc", """\
void gather(std::vector<std::future<Response>> &futures, size_t s)
{
    if (futures[s].wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return;
    Response r = futures[s].get();
}
""")
        self.tree.write("src/fault/reap.cc", """\
void reap(Attempt &at)
{
    while (at.fut.wait_for(std::chrono::milliseconds(10)) !=
           std::future_status::ready)
        at.worker->kill();
    at.fut.get();
}
""")
        self.assertEqual(self.rules("no-naked-future-get"), [])

    def test_wait_for_outside_window_does_not_count(self):
        pad = "    side_effect();\n" * exma_lint.FUTURE_WAIT_WINDOW
        rel = self.tree.write("src/fault/stale.cc", """\
void stale(std::future<int> &fut)
{
    fut.wait_for(std::chrono::seconds(1));
%s    int v = fut.get();
}
""" % pad)
        findings = self.rules("no-naked-future-get")
        self.assertEqual(self.rule_ids(findings),
                         [("no-naked-future-get", rel)])

    def test_smart_pointer_get_and_other_dirs_are_out_of_scope(self):
        # worker.get() is a shared_ptr, not a future; and future code
        # outside src/route//src/fault is another tier's business.
        self.tree.write("src/route/ptr.cc",
                        "ShardWorker *w = at.worker.get();\n")
        self.tree.write("src/batch/elsewhere.cc",
                        "int v = fut.get();\n")
        self.assertEqual(self.rules("no-naked-future-get"), [])


class NoRawSleepTest(LintTestCase):

    def test_backoff_sleep_and_posix_sleeps_are_flagged(self):
        # The retry backoff the router's gather loop used to sleep on
        # the caller's thread, plus the POSIX spellings.
        rel = self.tree.write("src/route/gather.cc", """\
void retry(u64 backoff)
{
    if (backoff)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff));
    ::usleep(1000);
    nanosleep(&ts, nullptr);
    std::this_thread::sleep_until(t);
}
""")
        findings = self.rules("no-raw-sleep")
        self.assertEqual([(f.rule, f.path, f.line) for f in findings],
                         [("no-raw-sleep", rel, 4),
                          ("no-raw-sleep", rel, 6),
                          ("no-raw-sleep", rel, 7),
                          ("no-raw-sleep", rel, 8)])
        self.assertIn("CancelToken::sleepFor", findings[0].message)

    def test_cancellable_sleeps_and_due_time_waits_pass(self):
        self.tree.write("src/transport/lane.cc", """\
void stall(CancelToken &cancel, u64 ms)
{
    if (!cancel.sleepFor(ms))
        return;
}
void gather(Queue &q, Clock::time_point wake)
{
    MutexLock lock(q.mtx);
    while (q.ready.empty())
        if (q.cv.wait_until(lock, wake) == std::cv_status::timeout)
            break;
    // a comment naming std::this_thread::sleep_for is fine
    const char *s = "usleep(1) in a string is fine";
    my_usleep(5);
}
""")
        # Tests and benches may sleep: scope is src/ only.
        self.tree.write("tests/fault/test_x.cc",
                        "void t() { std::this_thread::sleep_for(d); }\n")
        self.assertEqual(self.rules("no-raw-sleep"), [])


class OndiskPodAssertTest(LintTestCase):

    def test_write_site_without_asserts_is_flagged(self):
        rel = self.tree.write("src/io/save_thing.cc", """\
void saveThing(FileBuilder &fb, std::span<const Block> blocks)
{
    fb.writeArray<Block>(7, blocks);
}
""")
        findings = self.rules("ondisk-pod-assert")
        self.assertEqual(len(findings), 1, findings)
        self.assertEqual((findings[0].rule, findings[0].path,
                          findings[0].line),
                         ("ondisk-pod-assert", rel, 3))
        self.assertIn("sizeof(Block)", findings[0].message)
        self.assertIn("is_trivially_copyable_v<Block>", findings[0].message)
        self.assertIn("kFormatVersion", findings[0].message)

    def test_half_asserted_type_names_the_missing_half(self):
        self.tree.write("src/io/load_thing.cc", """\
static_assert(sizeof(Block) == 32);
std::span<const Block> loadThing(const FileView &view)
{
    return view.viewArray<Block>(7);
}
""")
        findings = self.rules("ondisk-pod-assert")
        self.assertEqual(len(findings), 1)
        self.assertIn("is_trivially_copyable_v<Block>",
                      findings[0].message)
        self.assertNotIn("sizeof(Block) == ...", findings[0].message)

    def test_asserted_sites_pass_including_qualified_names(self):
        self.tree.write("src/io/good.cc", """\
static_assert(sizeof(u32) == 4);
static_assert(std::is_trivially_copyable_v<u32>);
static_assert(sizeof(PackedRank::Block) == 32,
              "on-disk layout: bump kFormatVersion on change");
static_assert(std::is_trivially_copyable_v<PackedRank::Block>);
void save(FileBuilder &fb)
{
    fb.writeArray<u32>(1, bases);
    fb.writeArray<PackedRank::Block>(2, blocks);
}
std::span<const u32> load(const FileView &view)
{
    return view.viewArray<u32>(1);
}
""")
        # The template definitions themselves (deduced T, no explicit
        # <Type> at a call) are out of scope.
        self.tree.write("src/io/format.hh", """\
template <typename T>
void writeArray(u32 tag, std::span<const T> data)
{
    static_assert(std::is_trivially_copyable_v<T>);
}
""")
        self.assertEqual(self.rules("ondisk-pod-assert"), [])

    def test_tests_and_tools_are_in_scope(self):
        rel = self.tree.write("tests/io/test_fmt.cc", """\
TEST(Fmt, X)
{
    fb.writeArray<u64>(1, words);
}
""")
        findings = self.rules("ondisk-pod-assert")
        self.assertEqual(self.rule_ids(findings),
                         [("ondisk-pod-assert", rel)])


class AnalyzeAllowReasonTest(LintTestCase):

    def test_reasonless_allow_is_flagged(self):
        rel = self.tree.write("src/core/muted.cc", """\
// analyze: allow(lock-order)
void f();
""")
        findings = self.rules("analyze-allow-reason")
        self.assertEqual(self.rule_ids(findings),
                         [("analyze-allow-reason", rel)])
        self.assertIn("no reason", findings[0].message)

    def test_unknown_pass_is_flagged(self):
        rel = self.tree.write("src/core/typo.cc", """\
// analyze: allow(lock-ordering, the pass name is wrong)
void f();
""")
        findings = self.rules("analyze-allow-reason")
        self.assertEqual(self.rule_ids(findings),
                         [("analyze-allow-reason", rel)])
        self.assertIn("unknown", findings[0].message)

    def test_reasoned_allow_passes_and_tests_in_scope(self):
        self.tree.write("src/core/ok.cc", """\
// analyze: allow(ondisk-abi, scratch file, never persisted)
void f();
""")
        self.assertEqual(self.rules("analyze-allow-reason"), [])
        rel = self.tree.write("tests/static/muted.cc",
                              "/* analyze: allow(layering) */\n")
        findings = self.rules("analyze-allow-reason")
        self.assertEqual(self.rule_ids(findings),
                         [("analyze-allow-reason", rel)])

    def test_regex_agrees_with_analyzer(self):
        # The linter's regex must keep accepting what the analyzer's
        # suppression scanner accepts (tools/analyze/cxxparse.py).
        sys.path.insert(0, os.path.join(HERE, os.pardir, "analyze"))
        try:
            import cxxparse
        finally:
            sys.path.pop(0)
        text = "// analyze: allow(lock-order, dual-locked on purpose)\n"
        sup = cxxparse.scan_suppressions(text)
        m = exma_lint.ANALYZE_ALLOW_RE.search(text)
        self.assertEqual(sup[1], [(m.group(1), m.group(2))])
        sys.path.insert(0, os.path.join(HERE, os.pardir, "analyze"))
        try:
            import exma_analyze
        finally:
            sys.path.pop(0)
        self.assertEqual(exma_lint.ANALYZE_PASSES,
                         tuple(sorted(exma_analyze.PASSES)))


class StripperTest(LintTestCase):

    def test_stripping_preserves_line_numbers(self):
        text = "int a; /* multi\nline\ncomment */ assert(x);\n"
        stripped = exma_lint.strip_comments_and_strings(text)
        self.assertEqual(text.count("\n"), stripped.count("\n"))
        line, _ = next(exma_lint.iter_matches(
            exma_lint.BARE_ASSERT_RE, stripped))
        self.assertEqual(line, 3)

    def test_escaped_quotes_inside_strings(self):
        text = 'const char *s = "he said \\"assert(\\" loudly";\n'
        stripped = exma_lint.strip_comments_and_strings(text)
        self.assertNotIn("assert", stripped)


class CliTest(LintTestCase):

    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, LINTER, *args],
            capture_output=True, text=True)

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli("--root", self.tree.root)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("exma-lint: OK", proc.stdout)

    def test_findings_exit_one_with_compiler_style_lines(self):
        self.tree.write("src/core/bad.cc", "void f() { assert(1); }\n")
        proc = self.run_cli("--root", self.tree.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("src/core/bad.cc:1: [bare-assert]", proc.stdout)
        self.assertIn("1 finding(s)", proc.stderr)

    def test_bogus_root_is_a_usage_error(self):
        empty = os.path.join(self.tree.root, "not-a-repo")
        os.makedirs(empty)
        proc = self.run_cli("--root", empty)
        self.assertEqual(proc.returncode, 2)

    def test_rule_filter_runs_only_that_rule(self):
        self.tree.write("src/core/bad.cc", "void f() { assert(1); }\n")
        proc = self.run_cli("--root", self.tree.root,
                            "--rule", "bench-json")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_json_output_mirrors_findings(self):
        self.tree.write("src/core/bad.cc", "void f() { assert(1); }\n")
        out = os.path.join(self.tree.root, "lint.json")
        proc = self.run_cli("--root", self.tree.root, "--json", out)
        self.assertEqual(proc.returncode, 1)
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        self.assertEqual(len(payload["findings"]), 1)
        self.assertEqual(payload["findings"][0]["rule"], "bare-assert")
        self.assertEqual(payload["findings"][0]["line"], 1)
        self.assertIn("bare-assert", payload["rules"])

    def test_real_repo_is_clean(self):
        # The tree this file ships in must satisfy its own linter
        # (mirrors the CI exma-lint job).
        proc = self.run_cli()
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
