#!/usr/bin/env python3
"""Unit tests for the analyzer framework: the syntactic frontend's
AST-walk helpers, the clang-JSON lowering (against a checked-in
clang-style dump in testdata/mini_ast.json — both frontends must
produce agreeing IR), each pass's positive/negative behavior on
synthetic IR, suppression comments, and the ABI lock round-trip.

Run directly (no pytest dependency):
    python3 tools/analyze/test_exma_analyze.py -v
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clangjson  # noqa: E402
import compiledb  # noqa: E402
import cxxparse  # noqa: E402
import pass_blocked  # noqa: E402
import pass_layering  # noqa: E402
import pass_lock_order  # noqa: E402
import pass_ondisk_abi  # noqa: E402
from ir import SourceIR  # noqa: E402
from project import Project  # noqa: E402


def parse(src, path="src/demo/demo.cc"):
    return cxxparse.parse_source(path, src)


def project_from(*irs, sources=None):
    proj = Project("/nonexistent")
    for rel, text in (sources or {}).items():
        proj.add_source_text(rel, text,
                             cxxparse.scan_suppressions(text))
    for ir in irs:
        if ir.path not in proj.sources:
            proj.add_source_text(ir.path, "", ir.suppressions)
        proj.add_ir(ir)
    return proj


class StripperTest(unittest.TestCase):

    def test_preserves_lines_and_blanks_strings(self):
        src = 'a; // comment "str\nb = "x;y"; /* c1\nc2 */ c;\n'
        out = cxxparse.strip_comments_and_strings(src)
        self.assertEqual(src.count("\n"), out.count("\n"))
        self.assertNotIn("comment", out)
        self.assertNotIn("x;y", out)
        self.assertNotIn("c1", out)
        self.assertIn("b =", out)
        self.assertIn("c;", out)

    def test_escaped_quote_in_string(self):
        out = cxxparse.strip_comments_and_strings(
            'p("a\\"b"); q();')
        self.assertIn("q()", out)


class SuppressionTest(unittest.TestCase):

    def test_allow_with_reason(self):
        sup = cxxparse.scan_suppressions(
            "x;\n"
            "y; // analyze: allow(lock-order, startup is "
            "single-threaded)\n")
        self.assertEqual(
            sup, {2: [("lock-order",
                       "startup is single-threaded")]})

    def test_allow_without_reason(self):
        sup = cxxparse.scan_suppressions(
            "// analyze: allow(layering)\n")
        self.assertEqual(sup, {1: [("layering", "")]})

    def test_applies_to_line_and_line_above(self):
        ir = parse("// analyze: allow(lock-order, x)\nint a;\n")
        self.assertTrue(ir.suppressed("lock-order", 1))
        self.assertTrue(ir.suppressed("lock-order", 2))
        self.assertFalse(ir.suppressed("lock-order", 3))
        self.assertFalse(ir.suppressed("blocked-under-lock", 2))


class SyntaxFrontendTest(unittest.TestCase):

    def test_member_function_and_nested_locks(self):
        ir = parse(
            "namespace exma {\n"
            "class A {\n"
            "  void f() {\n"
            "    MutexLock a(mtx_);\n"
            "    {\n"
            "      MutexLock b(aux_mtx_);\n"
            "      use();\n"
            "    }\n"
            "    tail();\n"
            "  }\n"
            "  Mutex mtx_;\n"
            "  Mutex aux_mtx_;\n"
            "};\n"
            "}\n")
        (f,) = ir.functions
        self.assertEqual(f.qual, "exma::A::f")
        self.assertEqual(
            [(a.mutex, list(a.under)) for a in f.acquires],
            [("A::mtx_", []), ("A::aux_mtx_", ["A::mtx_"])])
        calls = {c.callee: list(c.locks) for c in f.calls}
        self.assertEqual(calls["use"], ["A::mtx_", "A::aux_mtx_"])
        # the inner block's lock released at its closing brace
        self.assertEqual(calls["tail"], ["A::mtx_"])

    def test_out_of_line_method_with_initializer_list(self):
        ir = parse(
            "namespace exma {\n"
            "Worker::Worker(int n) : n_(n), state_(idle) {\n"
            "  MutexLock lock(mtx_);\n"
            "}\n"
            "}\n")
        (f,) = ir.functions
        self.assertEqual(f.qual, "exma::Worker::Worker")
        self.assertEqual(f.cls, "Worker")
        self.assertEqual(f.acquires[0].mutex, "Worker::mtx_")

    def test_local_reference_resolves_owner_type(self):
        ir = parse(
            "namespace exma {\n"
            "void install() {\n"
            "  InjectorOwner &slot = injectorOwner();\n"
            "  MutexLock lock(slot.mtx);\n"
            "}\n"
            "}\n")
        (f,) = ir.functions
        self.assertEqual(f.acquires[0].mutex, "InjectorOwner::mtx")

    def test_cv_wait_args_capture_lock_var(self):
        ir = parse(
            "void A::run() {\n"
            "  MutexLock lock(mtx_);\n"
            "  cv_.wait(lock);\n"
            "}\n")
        (f,) = ir.functions
        wait = [c for c in f.calls if c.callee == "wait"][0]
        self.assertEqual(wait.receiver, "cv_")
        self.assertIn("lock", wait.args)
        self.assertEqual(list(wait.lock_vars), ["lock"])

    def test_record_fields_with_arrays_and_macros(self):
        ir = parse(
            "namespace exma {\n"
            "struct FileHeader {\n"
            "  char magic[8] = {};\n"
            "  u32 version = 0;\n"
            "  std::atomic<u64> hits{0};\n"
            "  u64 depth EXMA_GUARDED_BY(mtx_) = 0;\n"
            "  void touch() { ++version; }\n"
            "};\n"
            "}\n", path="src/io/format.hh")
        (rec,) = ir.records
        self.assertEqual(rec.qual, "exma::FileHeader")
        fields = {f.name: (f.type_spelling, f.array)
                  for f in rec.fields}
        self.assertEqual(fields["magic"], ("char", "[8]"))
        self.assertEqual(fields["version"], ("u32", ""))
        self.assertEqual(fields["hits"][0], "std::atomic<u64>")
        self.assertEqual(fields["depth"][0], "u64")
        self.assertNotIn("touch", fields)

    def test_function_with_trailing_macro_annotation(self):
        ir = parse(
            "class Mutex {\n"
            "  void lock() EXMA_ACQUIRE() { mtx_.lock(); }\n"
            "};\n")
        names = [f.name for f in ir.functions]
        self.assertEqual(names, ["lock"])

    def test_roundtrip(self):
        ir = parse(
            "struct S { int a; };\n"
            "void f() { MutexLock l(m_); g(); }\n")
        again = SourceIR.loads(ir.dumps())
        self.assertEqual(again.dumps(), ir.dumps())


class ClangLoweringTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "testdata",
                               "mini_ast.json")) as f:
            ast = json.load(f)
        cls.ir = clangjson.lower_tu("src/demo/demo.cc", ast, "/proj",
                                    version="18.1")

    def test_functions_and_out_of_line_class(self):
        by_qual = {f.qual: f for f in self.ir.functions}
        self.assertIn("exma::Worker::submit", by_qual)
        self.assertIn("exma::Worker::kill", by_qual)
        self.assertEqual(by_qual["exma::Worker::submit"].path,
                         "src/demo/demo.hh")
        # out-of-line definition: class recovered via
        # parentDeclContextId, file via differential location decoding
        self.assertEqual(by_qual["exma::Worker::kill"].cls, "Worker")
        self.assertEqual(by_qual["exma::Worker::kill"].path,
                         "src/demo/demo.cc")

    def test_differential_line_decoding(self):
        (rec,) = self.ir.records
        lines = {f.name for f in rec.fields}
        self.assertEqual(lines, {"mtx_", "history_"})
        arr = [f for f in rec.fields if f.name == "history_"][0]
        self.assertEqual(arr.array, "[4]")

    def test_lock_and_call_lowering_agrees_with_syntax(self):
        by_qual = {f.qual: f for f in self.ir.functions}
        submit = by_qual["exma::Worker::submit"]
        self.assertEqual([a.mutex for a in submit.acquires],
                         ["Worker::mtx_"])
        wait = [c for c in submit.calls if c.callee == "wait"][0]
        self.assertEqual(wait.receiver, "cv_")
        self.assertEqual(list(wait.locks), ["Worker::mtx_"])
        self.assertIn("lock", wait.args)

    def test_blocked_pass_on_lowered_ir(self):
        proj = project_from(self.ir)
        findings = pass_blocked.run(proj)
        # kill's fut_.get() under mtx_ fires; submit's cv wait with
        # its lock is the designed pattern and must not
        self.assertEqual(len(findings), 1)
        self.assertIn("get()", findings[0].message)
        self.assertEqual(findings[0].path, "src/demo/demo.cc")


class LockOrderPassTest(unittest.TestCase):

    CYCLE = (
        "class L {\n"
        "  void ab() { MutexLock x(a_); MutexLock y(b_); }\n"
        "  void ba() { MutexLock x(b_); MutexLock y(a_); }\n"
        "  Mutex a_;\n"
        "  Mutex b_;\n"
        "};\n")

    def test_cycle_detected_with_both_paths(self):
        proj = project_from(parse(self.CYCLE))
        (f,) = pass_lock_order.run(proj)
        self.assertIn("L::a_", f.message)
        self.assertIn("L::b_", f.message)
        self.assertIn("path 1:", f.message)
        self.assertIn("path 2:", f.message)

    def test_consistent_order_is_clean(self):
        proj = project_from(parse(
            "class L {\n"
            "  void ab() { MutexLock x(a_); MutexLock y(b_); }\n"
            "  void ab2() { MutexLock x(a_); MutexLock y(b_); }\n"
            "};\n"))
        self.assertEqual(pass_lock_order.run(proj), [])

    def test_inlined_edge_through_callee(self):
        proj = project_from(parse(
            "void A::outer() { MutexLock l(a_); helper(); }\n"
            "void A::helper() { MutexLock l(b_); inner(); }\n"
            "void A::other() { MutexLock l(b_); grab(); }\n"
            "void A::grab() { MutexLock l(a_); }\n"))
        (f,) = pass_lock_order.run(proj)
        self.assertIn("calls", f.message)

    def test_suppressed_cycle(self):
        # A cycle is reported unless EVERY edge on it carries an
        # allow comment — suppressing one side is not enough.
        allow = "  // analyze: allow(lock-order, test fixture)\n"
        half = self.CYCLE.replace(
            "  void ba()", allow + "  void ba()")
        proj = project_from(parse(half),
                            sources={"src/demo/demo.cc": half})
        self.assertEqual(len(pass_lock_order.run(proj)), 1)
        both = half.replace("  void ab()", allow + "  void ab()")
        proj = project_from(parse(both),
                            sources={"src/demo/demo.cc": both})
        self.assertEqual(pass_lock_order.run(proj), [])


class BlockedPassTest(unittest.TestCase):

    def run_on(self, body, sources=None):
        src = ("class W {\n  void f() {\n%s  }\n};\n" % body)
        proj = project_from(parse(src),
                            sources=sources and {
                                "src/demo/demo.cc": src})
        return pass_blocked.run(proj)

    def test_sleep_under_lock_fires(self):
        fs = self.run_on("    MutexLock l(mtx_);\n"
                         "    cancel_.sleepFor(50);\n")
        self.assertEqual(len(fs), 1)
        self.assertIn("sleepFor", fs[0].message)

    def test_cv_wait_with_lock_exempt(self):
        fs = self.run_on("    MutexLock l(mtx_);\n"
                         "    cv_.wait(l);\n")
        self.assertEqual(fs, [])

    def test_cv_wait_holding_second_lock_fires(self):
        fs = self.run_on("    MutexLock o(other_mtx_);\n"
                         "    MutexLock l(mtx_);\n"
                         "    cv_.wait(l);\n")
        self.assertEqual(len(fs), 1)
        self.assertIn("other lock", fs[0].message)

    def test_join_under_lock_fires(self):
        fs = self.run_on("    MutexLock l(mtx_);\n"
                         "    thread_.join();\n")
        self.assertEqual(len(fs), 1)

    def test_no_lock_no_finding(self):
        fs = self.run_on("    fut.get();\n")
        self.assertEqual(fs, [])

    def test_lane_dispatch_under_lock_fires(self):
        # The serving lane lives in src/transport: serving a request
        # inside the inbox-lock scope would block every submit() for a
        # whole batch. The same calls outside the scope are clean.
        src = ("class Lane {\n"
               "  void run() { MutexLock l(mtx_); serve(p); }\n"
               "  void drain() { MutexLock l(mtx_); serveRequest(r); }\n"
               "  void ok() { { MutexLock l(mtx_); pop(); } serve(p); }\n"
               "  void serve(Pending p) { serveRequest(p.req); }\n"
               "  Response serveRequest(const Request &r) { return x; }\n"
               "};\n")
        proj = project_from(parse(src, path="src/transport/lane.cc"))
        fs = pass_blocked.run(proj)
        self.assertEqual([f.line for f in fs], [2, 3], fs)
        self.assertIn("worker dispatch serve()", fs[0].message)
        self.assertIn("worker dispatch serveRequest()", fs[1].message)

    def test_caller_side_dispatch_under_lock_fires(self):
        # serveHere runs the lane's serve path on its caller, so calling
        # it with a mutex held blocks that mutex for a whole batch. The
        # one-level inlining alone would not find serve() inside it.
        lane = ("class Transport {\n"
                "  void serveHere(Request r, Done d) { serve(p); }\n"
                "  void serve(Pending p) { serveRequest(p.req); }\n"
                "};\n")
        router = ("class Router {\n"
                  "  void bad() { MutexLock l(mtx_); w->serveHere(r, d); }\n"
                  "  void ok() { { MutexLock l(mtx_); pick(); }\n"
                  "              w->serveHere(r, d); }\n"
                  "};\n")
        proj = project_from(parse(lane, path="src/transport/lane.cc"),
                            parse(router, path="src/route/router.cc"))
        fs = pass_blocked.run(proj)
        self.assertEqual([(f.path, f.line) for f in fs],
                         [("src/route/router.cc", 2)], fs)
        self.assertIn("worker dispatch serveHere()", fs[0].message)

    def test_inlining_flags_blocking_callee(self):
        src = ("class W {\n"
               "  void f() { MutexLock l(mtx_); slowPath(); }\n"
               "  void slowPath() { fut_.wait_for(t); fut_.get(); }\n"
               "};\n")
        proj = project_from(parse(src))
        fs = pass_blocked.run(proj)
        self.assertTrue(any("slowPath" in f.message for f in fs))


class LayeringPassTest(unittest.TestCase):

    def make_proj(self, beta_deps, suppress=False):
        allow = ("// analyze: allow(layering, migration shim)\n"
                 if suppress else "")
        sources = {
            os.path.join("src", "alpha", "CMakeLists.txt"):
                "exma_add_module(alpha SOURCES a.cc DEPS exma::beta)",
            os.path.join("src", "beta", "CMakeLists.txt"):
                "exma_add_module(beta SOURCES b.cc%s)" % beta_deps,
            os.path.join("src", "beta", "b.hh"):
                allow + '#include "alpha/a.hh"\nint b;\n',
        }
        proj = Project("/nonexistent")
        for rel, text in sources.items():
            proj.add_source_text(
                rel, text, cxxparse.scan_suppressions(text))
        return proj

    def test_undeclared_edge_and_cycle(self):
        fs = pass_layering.run(self.make_proj(""))
        kinds = [f.message.split()[0] for f in fs]
        self.assertEqual(len(fs), 2)
        self.assertTrue(any("does not declare" in f.message
                            for f in fs))
        self.assertTrue(any("cycle" in f.message for f in fs))
        self.assertTrue(kinds)

    def test_declared_edge_still_cyclic(self):
        fs = pass_layering.run(self.make_proj(" DEPS exma::alpha"))
        self.assertEqual(len(fs), 1)
        self.assertIn("cycle", fs[0].message)

    def test_suppressed_include_edge(self):
        fs = pass_layering.run(self.make_proj("", suppress=True))
        self.assertEqual(len(fs), 1)  # cycle remains, edge suppressed
        self.assertIn("cycle", fs[0].message)

    def test_comment_deps_not_parsed(self):
        proj = Project("/nonexistent")
        proj.add_source_text(
            os.path.join("src", "gamma", "CMakeLists.txt"),
            "# prose about DEPS exma::io here\n"
            "exma_add_module(gamma SOURCES g.cc)\n", {})
        self.assertEqual(pass_layering.load_modules(proj),
                         {"gamma": set()})


class OndiskAbiHelpersTest(unittest.TestCase):

    def test_lock_render_parse_roundtrip(self):
        text = pass_ondisk_abi.render_lock(
            3, "type exma::X size 8 align 8\nfield a offset 0 size 8\n")
        version, payload = pass_ondisk_abi.parse_lock(text)
        self.assertEqual(version, 3)
        self.assertEqual(payload, ["type exma::X size 8 align 8",
                                   "field a offset 0 size 8"])

    def test_spelled_types_and_suppression(self):
        src = ("fb.writeArray<LeafEntry>(1, d);\n"
               "// analyze: allow(ondisk-abi, scratch-only)\n"
               "fb.writeArray<Scratch>(2, d);\n"
               "view.viewArray<u32>(3);\n")
        proj = Project("/nonexistent")
        proj.add_source_text("src/io/w.cc", src,
                             cxxparse.scan_suppressions(src))
        self.assertEqual(pass_ondisk_abi.spelled_types(proj),
                         ["LeafEntry", "u32"])

    def test_probe_covers_records_and_scalars(self):
        src = ("namespace exma {\n"
               "struct LeafEntry { u64 key; u32 flags; };\n"
               "}\n")
        proj = Project("/nonexistent")
        proj.add_source_text("src/io/format.hh", src, {})
        proj.add_ir(parse(src, path="src/io/format.hh"))
        recs, missing = pass_ondisk_abi.locked_records(
            proj, ["LeafEntry", "u32"])
        probe = pass_ondisk_abi.generate_probe(
            proj, ["LeafEntry", "u32"], recs)
        self.assertIn("offsetof(exma::LeafEntry, key)", probe)
        self.assertIn("sizeof(exma::u32)", probe)
        self.assertIn('#include "io/format.hh"', probe)
        self.assertIn("FileHeader", " ".join(missing))


class CompileDbTest(unittest.TestCase):

    def test_frontend_flags_extraction(self):
        e = compiledb.CompileEntry(
            "/r/src/a.cc", "/r/build",
            ["/usr/bin/c++", "-I/r/src", "-isystem", "/opt/inc",
             "-O3", "-DNDEBUG", "-std=c++20", "-o", "a.o", "-c",
             "/r/src/a.cc"])
        self.assertEqual(
            e.frontend_flags(),
            ["-I/r/src", "-isystem", "/opt/inc", "-DNDEBUG",
             "-std=c++20"])


if __name__ == "__main__":
    unittest.main()
