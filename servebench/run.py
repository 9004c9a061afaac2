#!/usr/bin/env python3
"""Serving benchmark: build servebench from this checkout, run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the servebench package (servebench/CMakeLists.txt, which pulls in the
repository's libraries and exma-worker) under .bench_build/; later runs
only rebuild what changed. The last line of standard output is the
result object; a failed build, check or run exits non-zero without it.
Workloads, metrics and the traced run are described in
servebench/README.md.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources at {ROOT}: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "servebench",
           "exma-worker", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def reap_all(pgid):
    """Kill whatever is left of the run's process group and wait for
    every descendant; run.py is their subreaper, so orphaned workers
    come back to it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()

    # servebench writes only under .bench_build/servebench-run of its
    # working directory, the checkout root.
    cmd = [str(BUILD / "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_all(proc.pid)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    reap_all(proc.pid)

    lines = out.splitlines()
    if proc.returncode != 0:
        print("\n".join(lines))
        fail(f"run failed with exit code {proc.returncode}")

    body = lines[:-1]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("\n".join(lines))
        fail("the run printed no result line")
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are not correct/attempted/failed/metrics")
    elif result["correct"] is not True or result["failed"] != 0:
        problems.append("the run reports incorrect or failed work")
    else:
        want = expected_metrics(args.trace)
        if want is not None and set(result["metrics"]) != want:
            problems.append(
                "metrics differ from BENCHMARK.json: missing "
                f"{sorted(want - set(result['metrics']))}, extra "
                f"{sorted(set(result['metrics']) - want)}")
    print("\n".join(body))
    if problems:
        fail("; ".join(problems))
    print(lines[-1])


if __name__ == "__main__":
    main()
