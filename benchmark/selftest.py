#!/usr/bin/env python3
"""Self-test of the benchmark; exits 0 when every check passes.

    python3 benchmark/selftest.py

1. A tiny-size run of every workload, traced and untraced, emits
   exactly the metrics BENCHMARK.json names, each with its unit, and
   reports correct with no failed invocation.
2. A truncated .tcb input counts as a failed invocation (exit 3), so
   the failure path that feeds `failed` is live.
3. Run in a directory that holds only BENCHMARK.json and benchmark/,
   the benchmark exits nonzero without printing a result line.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SCALE = 0.02  # inputs of 30k-160k events


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)
    print("ok: " + msg)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def test_tiny_runs(spec):
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--scale", str(SCALE)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            what = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0, "%s exits 0" % what)
            res = result_line(proc.stdout)
            check(res is not None and set(res) ==
                  {"correct", "attempted", "failed", "metrics"},
                  "%s prints the result line" % what)
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  "%s: correct, failed_frac 0" % what)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s emits every %s metric with its unit"
                  % (what, group))


def test_truncated_input():
    scratch = Path(tempfile.mkdtemp(dir=run.BUILD))
    try:
        trace, _, _ = run.generate("fanout", 1, SCALE, scratch)
        data = trace.read_bytes()
        trace.write_bytes(data[:len(data) // 2 + 3])
        inv = run.run_cli(trace, "hb", "tc", False, scratch)
        check(inv.exit_code == 3 and inv.problem is not None,
              "truncated .tcb: exit %d, counted as failed" % inv.exit_code)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_bare_directory():
    bare = Path(tempfile.mkdtemp(dir=run.BUILD))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmark/run.py", "--workload", "fanout",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        check(proc.returncode != 0 and result_line(proc.stdout) is None,
              "bare directory: exit %d, no result line" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.build()
    test_tiny_runs(spec)
    test_truncated_input()
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
