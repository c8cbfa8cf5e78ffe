#!/usr/bin/env python3
"""End-to-end benchmark: race_detector time to verdict on a trace file.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload shb-sync --seed 1 --seconds 20 \
        --trace 0

The first run builds race_detector and the benchmark driver from source
into .bench_build/ (benchmark/CMakeLists.txt). Each run then generates
the workload's input from --seed with src/gen, writes it as .tcb, and
times the shipped CLI on it in a closed loop of one: one invocation at a
time, alternating --clock=tc and --clock=vc, for --seconds seconds, after
one discarded warm-up. Every invocation's report is checked (see
check_* below); failures are counted, not timed.

--trace 0 prints the end-to-end metrics; --trace 1 also runs the traced
driver, which repeats the CLI's calls into each layer in-process and
writes spans, and prints the per-layer metrics derived from them. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
RACE_DETECTOR = BUILD / "repo" / "race_detector"
DRIVER = BUILD / "tcbench_driver"

POS = ("hb", "shb", "maz")
CLOCKS = ("tc", "vc")
# Paper Table 2, PO-only TC-over-VC speedups (printed, never gated).
PAPER_SPEEDUP = {"hb": 2.97, "shb": 2.66, "maz": 2.02}

# name -> (race_detector --po value, --parallel); the inputs are
# defined in driver.cc, the reasons in README.md.
WORKLOADS = {
    "hb-access": ("hb", False),
    "shb-sync": ("shb", False),
    "fanout": ("hb,shb,maz", True),
}

INVOCATION_TIMEOUT_S = 120
# Exit codes race_detector uses for a completed analysis: 0 = no
# race, 2 = races found.
VERDICT_EXIT_CODES = (0, 2)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Set-up cannot proceed: no result line, nonzero exit."""
    log("error: " + msg)
    sys.exit(2)


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_setup("%s is not a checkout of the repository (no "
                   "CMakeLists.txt or src/ beside benchmark/)" % ROOT)
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", str(BUILD), "-j", "4"])
    for exe in (RACE_DETECTOR, DRIVER):
        if not exe.is_file():
            fail_setup("build did not produce %s" % exe)


def run_build_step(cmd):
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail_setup("build step failed: %s" % " ".join(cmd))


# ------------------------------------------------------------ invocations

class Invocation:
    """One finished child process."""

    def __init__(self, cmd, exit_code, wall_s, rss_mib, stdout, stderr):
        self.cmd = cmd
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.rss_mib = rss_mib
        self.stdout = stdout
        self.stderr = stderr
        self.problem = None  # why it counts as failed, if it does
        self.clock = None  # race_detector --clock value
        self.analysis_s = None  # its printed "analysis time"
        self.reports = {}  # "hb/tc" -> counts from its report
        self.oracle = None  # PoOracle racy variables (oracle check)


def invoke(cmd, scratch):
    """Run @cmd to exit; wall time from exec to exit, peak RSS from
    wait4. Output goes to files so the parent never blocks on a
    pipe while the clock runs."""
    out_path = scratch / "stdout.txt"
    err_path = scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S,
                                lambda: os.kill(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # SIGTERM or ^C: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(cmd, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      out_path.read_text(errors="replace"),
                      err_path.read_text(errors="replace"))


REPORT_RE = re.compile(
    r"^--- (?P<name>\w+/\w+) ---\n"
    r"races\s*: (?P<races>\d+) .*\n"
    r"racy variables\s*: (?P<racy>\d+)\n"
    r"clock work\s*: (?P<touched>\d+) entries touched, "
    r"(?P<changed>\d+) entries changed\n"
    r"clock bytes\s*: \d+ resident, \d+ peak$",
    re.M)
ANALYSIS_RE = re.compile(r"^analysis time\s*: ([0-9.]+) s", re.M)


def parse_report(inv):
    """Fill inv.analysis_s and inv.reports {"hb/tc": {...}}; set
    inv.problem when the exit code or the report is wrong."""
    if inv.exit_code not in VERDICT_EXIT_CODES:
        inv.problem = "exit code %d: %s" % (inv.exit_code,
                                            inv.stderr.strip()[-200:])
        return
    m = ANALYSIS_RE.search(inv.stdout)
    if m is None:
        inv.problem = "no 'analysis time' line in the report"
        return
    inv.analysis_s = float(m.group(1))
    for r in REPORT_RE.finditer(inv.stdout):
        inv.reports[r.group("name")] = {
            k: int(r.group(k))
            for k in ("races", "racy", "touched", "changed")}
    if not inv.reports:
        inv.problem = "no per-analysis report block"


def clock_independent(reports):
    """Per-PO fields that must not depend on the clock: races, racy
    variables and entries changed (vtWork)."""
    out = {}
    for name, r in reports.items():
        po = name.split("/")[0]
        out[po] = (r["races"], r["racy"], r["changed"])
    return out


def run_cli(trace_path, po, clock, parallel, scratch):
    cmd = [str(RACE_DETECTOR), "--trace=%s" % trace_path, "--po=%s" % po,
           "--clock=%s" % clock]
    if parallel:
        cmd.append("--parallel")
    inv = invoke(cmd, scratch)
    inv.clock = clock
    parse_report(inv)
    expected = {"%s/%s" % (p, c) for p in po.split(",")
                for c in clock.split(",")}
    if inv.problem is None and set(inv.reports) != expected:
        inv.problem = "reports %s, expected %s" % (sorted(inv.reports),
                                                   sorted(expected))
    return inv


# ---------------------------------------------------------- correctness

def check_against_reference(inv, reference):
    """tc and vc runs must print identical races / racy variables /
    entries-changed lines; so must every repetition."""
    if inv.problem is None and clock_independent(inv.reports) != reference:
        inv.problem = ("clock-independent report fields %s differ from "
                       "the reference %s" % (clock_independent(inv.reports),
                                             reference))


def check_oracle(prefix_path, scratch):
    """CLI racy-variable count per PO on the prefix == PoOracle's."""
    inv = run_cli(prefix_path, ",".join(POS), ",".join(CLOCKS), False,
                  scratch)
    if inv.problem is None:
        proc = subprocess.run([str(DRIVER), "oracle",
                               "--trace=%s" % prefix_path],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            inv.problem = "oracle failed (exit %d)" % proc.returncode
        else:
            oracle = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, r in inv.reports.items():
                po = name.split("/")[0]
                if r["racy"] != oracle[po]:
                    inv.problem = ("%s racy variables %d, oracle %d"
                                   % (name, r["racy"], oracle[po]))
            inv.oracle = oracle
    return inv


# ---------------------------------------------------------------- stamps

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return None
    m = re.search(r"^%s:\w+=(.*)$" % re.escape(key), text, re.M)
    return m.group(1) if m else None


def environment_stamp():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"],
                                 stdout=subprocess.PIPE, text=True)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError, TypeError):
        pass
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        git_rev = proc.stdout.strip() or None
    # The tree the CLI is built from, for checkouts without .git.
    digest = hashlib.sha256()
    sources = [ROOT / "CMakeLists.txt"] + sorted(
        p for d in ("src", "examples") for p in (ROOT / d).rglob("*")
        if p.is_file())
    for p in sources:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_rev": git_rev,
        "source_digest": digest.hexdigest()[:16],
    }


def generate(workload, seed, scale, scratch):
    trace = scratch / ("%s-s%d.tcb" % (workload, seed))
    prefix = scratch / ("%s-s%d.prefix.tcb" % (workload, seed))
    proc = subprocess.run(
        [str(DRIVER), "gen", "--workload=%s" % workload, "--seed=%d" % seed,
         "--scale=%r" % scale, "--out=%s" % trace,
         "--prefix-out=%s" % prefix],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        fail_setup("input generation failed for %s seed %d"
                   % (workload, seed))
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    stamp = {"workload": workload, "seed": seed, "scale": scale,
             "events": info["events"], "bytes": trace.stat().st_size,
             "sha256": sha256_file(trace),
             "prefix_events": info["prefix_events"]}
    return trace, prefix, stamp


# ------------------------------------------------------------- statistics

def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"),) * 2
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------- traced run

def duration_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_time_s(span, spans):
    """Span duration minus the part of it covered by child spans
    (children are sequential, so their durations add)."""
    return duration_s(span) - sum(duration_s(c) for c in spans
                                  if c["parent"] == span["id"])


def traced_run(trace_path, workload, seed, scratch, results):
    po, parallel = WORKLOADS[workload]
    spans_path = results / ("%s-s%d.spans.json" % (workload, seed))
    cmd = [str(DRIVER), "traced", "--trace=%s" % trace_path, "--po=%s" % po,
           "--run=%s/s%d" % (workload, seed), "--spans=%s" % spans_path]
    if parallel:
        cmd.append("--parallel")
    inv = invoke(cmd, scratch)
    if inv.exit_code != 0:
        inv.problem = "traced driver exit %d: %s" % (
            inv.exit_code, inv.stderr.strip()[-200:])
        return inv, None
    return inv, json.loads(spans_path.read_text())["spans"]


def layer_metrics(spans, workload, cli_runs, wall, trace_inv):
    """Per-layer metrics from the spans (see README.md)."""
    po_list = WORKLOADS[workload][0].split(",")
    by_key = {}
    for s in spans:
        clock = s["run"].rsplit("/", 1)[-1]
        by_key.setdefault((s["name"], clock), []).append(s)

    def dur(name, clock):
        return median([duration_s(s) for s in by_key[(name, clock)]])

    def counts(name, clock):
        return by_key[(name, clock)][0]["counts"]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in ("load", "validate", "stats"):
        put("trace.%s_s" % layer,
            median([dur("trace." + layer, c) for c in CLOCKS]), "s")
    drains = by_key[("decode.drain", "io")]
    put("trace.decode_events_per_s",
        median([s["counts"]["events"] / duration_s(s) for s in drains]),
        "events/s")
    for p in POS:
        for c in CLOCKS:
            po_s = dur("engine.po." + p, c)
            run_s = dur("engine.run." + p, c)
            put("analysis.po_s.%s.%s" % (p, c), po_s, "s")
            put("analysis.run_s.%s.%s" % (p, c), run_s, "s")
            put("analysis.access_s.%s.%s" % (p, c), run_s - po_s, "s")
            k = counts("engine.run." + p, c)
            put("analysis.heap_allocs.%s.%s" % (p, c), k["heap_allocs"],
                "count")
            put("core.ds_work.%s.%s" % (p, c), k["ds_work"], "count")
            put("core.useful_ratio.%s.%s" % (p, c),
                k["vt_work"] / k["ds_work"] if k["ds_work"] else 0.0,
                "ratio")
            put("core.deep_copies.%s.%s" % (p, c), k["deep_copies"],
                "count")
            put("core.clock_bytes_peak.%s.%s" % (p, c),
                k["clock_bytes_peak"], "B")
        k = counts("engine.run." + p, "tc")
        put("analysis.races.%s" % p, k["races"], "count")
        put("analysis.racy_vars.%s" % p, k["racy_vars"], "count")
        put("core.vt_work.%s" % p, k["vt_work"], "count")
        put("core.joins.%s" % p, k["joins"], "count")
        put("core.copies.%s" % p, k["copies"], "count")
    for c in CLOCKS:
        seq = dur("pipeline.sequential", c)
        par = dur("pipeline.parallel", c) if ("pipeline.parallel", c) \
            in by_key else seq
        put("pipeline.sequential_s.%s" % c, seq, "s")
        put("pipeline.parallel_s.%s" % c, par, "s")
        put("pipeline.efficiency.%s" % c,
            max(m["analysis.run_s.%s.%s" % (p, c)]["value"]
                for p in po_list) / par, "ratio")
        put("cli.analysis_s.%s" % c,
            median([i.analysis_s for i in cli_runs if i.clock == c]), "s")
        mirror = by_key[("cli_mirror", c)][0]
        put("tracing.overhead_s.%s" % c, duration_s(mirror) - wall[c], "s")
        put("cli_mirror.self_s.%s" % c, self_time_s(mirror, spans), "s")
    put("ratio.wall_vc_over_tc", wall["vc"] / wall["tc"], "ratio")
    for p in POS:
        put("ratio.po_vc_over_tc.%s" % p,
            m["analysis.po_s.%s.vc" % p]["value"]
            / m["analysis.po_s.%s.tc" % p]["value"], "ratio")

    # The traced mirror must reach the CLI's verdicts and counts.
    for c in CLOCKS:
        k = counts("pipeline.run", c)
        cli = next(i for i in cli_runs if i.clock == c and not i.problem)
        for p in po_list:
            r = cli.reports["%s/%s" % (p, c)]
            got = (k["%s/%s.races" % (p, c)], k["%s/%s.racy_vars" % (p, c)],
                   k["%s/%s.ds_work" % (p, c)], k["%s/%s.vt_work" % (p, c)])
            want = (r["races"], r["racy"], r["touched"], r["changed"])
            if got != want:
                trace_inv.problem = ("traced %s/%s (races, racy, touched, "
                                     "changed) %s != CLI %s"
                                     % (p, c, got, want))
    return m


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (self-test only)")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    build()
    po, parallel = WORKLOADS[args.workload]
    scratch = BUILD / "tmp" / ("%s-s%d-%d" % (args.workload, args.seed,
                                              os.getpid()))
    results = BUILD / "results"
    scratch.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, po, parallel, scratch, results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, po, parallel, scratch, results):
    env = environment_stamp()
    trace_path, prefix_path, stamp = generate(args.workload, args.seed,
                                              args.scale, scratch)
    print("workload  : %s (race_detector --po=%s%s)"
          % (args.workload, po, " --parallel" if parallel else ""))
    print("input     : seed %d, %d events, %d bytes, sha256 %s"
          % (args.seed, stamp["events"], stamp["bytes"], stamp["sha256"]))
    print("env       : " + ", ".join("%s=%s" % kv for kv in env.items()))

    invocations = []
    oracle_inv = check_oracle(prefix_path, scratch)
    invocations.append(oracle_inv)

    # Warm page cache and code; checked, not timed.
    warm = run_cli(trace_path, po, "tc", parallel, scratch)
    invocations.append(warm)
    reference = clock_independent(warm.reports) if warm.problem is None \
        else None

    measured = []
    order = ("tc", "vc", "vc", "tc")  # ABBA: cancels linear drift
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(measured) < 2):
        clock = order[len(measured) % len(order)]
        inv = run_cli(trace_path, po, clock, parallel, scratch)
        if reference is None and inv.problem is None:
            reference = clock_independent(inv.reports)
        check_against_reference(inv, reference)
        measured.append(inv)
        invocations.append(inv)
    ok = [i for i in measured if i.problem is None]

    wall = {c: median([i.wall_s for i in ok if i.clock == c])
            for c in CLOCKS}
    rss = {c: median([i.rss_mib for i in ok if i.clock == c])
           for c in CLOCKS}
    setups = [i.wall_s - i.analysis_s for i in ok]

    metrics = {}
    if args.trace == 0:
        for c in CLOCKS:
            metrics["wall_s." + c] = {"value": wall[c], "unit": "s"}
        metrics["setup_s"] = {"value": median(setups), "unit": "s"}
        for c in CLOCKS:
            metrics["peak_rss_mib." + c] = {"value": rss[c], "unit": "MiB"}
    else:
        trace_inv, spans = traced_run(trace_path, args.workload, args.seed,
                                      scratch, results)
        invocations.append(trace_inv)
        if spans is not None and all(any(i.clock == c for i in ok)
                                     for c in CLOCKS):
            metrics = layer_metrics(spans, args.workload, ok, wall,
                                    trace_inv)

    failed = [i for i in invocations if i.problem is not None]
    problems = {}
    for i in failed:
        key = "%s: %s" % (" ".join(i.cmd[1:]), i.problem)
        problems[key] = problems.get(key, 0) + 1
    for key, n in problems.items():
        log("failed (%d×): %s" % (n, key))

    for c in CLOCKS:
        walls = [i.wall_s for i in ok if i.clock == c]
        if walls:
            q1, q3 = quartiles(walls)
            print("wall %s    : median %.4f s, q1 %.4f, q3 %.4f (n=%d)"
                  % (c, median(walls), q1, q3, len(walls)))
    if setups:
        print("setup     : median %.4f s (n=%d, both clocks)"
              % (median(setups), len(setups)))
    print("failed    : %d of %d invocations (failed_frac %.4f)"
          % (len(failed), len(invocations),
             len(failed) / len(invocations)))
    if ok and wall["tc"] > 0:
        pos = po.split(",")
        paper = ", ".join("%s %.2f" % (p.upper(), PAPER_SPEEDUP[p])
                          for p in pos)
        print("vc/tc     : wall %.3f (paper Table 2 PO-only: %s; not "
              "gated)" % (wall["vc"] / wall["tc"], paper))
    if "ratio.wall_vc_over_tc" in metrics:
        for p in POS:
            print("vc/tc %-4s: PO-only %.3f (paper %.2f; not gated)"
                  % (p, metrics["ratio.po_vc_over_tc." + p]["value"],
                     PAPER_SPEEDUP[p]))
    for name, v in sorted(metrics.items()):
        print("%-34s %.6g %s" % (name, v["value"], v["unit"]))

    # A metric with no successful sample has no value; the failures
    # already make the run incorrect.
    metrics = {k: v for k, v in metrics.items()
               if math.isfinite(v["value"])}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "input": stamp,
              "env": env, "metrics": metrics,
              "oracle_racy_vars": oracle_inv.oracle,
              "invocations": [{"cmd": i.cmd[1:], "exit": i.exit_code,
                               "wall_s": i.wall_s, "rss_mib": i.rss_mib,
                               "analysis_s": i.analysis_s,
                               "problem": i.problem}
                              for i in invocations]}
    (results / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1))
    return {"correct": not failed and bool(metrics),
            "attempted": len(invocations), "failed": len(failed),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
