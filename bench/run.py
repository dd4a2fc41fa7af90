#!/usr/bin/env python3
"""groverlab benchmark: timed CLI workloads, an mpmath output check and a
traced per-layer run.

    python3 bench/run.py --workload torus-sweep --seed 1 --seconds 55 --trace 0

Run from anywhere; it works on the checkout it sits in (``src/groverlab``)
and writes only under ``.bench_work/`` there.  Each workload is a fixed list
of CLI invocations run one child process at a time, closed loop, for
``--seconds`` seconds of repeated passes; this process and its children are
pinned to one CPU.  ``--trace 0`` reports the end-to-end metrics (medians
over passes, tracing off); ``--trace 1`` alternates untraced passes with
passes whose children run under the span tracer, and reports per-layer self
times and counts.  Either way the outputs of the last pass are checked
against ``oracle.py``.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_PASS = 2
REFERENCE_PER_PASS = 5
REFERENCE_STEPS = 30000
SETUP_ARGV = ["-c", "import groverlab.cli"]
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Invocation:
    """One CLI run: ``groverlab <command> --<flag>=<value>...``."""

    label: str
    command: str
    opts: dict

    def argv(self) -> list[str]:
        return [self.command, *(f"--{k}={v}" for k, v in self.opts.items())]


# Why each workload: see bench/README.md.
WORKLOADS = {
    # 4096 short reduced traces: the grid loop and per-point evolution.
    "torus-sweep": lambda anchor: [
        Invocation("sweep", "sweep", {"n": 1000, "grid": "64x64", "m-max": 300,
                                      "beta-phase": anchor, "delta-phase": anchor})],
    # One 1e6-step trajectory (formatting and the write dominate), then the
    # O(N)-per-step full-space path.
    "long-trace": lambda anchor: [
        Invocation("trace-reduced", "trace", {"n": 1000000, "m-max": 1000000}),
        Invocation("trace-full", "trace", {"n": 4096, "k0": "momentum:0", "m-max": 20000})],
    # No evolution: per-point spectra at N = 1e9 and the SU(2) manifold.
    "spectral-scan": lambda anchor: [
        Invocation("spectrum", "spectrum", {"n": 1000000000, "grid": 20001}),
        Invocation("manifold", "manifold", {"grid": "200x200"})],
}


def workload(name: str, rng: random.Random) -> list[Invocation]:
    """The seed picks the sweep's anchor phase; problem sizes are fixed."""
    return WORKLOADS[name](repr(rng.uniform(-math.pi, math.pi)))


def reference_s() -> float:
    """Wall time of a fixed task in this process: 2x2 complex products and
    17-digit formatting, the operations the workloads spend their time on.

    A shared machine's speed can drift by tens of percent over minutes; a
    pass wall divided by this reference, measured alongside it, does not.
    """
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    v = np.array([1.0, 0.0], dtype=complex)
    cells = []
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        v = m @ v
        cells.append(f"{abs(v[0]) ** 2:.17g}")
    "\n".join(cells)
    return time.perf_counter() - start


def child_env(nproc: int) -> tuple[dict, dict]:
    """Environment for CLI children, with BLAS/OpenMP threads capped at ``nproc``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = {}
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        threads[var] = str(max(1, min(wanted, nproc)))
    env.update(threads)
    return env, threads


def spawn(argv: list[str], env: dict, stem: Path) -> tuple[float, bool]:
    """Run one child to completion: its wall time, and whether it exited 0
    without printing a traceback."""
    with open(stem.with_suffix(".stdout"), "wb") as out, \
            open(stem.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    traceback = b"Traceback" in stem.with_suffix(".stderr").read_bytes()
    return wall, code == 0 and not traceback


@dataclass
class Pass:
    wall_s: float
    rss_kib: int
    attempted: int
    failed: int
    digests: dict
    layers: dict | None = None


def run_pass(invocations, env, workdir: Path, traced: bool) -> Pass:
    wall, rss, failed, digests, layers = 0.0, 0, 0, {}, {}
    for inv in invocations:
        out, spans, report = (workdir / f"{inv.label}.{ext}" for ext in ("csv", "spans", "rss"))
        for stale in (out, spans, report):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(report),
                str(spans) if traced else "-", *inv.argv(), f"--out={out}"]
        child_wall, ok = spawn(argv, env, workdir / inv.label)
        wall += child_wall
        failed += not ok
        if report.exists():
            rss = max(rss, int(report.read_text()))
        digests[inv.label] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        if traced and spans.exists():
            for layer, totals in tracer.layer_totals(spans, child_wall).items():
                acc = layers.setdefault(layer, dict.fromkeys(totals, 0))
                for key, value in totals.items():
                    acc[key] += value
    return Pass(wall, rss, len(invocations), failed, digests, layers if traced else None)


def output_counts(invocations, workdir: Path) -> dict:
    """Rows, cells and bytes of the CSV the last pass wrote."""
    rows = cells = size = 0
    for inv in invocations:
        data = (workdir / f"{inv.label}.csv").read_bytes()
        width = data[:data.index(b"\n")].count(b",") + 1
        n_rows = data.count(b"\n") - 1
        rows, cells, size = rows + n_rows, cells + n_rows * width, size + len(data)
    return {"cli.rows": rows, "cli.cells": cells, "cli.bytes": size}


def per_layer(traced: Pass, untraced_wall: float, counts: dict) -> dict:
    t = traced.layers
    steps = t["evolution"]["work"]
    return {
        "kernel.self_s": t["kernel"]["self_s"],
        "kernel.calls": t["kernel"]["calls"],
        "spectral.self_s": t["spectral"]["self_s"],
        "spectral.calls": t["spectral"]["calls"],
        "spectral.refused": t["spectral"]["refused"],
        "evolution.self_s": t["evolution"]["self_s"],
        "evolution.calls": t["evolution"]["calls"],
        "evolution.steps": steps,
        "evolution.ns_per_step": t["evolution"]["self_s"] * 1e9 / steps if steps else 0.0,
        "evolution.stats_s": t["evolution.stats"]["self_s"],
        "algebra.self_s": t["algebra"]["self_s"],
        "algebra.calls": t["algebra"]["calls"],
        "cli.format_s": t["cli.format"]["self_s"],
        "cli.write_s": t["cli.write"]["self_s"],
        **counts,
        "process.self_s": t[tracer.OUTSIDE]["self_s"],
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall,
    }


UNITS = {"_s": "s", "_mb": "MB", "_rate": "ratio", "_rel": "ratio", "ns_per_step": "ns",
         "bytes": "bytes"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def environment(nproc: int, threads: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "groverlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc, "cpu_model": cpu,
            "thread_env": threads}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "groverlab" / "cli.py").is_file():
        print(f"error: no groverlab sources under {SRC}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    nproc, pinned = len(cpus), max(cpus)
    # One CPU for this process and every child (they inherit the affinity),
    # so the reference loop and the passes share its speed.
    os.sched_setaffinity(0, {pinned})
    usable = len(os.sched_getaffinity(0))
    env, threads = child_env(usable)
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    invocations = workload(args.workload, rng)
    print("env " + json.dumps({
        **environment(nproc, threads), "pinned_cpu": pinned,
        "thread_cap": f"each capped at {usable}, the CPUs the children may use"}))
    for inv in invocations:
        print(f"invocation {inv.label}: groverlab {' '.join(inv.argv())}")

    def setup_once() -> float:
        return spawn([sys.executable, *SETUP_ARGV], env, workdir / "setup")[0]

    setup_once()  # untimed warm-up: the first import fills the bytecode cache
    setup, reference, untraced, traced = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if args.trace:
            order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        else:
            # Set-up samples are spread over the run, as the passes are, so
            # that a drift in machine speed reaches both alike.
            setup += [setup_once() for _ in range(SETUP_PER_PASS)]
            reference += [reference_s() for _ in range(REFERENCE_PER_PASS)]
            order = (False,)
        for is_traced in order:
            done = run_pass(invocations, env, workdir, is_traced)
            (traced if is_traced else untraced).append(done)
        # Start no round that would end after --seconds.
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    measured = time.perf_counter() - start

    tally = oracle.Tally()
    for inv in invocations:
        oracle.check_output(inv.label, inv.command, inv.opts, workdir / f"{inv.label}.csv",
                            rng, tally)
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    stable = all(p.digests == passes[0].digests for p in passes)
    correct = tally.correct and failed == 0 and stable
    mismatch_rate = tally.mismatched / tally.checked if tally.checked else 1.0

    walls = [p.wall_s for p in untraced]
    wall_s = statistics.median(walls)
    q1, q3 = quartiles(walls)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced in {measured:.1f} s; "
          f"wall_s quartiles {q1:.4f} {q3:.4f}; untraced pass walls "
          + " ".join(f"{w:.4f}" for w in walls))
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"oracle_mismatch_rate {tally.mismatched}/{tally.checked} = {mismatch_rate:.6g} ratio "
          f"(gross errors {tally.gross}; outputs identical across passes: {stable})")
    for column, (checked, bad, gross, worst) in tally.columns.items():
        print(f"  oracle {column}: {bad}/{checked} beyond tolerance, {gross} gross, "
              f"worst {worst:.3g}")
    for problem in tally.malformed:
        print(f"  malformed: {problem}")

    if args.trace:
        ranked = sorted(traced, key=lambda p: p.wall_s)
        median_pass = ranked[(len(ranked) - 1) // 2]
        metrics = per_layer(median_pass, wall_s, output_counts(invocations, workdir))
        metrics["oracle_mismatch_rate"] = mismatch_rate
    else:
        print(f"wall_s {wall_s:.6g} s (median pass); reference_s "
              f"{statistics.median(reference):.6g} s (median of {len(reference)})")
        metrics = {"wall_rel": wall_s / statistics.median(reference),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(p.rss_kib for p in untraced) / 1024}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
