"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``.

They use small invocations so the whole file runs in well under a minute,
and write only under ``.bench_work/selftest`` in the checkout.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run

SMALL = [
    run.Invocation("sweep", "sweep", {"n": 64, "grid": "6x5", "m-max": 40,
                                      "beta-phase": "0.25", "delta-phase": "0.25"}),
    run.Invocation("spectrum", "spectrum", {"n": 1000, "grid": 101}),
    run.Invocation("manifold", "manifold", {"grid": "9x7"}),
    run.Invocation("trace-full", "trace", {"n": 64, "k0": "momentum:0", "m-max": 300}),
]


@pytest.fixture
def workdir(request):
    path = run.WORK / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.fixture(scope="module")
def env():
    return run.child_env(1)[0]


def check(invocations, workdir):
    tally = oracle.Tally()
    for inv in invocations:
        oracle.check_output(inv.label, inv.command, inv.opts, workdir / f"{inv.label}.csv",
                            random.Random(0), tally)
    return tally


def test_small_outputs_agree_with_oracle(workdir, env):
    done = run.run_pass(SMALL, env, workdir, traced=False)
    assert done.failed == 0
    tally = check(SMALL, workdir)
    assert tally.correct
    assert set(tally.columns) >= {"sweep.peak_step", "spectrum.phase_gap",
                                  "manifold.kernel_angle", "trace-full.prob"}
    assert tally.mismatched == 0, tally.columns


def test_perturbed_cell_raises_mismatch_rate(workdir, env):
    inv = run.Invocation("trace", "trace", {"n": 1000, "m-max": 200})
    assert run.run_pass([inv], env, workdir, traced=False).failed == 0
    path = workdir / "trace.csv"
    clean = path.read_text()
    assert check([inv], workdir).mismatched == 0

    def perturbed(delta):
        lines = clean.split("\n")
        m, prob = lines[58].split(",")
        lines[58] = f"{m},{float(prob) + delta!r}"
        path.write_text("\n".join(lines))
        return check([inv], workdir)

    small = perturbed(1e-9)
    assert small.mismatched == 1 and small.checked == 2 * 201
    assert small.correct
    assert not perturbed(1e-3).correct


def test_forced_failure_raises_error_rate(workdir, env):
    bad = run.Invocation("bad", "trace", {"n": 1})
    good = run.Invocation("good", "trace", {"n": 8, "m-max": 5})
    done = run.run_pass([good, bad], env, workdir, traced=False)
    assert (done.attempted, done.failed) == (2, 1)
    assert done.digests["bad"] is None
    assert not check([bad], workdir).correct


def test_self_times_and_overhead_sum_to_traced_wall(workdir, env):
    untraced = run.run_pass(SMALL, env, workdir, traced=False)
    traced = run.run_pass(SMALL, env, workdir, traced=True)
    assert traced.failed == 0 and traced.digests == untraced.digests
    metrics = run.per_layer(traced, untraced.wall_s, run.output_counts(SMALL, workdir))
    self_s = sum(metrics[k] for k in (
        "kernel.self_s", "spectral.self_s", "evolution.self_s", "evolution.stats_s",
        "algebra.self_s", "cli.format_s", "cli.write_s", "process.self_s"))
    assert self_s == pytest.approx(traced.wall_s, abs=1e-6)
    assert untraced.wall_s + metrics["trace.overhead_s"] == pytest.approx(traced.wall_s)
    for layer in ("kernel", "spectral", "evolution", "algebra"):
        assert metrics[f"{layer}.calls"] > 0
    assert metrics["evolution.steps"] == 40 * 30 + 300
    assert metrics["cli.rows"] == 30 + 101 + 63 + 301

    again = run.run_pass(SMALL, env, workdir, traced=True)
    counts = ("calls", "work", "refused")
    assert ({k: {c: v[c] for c in counts} for k, v in again.layers.items()}
            == {k: {c: v[c] for c in counts} for k, v in traced.layers.items()})


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, group):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    done = _bench(["--workload", "torus-sweep", "--seed", "5", "--seconds", "0",
                   "--trace", trace], run.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "torus-sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], workdir)
    assert done.returncode != 0
    assert "correct" not in done.stdout
