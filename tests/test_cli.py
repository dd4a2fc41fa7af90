import contextlib
import ctypes
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groverlab
from groverlab import cli, evolution
from groverlab.cli import ExperimentConfig, wrap_angle
from groverlab.evolution import probability_trace, uniform_initial
from groverlab.kernel import GroverPhases, ReducedKernel, reduced_kernel, unit_phases
from groverlab.spectral import stability_expansion


def run(capsys, *args):
    rc = cli.main(list(args))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def fmt(x: float) -> str:
    """A float cell as the CLI prints it: 17 significant digits."""
    return f"{x:.17g}"


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def peak_rss_kib(*argv) -> int:
    """Peak RSS (VmHWM) in KiB of a child that runs ``groverlab *argv --out os.devnull``."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": _PACKAGE_PATH})
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])  # after a trace's summary line


def _has_mallopt() -> bool:
    """Whether the C library has glibc's mallopt, which cli.main calls."""
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestHelpers:
    def test_wrap_angle_principal_range(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # (-pi, pi]
        assert wrap_angle(-0.25) == pytest.approx(-0.25)

    def test_fmt_round_trips_doubles(self):
        for x in (0.5, 1 / 3, 0.1 + 0.2, math.pi, 1e-300):
            assert float(fmt(x)) == x

    def test_wrap_angle_is_elementwise_math_remainder(self):
        t = np.concatenate([np.linspace(-20, 20, 4001), [0.0, -0.0, math.pi, -math.pi,
                            2 * math.pi, -2 * math.pi, 1e300, -1e300, 5e-324]])
        expected = [math.remainder(x, 2 * math.pi) for x in t.tolist()]
        expected = [w if w > -math.pi else w + 2 * math.pi for w in expected]
        assert np.array_equal(np.signbit(wrap_angle(t)), np.signbit(expected))
        assert wrap_angle(t).tolist() == expected


# Per grid command: a grid below its least size, and one over MAX_GRID_POINTS.
GRID_LIMITS = {"sweep": ("1x5", "1001x1000"), "spectrum": ("1", "1000001"),
               "asymptotics": ("1", "1000001"), "manifold": ("0x3", "1001x1000")}


class TestGrid:
    """One --grid reader serves the four grid commands."""

    @pytest.mark.parametrize("command", list(GRID_LIMITS))
    @pytest.mark.parametrize("kind", ["malformed", "three-part", "small", "over", "1e20"])
    def test_refused_under_the_command_name(self, capsys, command, kind):
        small, over = GRID_LIMITS[command]
        grid = {"malformed": "axb", "three-part": "2x3x4", "small": small, "over": over,
                "1e20": str(10**20)}[kind]
        rc, out, err = run(capsys, command, "--grid", grid)
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {command} ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if kind == "over":
            assert err.endswith(f" points (limit {cli.MAX_GRID_POINTS})\n")

    def test_sweep_without_grid(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100")
        assert (rc, out, err) == (1, "", "error: sweep needs --grid <p>x<q> with p, q >= 2, "
                                         "got None\n")

    def test_spellings(self, capsys):
        rc, out, err = run(capsys, "manifold", "--grid", "4X6")
        assert rc == 0 and len(parse_csv(out)[1]) == 24
        rc, out, err = run(capsys, "sweep", "--grid", "3X2", "--m-max", "2")
        assert rc == 0 and len(parse_csv(out)[1]) == 6
        for command in ("spectrum", "asymptotics"):
            assert run(capsys, command, "--grid", "8x1") == run(capsys, command, "--grid", "8")

    @pytest.mark.parametrize("command,name", [("spectrum", "beta_phase"),
                                              ("spectrum", "delta_phase"),
                                              ("asymptotics", "delta_phase")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_diagonal_refuses_the_phase_it_ignores(self, capsys, tmp_path, command, name,
                                                   source):
        if source == "flag":
            extra = [cli._flag(name), "0.3"]
        else:
            (tmp_path / "run.cfg").write_text(f"{name}=0.3\n")
            extra = ["--config", str(tmp_path / "run.cfg")]
        rc, out, err = run(capsys, command, "--n", "1000", "--grid", "11", *extra)
        assert (rc, out) == (1, "")
        assert err == f"error: {command} --grid sweeps the diagonal; drop {cli._flag(name)}\n"
        # One point takes the phase; a zero phase is the diagonal's own.
        assert run(capsys, command, "--n", "1000", *extra)[0] == 0
        assert run(capsys, command, "--n", "1000", "--grid", "11", cli._flag(name), "0")[0] == 0

    @pytest.mark.parametrize("argv", [
        *([command, "--grid", grid] for command, limits in GRID_LIMITS.items()
          for grid in ("axb", *limits)),
        ["sweep", "--n", "100"],
        ["sweep", "--n", "1000", "--grid", "4x4", "--b", "40"],
        ["sweep", "--n", "2", "--grid", "4x4", "--a", "1e-300", "--b", "1"],
        ["sweep", "--grid", "4x4", "--alpha1", "0.3", "--b", "0.5"],
        ["sweep", "--grid", "4x4", "--m-max", "0"],
        ["spectrum", "--grid", "11", "--beta-phase", "0.3"],
        ["spectrum", "--grid", "11", "--delta-phase", "0.3"],
        ["spectrum", "--grid", "11", "--alpha1", "1"],
        ["asymptotics", "--grid", "11", "--delta-phase", "0.3"],
        ["asymptotics", "--n", "1", "--grid", "11"],
        ["manifold", "--n", "1"],
    ], ids=" ".join)
    def test_refusal_comes_before_out_is_opened(self, tmp_path, capsys, argv):
        """The body is computed as it is written, but every refusal is made
        first: exit 1, nothing on stdout, and no --out file."""
        path = tmp_path / "out.csv"
        rc, out, err = run(capsys, *argv, "--out", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.exists()

    def test_alpha1_with_n_stays_accepted(self, capsys):
        for command in ("spectrum", "asymptotics"):
            rc, out, err = run(capsys, command, "--n", "1000", "--grid", "11",
                               "--alpha1", "0.03162277660168379")
            assert (rc, err) == (0, "")


# One valid, non-default value for every option.
VALUES = {"n": "123", "beta_phase": "0.1", "delta_phase": "-2.5", "m_max": "77",
          "a": "1.5", "b": "0.5", "k0": "momentum:3", "alpha1": "0.25", "grid": "4x4",
          "out": "x.csv", "seed": "9", "tolerance": "1e-3"}


def reads(command):
    return cli.COMMANDS[command][1].split()


class TestConfigFile:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_config_file_matches_flags(self, tmp_path, command):
        values = {k: VALUES[k] for k in reads(command)}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        flags = [x for k, v in values.items() for x in ("--" + k.replace("_", "-"), v)]
        via_file = cli.parse_config([command, "--config", str(path)])
        via_flags = cli.parse_config([command, *flags])
        assert via_file == via_flags
        casts = {name: cast for name, cast, _ in cli.OPTIONS}
        assert {k: getattr(via_file, k) for k in values} == {
            k: casts[k](v) for k, v in values.items()}

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nn=42\nbeta_phase=0.5\n")
        values = ExperimentConfig.read_file(str(path))
        assert values == {"n": 42, "beta_phase": 0.5}

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("frobnicate=1\n")
        with pytest.raises(cli.UsageError):
            ExperimentConfig.read_file(str(path))

    def test_rejects_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n=lots\n")
        with pytest.raises(cli.UsageError):
            ExperimentConfig.read_file(str(path))

    def test_cli_reads_config_and_flags_override(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("n=4\nm_max=2\n")
        rc, out, err = run(capsys, "trace", "--config", str(path))
        assert rc == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3  # m = 0, 1, 2
        assert float(rows[0][1]) == pytest.approx(0.25)
        rc, out, err = run(capsys, "trace", "--config", str(path), "--n", "100")
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.01)

    def test_missing_config_file_is_io_error(self, capsys):
        rc, out, err = run(capsys, "trace", "--config", "/nonexistent/c.cfg")
        assert rc == 3


class TestTrace:
    def test_header_and_stationary_size_two(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "2", "--m-max", "4")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["m", "prob"]
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        for r in rows:
            assert float(r[1]) == pytest.approx(0.5, abs=1e-12)
        assert "peak_prob=" in err and "maxima_count=" in err

    def test_textbook_summary_counts(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "1000")
        assert rc == 0
        assert "maxima_count=20" in err
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "1000",
                           "--beta-phase", fmt(math.pi / 2),
                           "--delta-phase", fmt(math.pi / 2))
        assert rc == 0
        assert "maxima_count=14" in err

    def test_file_output_moves_summary_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        rc, out, err = run(capsys, "trace", "--n", "4", "--m-max", "3",
                           "--out", str(path))
        assert rc == 0
        assert err == ""
        assert "peak_prob=" in out
        content = path.read_bytes()
        assert b"\r" not in content
        assert content.startswith(b"m,prob\n")

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trace", "--n", "1000", "--m-max", "200",
                "--beta-phase", "0.3", "--delta-phase", "-1.1"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tmp_path, capsys):
        args = ["trace", "--n", "1000", "--m-max", "20000"]
        rc, out, err = run(capsys, *args)
        assert rc == 0
        digest = "f49c13fefee5720ac87c52162440154c1de0a6bec8d51bc611791e4f44476828"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        path = tmp_path / "t.csv"
        rc, summary, _ = run(capsys, *args, "--out", str(path))
        assert rc == 0
        assert path.read_bytes() == out.encode()
        assert out.count("m,prob") == 1
        assert summary == err

    def test_rows_are_fmt_cells(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "300",
                           "--beta-phase", "0.3", "--delta-phase", "-1.1")
        assert rc == 0
        phases = GroverPhases.from_angles(0.3, -1.1)
        probs = probability_trace(reduced_kernel(phases.beta, phases.delta, 1000),
                                  uniform_initial(1000), 300).probs
        assert out == "m,prob\n" + "".join(f"{m},{fmt(p)}\n" for m, p in enumerate(probs))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_memory_per_step(self):
        """A trace keeps one block of probabilities and text at a time, so its
        peak RSS does not grow with its length: at 2e6 steps it is within
        2 MB of the peak at 2e5 steps (under 0.1 MB measured; 14 MB when the
        trace held its probabilities)."""
        peaks = [peak_rss_kib("trace", "--n", "1000000", "--m-max", str(steps))
                 for steps in (200000, 2000000)]
        growth = (peaks[1] - peaks[0]) / 1024
        assert growth <= 2, f"peak RSS grew by {growth:.1f} MB"

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_blocks_reuse_their_memory(self, tmp_path):
        """The trace formats its 1e6 rows in blocks that reuse one working
        set: beyond what the import takes, the child has fewer than 10,000
        minor page faults (about 1,500 measured; 34,000-68,000 when glibc
        returns each block's temporaries to the kernel)."""
        resource = pytest.importorskip("resource")
        env = {**os.environ, "PYTHONPATH": _PACKAGE_PATH}

        def minor_faults(*args):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            subprocess.run([sys.executable, *args], env=env, check=True, timeout=120,
                           stdout=subprocess.DEVNULL)
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        extra = (minor_faults("-m", "groverlab.cli", "trace", "--n", "1000000",
                              "--m-max", "1000000", "--out", str(tmp_path / "trace.csv"))
                 - minor_faults("-c", "import groverlab.cli"))
        assert extra < 10000, f"{extra} minor page faults beyond the import"

    @pytest.mark.parametrize("argv", [
        ["--n", "1000", "--beta-phase", "0.3"],
        ["--alpha1", "0.3"],
        ["--n", "64", "--k0", "momentum:3"],
        ["--n", "64", "--k0", "momentum:3", "--a", "1.5", "--delta-phase", "1"],
    ], ids=["reduced", "alpha1", "k0", "k0-a"])
    def test_blocks_of_seven_give_the_same_bytes(self, tmp_path, capsys, monkeypatch, argv):
        """Evaluated, summarized and written in blocks of 7 steps, the CSV,
        the summary and the exit code are those of blocks of BLOCK."""
        argv = ["trace", "--m-max", "98", *argv]  # 99 rows: a last block of one
        path = tmp_path / "t.csv"
        whole = run(capsys, *argv), run(capsys, *argv, "--out", str(path)), path.read_bytes()
        monkeypatch.setattr(evolution, "BLOCK", 7)
        assert (run(capsys, *argv), run(capsys, *argv, "--out", str(path)),
                path.read_bytes()) == whole
        assert whole[0][2] == whole[1][1] != ""  # the summary: stderr, or stdout with --out

    @pytest.mark.parametrize("argv", [
        ["--k0", "file:{bad}"],
        ["--k0", "file:{short}"],
        ["--k0", "momentum:3", "--a", "1", "--b", "0.2"],
        ["--a", "1", "--b", "0.2"],
    ], ids=["unparsable-k0", "short-k0", "k0-a-b", "a-b"])
    def test_refused_trace_writes_no_file(self, tmp_path, capsys, argv):
        (tmp_path / "bad.txt").write_text("not numbers\n")
        np.savetxt(tmp_path / "short.txt", np.full(3, 1 / math.sqrt(3)))
        path = tmp_path / "t.csv"
        argv = [a.format(bad=tmp_path / "bad.txt", short=tmp_path / "short.txt") for a in argv]
        rc, out, err = run(capsys, "trace", "--n", "4", "--m-max", "5", *argv, "--out", str(path))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ")
        assert not path.exists()

    def test_partial_initial_state_flags(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "2",
                           "--a", "2")
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(4 / 1000)
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "2",
                           "--b", "0.5")
        assert rc == 0
        _, rows = parse_csv(out)
        # a backfills to keep the state normalized
        a2 = 1000 - 0.25 * 999
        assert float(rows[0][1]) == pytest.approx(a2 / 1000)

    def test_non_finite_coefficients_rejected(self, capsys):
        for flag in ("--a", "--b"):
            rc, out, err = run(capsys, "trace", "--n", "100", "--m-max", "5",
                               flag, "nan")
            assert rc == 1
            assert out == ""
            assert "error:" in err

    def test_inconsistent_a_b_rejected(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "2",
                           "--a", "1", "--b", "0.2")
        assert rc == 1
        assert "error:" in err

    def test_nearly_consistent_a_b_renormalized(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1000", "--m-max", "2",
                           "--a", "1", "--b", str(1 + 1e-8))
        assert rc == 0

    def test_extended_overlap_path(self, capsys):
        # alpha1 = 1/2 behaves exactly like the size-4 uniform kernel
        rc, out, err = run(capsys, "trace", "--alpha1", "0.5", "--m-max", "3")
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.25)
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)

    def test_momentum_direction_runs_full_space(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "16", "--m-max", "10",
                           "--k0", "momentum:5")
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(1 / 16)
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0 + 1e-12

    def test_k0_file_matches_uniform(self, tmp_path, capsys):
        n = 8
        path = tmp_path / "k0.txt"
        np.savetxt(path, np.column_stack([np.full(n, 1 / math.sqrt(n)),
                                          np.zeros(n)]))
        rc, out_file, err = run(capsys, "trace", "--n", "8", "--m-max", "50",
                                "--k0", f"file:{path}")
        assert rc == 0
        rc, out_uniform, err = run(capsys, "trace", "--n", "8", "--m-max", "50")
        assert rc == 0
        _, rows_f = parse_csv(out_file)
        _, rows_u = parse_csv(out_uniform)
        diffs = [abs(float(a[1]) - float(b[1])) for a, b in zip(rows_f, rows_u)]
        assert max(diffs) <= 1e-10

    @pytest.mark.parametrize("n,wavenumbers", [
        (64, range(64)),
        (4096, np.random.default_rng(4096).integers(0, 4096, 8).tolist())], ids=["64", "4096"])
    @pytest.mark.parametrize("phases", [[], ["--beta-phase", "0.3", "--delta-phase", "-1.1"]],
                             ids=["balanced", "unbalanced"])
    def test_every_momentum_direction_traces_like_uniform(self, capsys, n, wavenumbers, phases):
        """|<x0|k>| = 1/sqrt(N) for every wavenumber, so each momentum k0
        gives the uniform trace."""
        common = ["--n", str(n), "--m-max", "300", *phases]
        _, uniform = parse_csv(run(capsys, "trace", *common)[1])
        want = np.array([float(r[1]) for r in uniform])
        for y0 in wavenumbers:
            rc, out, _ = run(capsys, "trace", *common, "--k0", f"momentum:{y0}")
            assert rc == 0
            got = np.array([float(r[1]) for r in parse_csv(out)[1]])
            assert np.max(np.abs(got - want)) <= 1e-12, f"momentum:{y0}"

    def test_k0_file_single_column(self, tmp_path, capsys):
        n = 4
        path = tmp_path / "k0.txt"
        np.savetxt(path, np.full(n, 0.5))
        rc, out, err = run(capsys, "trace", "--n", "4", "--m-max", "3",
                           "--k0", f"file:{path}")
        assert rc == 0

    def test_k0_file_errors(self, tmp_path, capsys):
        rc, *_ = run(capsys, "trace", "--n", "4", "--k0", "file:/no/such/file")
        assert rc == 3
        bad = tmp_path / "bad.txt"
        bad.write_text("not numbers\n")
        rc, *_ = run(capsys, "trace", "--n", "4", "--k0", f"file:{bad}")
        assert rc == 1
        short = tmp_path / "short.txt"
        np.savetxt(short, np.full(3, 1 / math.sqrt(3)))
        rc, *_ = run(capsys, "trace", "--n", "4", "--k0", f"file:{short}")
        assert rc == 1
        unnorm = tmp_path / "unnorm.txt"
        np.savetxt(unnorm, np.full(4, 1.0))
        rc, *_ = run(capsys, "trace", "--n", "4", "--k0", f"file:{unnorm}")
        assert rc == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
    def test_empty_k0_file_refused_like_a_short_one(self, tmp_path, capsys, text):
        """numpy's "input contained no data" warning does not leak: the file
        is refused for its row count, with nothing else on stderr."""
        path = tmp_path / "k0.txt"
        path.write_text(text)
        assert run(capsys, "trace", "--n", "2", "--k0", f"file:{path}") == (
            1, "", "error: k0 file has 0 amplitudes, expected 2\n")

    def test_bad_k0_scheme(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "4", "--k0", "quantum")
        assert rc == 1
        rc, out, err = run(capsys, "trace", "--n", "4", "--k0", "momentum:9")
        assert rc == 1
        rc, out, err = run(capsys, "trace", "--n", "4", "--k0", "momentum:x")
        assert rc == 1


class TestSweep:
    def test_grid_rows_and_diagonal_predictions(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100", "--m-max", "60",
                           "--grid", "4x4")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["beta_phase", "delta_phase", "g_abs",
                          "peak_prob", "peak_step", "pred_M"]
        assert len(rows) == 16
        for r in rows:
            g_abs = float(r[2])
            if g_abs <= 1e-12:
                phi = float(r[1])
                if abs(abs(phi) - math.pi) < 1e-9:
                    assert r[5] == ""  # period diverges at the far end
                else:
                    assert r[5] != ""
            else:
                assert r[5] == ""

    def test_trivial_point_peaks_at_initial_probability(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100", "--m-max", "30",
                           "--beta-phase", fmt(math.pi),
                           "--delta-phase", fmt(math.pi), "--grid", "2x2")
        assert rc == 0
        _, rows = parse_csv(out)
        # first row sits at (pi, pi): the kernel is the identity member
        assert float(rows[0][3]) == pytest.approx(0.01, abs=1e-9)

    def test_suppressed_row_bound(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "1000", "--m-max", "1000",
                           "--beta-phase", fmt(math.pi / 2),
                           "--delta-phase", fmt(math.pi / 2 + 1.25),
                           "--grid", "2x2")
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][2]) >= 0.5  # well-detuned coupling
        assert float(rows[0][3]) <= 0.0021923

    def test_alpha1_traces_the_overlap_kernel(self, capsys):
        # The (0, 0) point is the alpha1 = 1/2 kernel: it peaks where pred_M says.
        rc, out, err = run(capsys, "sweep", "--n", "100", "--alpha1", "0.5",
                           "--grid", "2x2", "--m-max", "20")
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows[0][:2] == ["0", "0"]
        assert rows[0][4] == rows[0][5] == "1"
        rc, out, err = run(capsys, "trace", "--alpha1", "0.5", "--m-max", "20")
        assert f"peak_prob={rows[0][3]} peak_step=1 " in err

    @pytest.mark.parametrize("extra", [[], ["--a", "2"], ["--b", "0.9"], ["--alpha1", "0.3"]],
                             ids=["n", "a", "b", "alpha1"])
    @pytest.mark.parametrize("block", [evolution.BLOCK, 20], ids=["block", "one-trace-per-call"])
    def test_peaks_match_single_kernel_traces(self, capsys, monkeypatch, extra, block):
        """Each row's peak, folded over blocks of steps, is the one-kernel
        trace's; at 20, 20-kernel blocks of one step each."""
        argv = ["sweep", "--n", "100", "--grid", "7x5", "--m-max", "60",
                "--beta-phase", "0.3", "--delta-phase", "-2", *extra]
        monkeypatch.setattr(evolution, "BLOCK", block)
        monkeypatch.setattr(cli, "GRID_BLOCK", block)  # 20 does not divide the 35 points
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 35
        cfg = cli.parse_config(argv)
        kernels_of, size, start = cli._reduced_problem(cfg)
        for r in rows:
            kernels = kernels_of(unit_phases([float(r[0])]), unit_phases([float(r[1])]))
            t = probability_trace(ReducedKernel(kernels[0], size), start, cfg.m_max)
            assert r[3:5] == [fmt(t.peak_prob), str(t.peak_step)]

    def test_ties_keep_the_first_step(self, capsys, monkeypatch):
        """At (pi, pi) the kernel is a phase times the identity, so P(m) is
        1/N at every step: the peak is step 0 however the steps are cut."""
        argv = ["sweep", "--n", "100", "--m-max", "30", "--beta-phase", fmt(math.pi),
                "--delta-phase", fmt(math.pi), "--grid", "2x2"]
        kernels_of, size, start = cli._reduced_problem(cli.parse_config(argv))
        kernel = kernels_of(unit_phases([math.pi]), unit_phases([math.pi]))[0]
        flat = probability_trace(ReducedKernel(kernel, size), start, 30).probs
        assert np.all(flat == flat[0])
        for block in (evolution.BLOCK, 1, 5):
            monkeypatch.setattr(evolution, "BLOCK", block)
            rc, out, err = run(capsys, *argv)
            assert rc == 0
            assert parse_csv(out)[1][0][3:5] == [fmt(flat[0]), "0"]

    def test_memory_per_step(self):
        """A sweep folds each row's peak over blocks of steps, so its peak RSS
        does not grow with --m-max: at 2e6 steps it is within 2 MB of the
        peak at 2e5 steps (about 28 MB more when every kernel's whole trace
        was held)."""
        peaks = [peak_rss_kib("sweep", "--n", "1000", "--grid", "2x2", "--m-max", str(steps))
                 for steps in (200000, 2000000)]
        growth = (peaks[1] - peaks[0]) / 1024
        assert growth <= 2, f"peak RSS grew by {growth:.1f} MB"

    def test_requires_grid(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100")
        assert rc == 1

    def test_rejects_thin_grid(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100", "--grid", "1x5")
        assert rc == 1

    def test_rejects_oversized_grid(self, capsys):
        rc, out, err = run(capsys, "sweep", "--n", "100", "--grid", "1200x1200")
        assert rc == 1


class TestSpectrum:
    def test_single_point_textbook(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--n", "1000")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["beta_phase", "delta_phase", "det_re", "det_im",
                          "trace_re", "trace_im", "eigphase1", "eigphase2",
                          "phase_gap", "diag_gap_re", "diag_gap_im",
                          "m_exact", "m_asymptotic", "m_stability", "degenerate"]
        (row,) = rows
        assert float(row[2]) == pytest.approx(1.0)
        assert float(row[8]) == pytest.approx(0.12651219775028633, rel=1e-12)
        assert row[11] == "24"
        assert row[12] == "24"
        assert float(row[13]) == pytest.approx(stability_expansion(0.0, 1000))
        assert row[14] == "0"

    def test_quarter_turn_point(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--n", "1000",
                           "--beta-phase", fmt(math.pi / 2),
                           "--delta-phase", fmt(math.pi / 2))
        assert rc == 0
        _, rows = parse_csv(out)
        (row,) = rows
        assert row[11] == "35"
        assert row[12] == "35"
        assert row[13] == ""  # expansion only quoted near the textbook point

    def test_detuned_point_has_no_asymptotic_column(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--n", "1000",
                           "--beta-phase", "0.5", "--delta-phase", "-0.5")
        assert rc == 0
        _, rows = parse_csv(out)
        (row,) = rows
        assert row[11] != ""
        assert row[12] == ""
        assert row[13] == ""

    def test_diagonal_grid_sweep(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--n", "1000", "--grid", "9")
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9
        center = rows[4]  # linspace(-pi, pi, 9)[4] == 0
        assert float(center[0]) == 0.0
        assert center[11] == "24"
        # the far end of the family degenerates to the identity member
        for endpoint in (rows[0], rows[-1]):
            assert endpoint[14] == "1"
            assert endpoint[11] == "" and endpoint[12] == ""
        # step predictions grow toward the far end of the family
        m_desc = [int(r[11]) for r in rows if r[11] != ""]
        mid = len(m_desc) // 2
        assert m_desc[mid] == min(m_desc)

    def test_rejects_two_dim_grid(self, capsys):
        rc, out, err = run(capsys, "spectrum", "--n", "100", "--grid", "4x4")
        assert rc == 1

    def test_large_n_gap_survives(self, capsys):
        # Two levels 4e-9 apart: a quadratic-formula discriminant cancels to
        # a gap of 0 here.  Expected values are from a 50-digit reference.
        rc, out, err = run(capsys, "spectrum", "--n", "1000000000000000000",
                           "--beta-phase", "0.3", "--delta-phase", "0.3")
        assert rc == 0
        _, (row,) = parse_csv(out)
        assert float(row[8]) == pytest.approx(3.955084311744169e-09, rel=1e-12)
        assert row[11] == "794317492"
        assert row[14] == "0"

    @pytest.mark.parametrize("index, gap, m_exact", [
        (0, 0.0, ""), (1, 1.9869176449895615e-08, "158113883"),
        (19999, 1.986917644986753e-08, "158113883"), (20000, 0.0, "")])
    def test_fine_grid_rows_near_the_far_end(self, capsys, index, gap, m_exact):
        # Row ``index`` of `spectrum --n 1000000000 --grid 20001`, run as the
        # same single point.  Only the end rows are the degenerate identity.
        t = fmt(np.linspace(-math.pi, math.pi, 20001)[index])
        rc, out, err = run(capsys, "spectrum", "--n", "1000000000",
                           "--beta-phase", t, "--delta-phase", t)
        assert rc == 0
        _, (row,) = parse_csv(out)
        assert float(row[8]) == pytest.approx(gap, rel=1e-12)
        assert row[11] == m_exact
        assert row[14] == ("1" if gap == 0 else "0")


    @pytest.mark.parametrize("extra", [[], ["--grid", "101"]], ids=["point", "grid"])
    def test_alpha1_kernel_matches_list_size(self, capsys, extra):
        # alpha1 = 1/sqrt(1000) is the N = 1000 kernel, so every column that
        # comes from the kernel agrees; the list-size columns go empty.
        rc, out, err = run(capsys, "spectrum", "--n", "1000", *extra)
        assert rc == 0
        _, plain = parse_csv(out)
        rc, out, err = run(capsys, "spectrum", "--n", "1000", *extra,
                           "--alpha1", "0.03162277660168379")
        assert rc == 0
        _, overlap = parse_csv(out)
        assert len(plain) == len(overlap)
        for p, o in zip(plain, overlap):
            assert o[11] == p[11] and o[12] == p[12] and o[14] == p[14]
            assert float(o[8]) == pytest.approx(float(p[8]), rel=1e-12, abs=0)
            assert o[9] == o[10] == o[13] == ""

    def test_overflowing_asymptotic_period_is_empty(self, capsys):
        # pi / (4 alpha1 cos(phi/2)) overflows here; the row still prints.
        t = "3.1415926535897927"
        rc, out, err = run(capsys, "spectrum", "--alpha1", "1e-300",
                           "--beta-phase", t, "--delta-phase", t)
        assert rc == 0, err
        _, (row,) = parse_csv(out)
        assert row[12] == ""

    def test_alpha1_drives_every_column(self, capsys):
        # At alpha1 = 0.3 the exact and asymptotic counts describe one kernel.
        rc, out, err = run(capsys, "spectrum", "--n", "1000", "--alpha1", "0.3")
        assert rc == 0
        _, (row,) = parse_csv(out)
        assert row[11] == row[12] == "2"


class TestAsymptotics:
    def test_single_point(self, capsys):
        rc, out, err = run(capsys, "asymptotics", "--n", "1000")
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["phi", "n", "alpha1", "gap_asymptotic", "m_asymptotic"]
        (row,) = rows
        assert float(row[3]) == pytest.approx(4 / math.sqrt(1000), rel=1e-14)
        assert row[4] == "24"
        assert row[2] == ""

    def test_overlap_column(self, capsys):
        rc, out, err = run(capsys, "asymptotics", "--n", "1000",
                           "--alpha1", "0.03162277660168379")
        assert rc == 0
        _, rows = parse_csv(out)
        (row,) = rows
        assert row[2] != ""
        assert row[4] == "24"  # alpha1 = 1/sqrt(1000) reproduces the standard count

    def test_grid_endpoints_diverge_cleanly(self, capsys):
        rc, out, err = run(capsys, "asymptotics", "--n", "1000", "--grid", "8")
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        assert rows[0][3] == "" and rows[0][4] == ""
        assert rows[-1][3] == "" and rows[-1][4] == ""
        interior = [r for r in rows if r[3] != ""]
        assert len(interior) == 6


class TestManifold:
    def test_default_grid_and_size(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        rc, out, err = run(capsys, "manifold", "--out", str(path))
        assert rc == 0
        header, rows = parse_csv(path.read_text())
        assert header == ["angle1", "angle2", "kernel_angle", "axis_x", "axis_y",
                          "axis_z", "global_phase", "grover_point", "equal_angles"]
        assert len(rows) == 2500

    def test_single_point_is_original_kernel(self, capsys):
        rc, out, err = run(capsys, "manifold", "--grid", "1x1")
        assert rc == 0
        _, rows = parse_csv(out)
        (row,) = rows
        assert row[7] == "1" and row[8] == "1"
        assert float(row[0]) == pytest.approx(math.pi / 2)
        assert float(row[2]) == pytest.approx(math.acos(-0.8), rel=1e-10)
        assert float(row[3]) == pytest.approx(0.0, abs=1e-10)
        assert float(row[4]) == pytest.approx(-1.0, abs=1e-10)
        assert float(row[5]) == pytest.approx(0.0, abs=1e-10)

    def test_grover_point_always_on_grid(self, capsys):
        for grid in ("3x5", "4x4", "7x2"):
            rc, out, err = run(capsys, "manifold", "--grid", grid)
            assert rc == 0
            _, rows = parse_csv(out)
            assert sum(r[7] == "1" for r in rows) == 1

    def test_axes_are_unit_or_empty(self, capsys):
        rc, out, err = run(capsys, "manifold", "--grid", "6x6", "--n", "4")
        assert rc == 0
        _, rows = parse_csv(out)
        for r in rows:
            if r[3] == "":
                assert r[4] == "" and r[5] == ""
            else:
                norm = math.sqrt(sum(float(c) ** 2 for c in r[3:6]))
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_equal_angle_diagonal_flagged(self, capsys):
        rc, out, err = run(capsys, "manifold", "--grid", "4x4")
        assert rc == 0
        _, rows = parse_csv(out)
        flagged = [(float(r[0]), float(r[1])) for r in rows if r[8] == "1"]
        assert len(flagged) == 4
        for a1, a2 in flagged:
            assert a1 == pytest.approx(a2)

    def test_rejects_oversized_grid(self, capsys):
        rc, out, err = run(capsys, "manifold", "--grid", "1100x1100")
        assert rc == 1


class TestBlocks:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "1000", "--grid", "101"],
        ["spectrum", "--n", "1000", "--grid", "30", "--alpha1", "0.2"],
        ["manifold", "--grid", "9x7"],
        ["sweep", "--n", "64", "--grid", "5x4", "--m-max", "30"],
        ["sweep", "--grid", "5x3", "--m-max", "6", "--alpha1", "0.3", "--beta-phase", "0.4"],
        ["asymptotics", "--n", "1000", "--grid", "41"],
        ["trace", "--n", "1000", "--m-max", "50", "--beta-phase", "0.3"],
    ], ids="_".join)
    def test_small_blocks_give_the_same_bytes(self, capsys, monkeypatch, argv):
        rc, whole, err = run(capsys, *argv)
        assert rc == 0
        for block in (1, 7, 20):
            monkeypatch.setattr(cli, "GRID_BLOCK", block)  # the four grid commands
            monkeypatch.setattr(evolution, "BLOCK", block)  # the trace's and sweep's engine
            assert run(capsys, *argv) == (0, whole, err)

    @pytest.mark.parametrize("p", [2, 3, 7, 101, 4097, 10**6])
    def test_diagonal_blocks_are_linspace(self, p):
        """A block of the diagonal has the bits of its slice of linspace(-pi,
        pi, p): the first point, the steps and the endpoint pi."""
        whole = np.linspace(-math.pi, math.pi, p)
        for lo, hi in [(0, p), (0, min(p, 7)), (p // 3, p // 3 + 1), (max(0, p - 7), p),
                       (p - 1, p)]:
            assert cli._diagonal(p, lo, hi).tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("block", [7, 20])
    def test_block_coordinates_have_the_whole_grid_bits(self, capsys, monkeypatch, block):
        """Each block generates its own grid coordinates, with the bits of the
        whole-grid arrays they replace, across block boundaries that fall
        inside a row of the p x q grids (7 and 20 do not divide 101 or 9 x 8)."""
        monkeypatch.setattr(cli, "GRID_BLOCK", block)

        def first_columns(*argv):
            rc, out, err = run(capsys, *argv)
            assert rc == 0
            return [r[:2] for r in parse_csv(out)[1]]

        diagonal = [fmt(t) for t in wrap_angle(np.linspace(-math.pi, math.pi, 101)).tolist()]
        assert first_columns("spectrum", "--n", "1000", "--grid", "101") == [
            [t, t] for t in diagonal]
        assert [r[0] for r in first_columns("asymptotics", "--n", "1000", "--grid", "101")] == \
            diagonal
        assert diagonal[-1] == fmt(math.pi)

        def anchored(size):  # the manifold's Python axes, repeated and tiled
            return [fmt((math.pi / 2 + cli.TAU * i / size) % cli.TAU) for i in range(size)]
        assert first_columns("manifold", "--grid", "9x8") == [
            [a, b] for a in anchored(9) for b in anchored(8)]

        beta = wrap_angle(0.4 + cli.TAU * np.arange(9) / 9).tolist()
        delta = wrap_angle(-1 + cli.TAU * np.arange(8) / 8).tolist()
        assert first_columns("sweep", "--n", "64", "--grid", "9x8", "--m-max", "2",
                             "--beta-phase", "0.4", "--delta-phase", "-1") == [
            [fmt(a), fmt(b)] for a in beta for b in delta]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    @pytest.mark.parametrize("small,large", [
        (["spectrum", "--n", "1000000000", "--grid", "20001"],
         ["spectrum", "--n", "1000000000", "--grid", "200001"]),
        (["manifold", "--grid", "100x100"], ["manifold", "--grid", "1000x1000"]),
    ], ids=["spectrum", "manifold"])
    def test_memory_per_grid_point(self, small, large):
        """A grid command keeps one block of points and text at a time, so its
        peak RSS does not grow with the grid: ten or a hundred times the
        points peak within 2 MB (under 0.1 MB measured; 46 MB for spectrum
        and 137 MB for manifold when the commands held every block's text and
        whole-grid coordinates)."""
        growth = (peak_rss_kib(*large) - peak_rss_kib(*small)) / 1024
        assert growth <= 2, f"peak RSS grew by {growth:.1f} MB"


class TestVerify:
    def test_all_suites_pass(self, capsys):
        rc, out, err = run(capsys, "verify")
        assert rc == 0
        lines = out.strip().split("\n")
        names = [ln.split(":")[0] for ln in lines]
        assert names == ["unitarity", "dft-identity", "reduced-vs-full",
                         "closed-vs-iterative"]
        for ln in lines:
            assert "PASS" in ln
            assert "worst residual" in ln

    def test_seed_changes_draws_not_outcome(self, capsys):
        rc, out, err = run(capsys, "verify", "--seed", "12345")
        assert rc == 0

    def test_fault_injection_tolerance(self, capsys):
        rc, out, err = run(capsys, "verify", "--tolerance", "0")
        assert rc == 2
        assert "FAIL" in out

    def test_tolerance_must_be_finite_and_nonnegative(self, capsys):
        for bad in ("nan", "-1", "inf"):
            rc, out, err = run(capsys, "verify", "--tolerance", bad)
            assert rc == 1
            assert out == ""
            assert "--tolerance" in err

    def test_only_verify_imports_the_checks(self):
        """Importing the CLI leaves groverlab.checks unloaded: the commands
        that never run the suites do not pay for compiling them."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, groverlab.cli; print(sorted(sys.modules))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": _PACKAGE_PATH})
        assert proc.returncode == 0, proc.stderr
        assert "groverlab.cli" in proc.stdout and "groverlab.checks" not in proc.stdout

    def test_config_tolerance_refused_like_the_flag(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("tolerance=-1\n")
        via_file = run(capsys, "verify", "--config", str(path))
        assert via_file == run(capsys, "verify", "--tolerance", "-1")
        assert via_file == (1, "", "error: --tolerance must be >= 0, got -1.0\n")


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        rc, out, err = run(capsys, "trace", "--bogus", "1")
        assert rc == 1

    def test_unknown_command(self, capsys):
        rc, out, err = run(capsys, "transmogrify")
        assert rc == 1

    def test_numerical_domain_error(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "1")
        assert rc == 1

    def test_unwritable_output_path(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "4", "--m-max", "2",
                           "--out", "/nonexistent-dir/x.csv")
        assert rc == 3

    def test_full_space_resource_limit(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "5000", "--m-max", "2",
                           "--k0", "momentum:1")
        assert rc == 1

    def test_out_of_range_index_refused(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "64", "--k0", "momentum:64")
        assert (rc, out, err) == (1, "", "error: wavenumber 64 outside [0, 64)\n")

    def test_internal_index_error_is_not_a_refusal(self, monkeypatch):
        """An IndexError from inside a command is a defect, not a refusal: it
        propagates instead of becoming an "error:" line with exit 1."""
        def broken(cfg):
            return np.arange(3)[5]
        monkeypatch.setitem(cli.DISPATCH, "trace", broken)
        with pytest.raises(IndexError, match="out of bounds"):
            cli.main(["trace"])

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--grid", "3"],
        ["asymptotics", "--grid", "3"],
        ["sweep", "--grid", "2x2", "--m-max", "2", "--beta-phase", fmt(math.pi),
         "--delta-phase", fmt(math.pi)],
    ], ids=lambda argv: argv[0])
    def test_underflowing_period_gives_empty_cells(self, capsys, argv):
        """At phi = +-pi, 4 alpha1 cos(phi/2) underflows to 0 for a tiny
        alpha1: the step count is empty, with no divide-by-zero warning."""
        rc, out, err = run(capsys, *argv, "--n", "2", "--alpha1", "1e-320")
        assert (rc, err) == (0, "")
        header, rows = parse_csv(out)
        column = header.index("m_asymptotic" if argv[0] != "sweep" else "pred_M")
        assert [r[column] for r in rows] == [""] * len(rows)

    @pytest.mark.parametrize("argv", [
        ["trace", "--n", "1000000000000000000000"],
        ["spectrum", "--n", "1000000000000000000000"],
        ["manifold", "--n", "1000000000000000000000"],
        ["asymptotics", "--n", "1"],
        ["sweep", "--grid", "4x4", "--delta-phase", "inf"],
        ["asymptotics", "--n", "1000", "--alpha1", "inf"],
        ["verify", "--seed", "-1"],
        ["trace", "--n", "10", "--a", "1e200"],
    ], ids="_".join)
    def test_out_of_range_values_refused(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: " + argv[-2])

    @pytest.mark.parametrize("k0", ["momentum:0", "file:/nonexistent"])
    @pytest.mark.parametrize("n", [4097, 5000, 2**63 - 1])
    def test_full_space_refused_before_k0_is_built(self, capsys, monkeypatch, n, k0):
        def unreachable(cfg):
            raise AssertionError("k0 vector built before the size check")
        monkeypatch.setattr(cli, "_k0_vector", unreachable)
        rc, out, err = run(capsys, "trace", "--n", str(n), "--k0", k0, "--m-max", "2")
        assert rc == 1
        assert out == ""
        assert err == f"error: full-space trace limited to N <= 4096, got {n}\n"

    @pytest.mark.parametrize("argv", [
        ["trace"],
        ["sweep", "--grid", "2x2"],
    ], ids="_".join)
    def test_m_max_limit(self, capsys, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("trace started above the step limit")
        monkeypatch.setattr(cli, "probability_blocks", unreachable)
        rc, out, err = run(capsys, *argv, "--m-max", str(cli.MAX_STEPS + 1))
        assert rc == 1
        assert out == ""
        assert err == f"error: --m-max must be at most {cli.MAX_STEPS}, got {cli.MAX_STEPS + 1}\n"

    @pytest.mark.parametrize("argv", [
        ["trace", "--n", "10"],
        ["trace", "--n", "10", "--k0", "momentum:1"],
        ["sweep", "--n", "10", "--grid", "2x2"],
    ], ids="_".join)
    def test_m_max_lower_bound(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--m-max", "0")
        assert (rc, out, err) == (1, "", "error: --m-max must be >= 1, got 0\n")

    @pytest.mark.parametrize("argv", [
        ["asymptotics", "--n", "2", "--alpha1", "1"],
        ["spectrum", "--alpha1", "1.5"],
        ["trace", "--alpha1", "0"],
        ["sweep", "--grid", "2x2", "--alpha1", "-0.5"],
    ], ids="_".join)
    def test_alpha1_range(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == (f"error: --alpha1 must lie strictly between 0 and 1, "
                       f"got {float(argv[-1])}\n")

    @pytest.mark.parametrize("argv,extra", [
        (["trace", "--alpha1", "0.3", "--m-max", "3"], ["--k0", "file:/nonexistent", "--a", "5"]),
        (["trace", "--alpha1", "0.3"], ["--k0", "momentum:1"]),
        (["trace", "--alpha1", "0.3"], ["--a", "1"]),
        (["sweep", "--grid", "2x2", "--alpha1", "0.3"], ["--b", "1"]),
    ], ids=lambda argv: "_".join(argv))
    def test_alpha1_refuses_other_starts(self, capsys, argv, extra):
        rc, out, err = run(capsys, *argv, *extra)
        assert (rc, out) == (1, "")
        assert err == ("error: --alpha1 fixes the kernel and the start; "
                       "it cannot be combined with --a, --b or --k0\n")
        # sweep takes no --k0.
        assert run(capsys, *argv, *(["--k0", "uniform"] if argv[0] == "trace" else []))[0] == 0

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "100", "--beta-phase", "-1e-3", "--delta-phase", "-1e-3"],
        ["spectrum", "--n", "100", "--beta-phase", "-1E-3"],
        ["spectrum", "--n", "100", "--delta-phase", "-.5e1"],
        ["trace", "--n", "100", "--m-max", "5", "--b", "-1e-1"],
    ], ids="_".join)
    def test_negative_exponent_values(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        # The same values attached to their flags with "=", which argparse
        # never takes for a flag.
        joined = []
        for tok in argv:
            if tok.startswith("-") and not tok.startswith("--"):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        assert run(capsys, *joined) == (rc, out, err)

    @pytest.mark.parametrize("word", ["-inf", "-INF", "-Infinity", "-infinity", "-nan", "-NaN"])
    @pytest.mark.parametrize("argv", [
        ["trace", "--beta-phase"],
        ["sweep", "--grid", "2x2", "--delta-phase"],
        ["spectrum", "--alpha1"],
        ["asymptotics", "--delta-phase"],
        ["verify", "--tolerance"],
    ], ids="_".join)
    def test_non_finite_words_reach_the_range_check(self, capsys, argv, word):
        """A negative non-finite word after a float flag (manifold has none)
        is its value, refused as "--flag=word" is, not a missing value."""
        flag = argv[-1]
        expected = (1, "", f"error: {flag} must be finite, got {float(word)}\n")
        assert run(capsys, *argv, word) == expected
        assert run(capsys, *argv[:-1], f"{flag}={word}") == expected

    def test_missing_value_is_still_an_error(self, capsys):
        rc, out, err = run(capsys, "trace", "--n", "--seed", "3")
        assert rc == 1
        assert err.startswith("error: argument --n: expected one argument")

    def test_out_of_range_config_value_refused(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(f"n={10**21}\n")
        rc, out, err = run(capsys, "spectrum", "--config", str(path))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: --n")


# A run of each command that succeeds; the tests below add a flag it does not read.
BASE_ARGV = {
    "trace": ["--n", "4", "--m-max", "2"],
    "sweep": ["--grid", "2x2", "--m-max", "2"],
    "spectrum": ["--n", "100"],
    "manifold": ["--grid", "2x2"],
    "asymptotics": ["--n", "100"],
    "verify": [],
}
UNREAD = [(command, name) for command in cli.COMMANDS
          for name, _, _ in cli.OPTIONS if name not in reads(command)]


class TestCommandFlags:
    """A command takes its own flags and config keys only: any other is
    refused with exit 1 before anything runs or is written."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @staticmethod
    def base(command):
        out = ["--out", "out.csv"] if "out" in reads(command) else []
        return [command, *BASE_ARGV[command], *out]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_base_runs(self, capsys, command):
        assert run(capsys, *self.base(command))[0] == 0
        assert Path("out.csv").exists() == ("out" in reads(command))

    @pytest.mark.parametrize("command,name", UNREAD, ids="-".join)
    def test_unread_flag_refused(self, capsys, tmp_path, command, name):
        flag, value = cli._flag(name), VALUES[name]
        rc, out, err = run(capsys, *self.base(command), flag, value)
        assert (rc, out, err) == (1, "", f"error: unrecognized arguments: {flag} {value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,name", UNREAD, ids="-".join)
    def test_unread_config_key_refused(self, capsys, tmp_path, command, name):
        Path("run.cfg").write_text(f"{name}={VALUES[name]}\n")
        rc, out, err = run(capsys, *self.base(command), "--config", "run.cfg")
        assert (rc, out, err) == (1, "", f"error: config key {name} is not read by {command}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_command_line_in_config_refused(self, capsys, tmp_path):
        Path("run.cfg").write_text("command=spectrum\nn=4\n")
        rc, out, err = run(capsys, *self.base("trace"), "--config", "run.cfg")
        assert (rc, out, err) == (1, "", "error: unknown config line: 'command=spectrum'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        ["manifold", "--grid", "2x2", "--k0", "file:/nonexistent", "--alpha1", "0.3",
         "--seed", "5", "--tolerance", "9"],
        ["sweep", "--grid", "2x2", "--m-max", "2", "--k0", "file:/nonexistent"],
        ["verify", "--out", "x.csv"],
        ["spectrum", "--a", "5", "--b", "0.1"],
        ["spectrum", "--alpha1", "0.3", "--k0", "momentum:0"],
        ["spectrum", "--k0", "file:/nonexistent", "--b", "1"],
        ["asymptotics", "--k0", "file:/nonexistent", "--a", "5"],
        ["verify", "--k0", "momentum:3", "--alpha1", "0.2", "--grid", "3x3"],
    ], ids="_".join)
    def test_unread_flags_named(self, capsys, tmp_path, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: ")
        words = err.split()
        for tok in argv[1::2]:
            assert (tok in words) == (tok[2:].replace("-", "_") not in reads(argv[0])), tok
        assert list(tmp_path.iterdir()) == []


# Small values, and values just past each limit, for every option but --out
# (which would write files); a command's work stays within milliseconds.
FUZZ_VALUES = {
    "n": ["-1", "0", "1", "2", "3", "17", "4097", "1000000000000000000", "10" * 11, "x"],
    "m_max": ["-1", "0", "1", "2", "17", "10000001", "1.5"],
    "grid": ["1", "2", "3", "1x1", "2x3", "3x2", "0x3", "2x2x2", "x", "-2x2", "1200x1200"],
    "k0": ["uniform", "momentum:1", "momentum:-1", "momentum:x", "file:/nonexistent", "bogus"],
    "seed": ["-1", "0", "7", "x"],
}
FUZZ_FLOATS = ["0", "-0.0", "0.5", "1", "1.5", "-2.5", "3.141592653589793",
               "3.1415926535897927", "1e-300", "1e308", "-1e-3", "nan", "inf", "-inf", "x"]


def fuzz_flag(draw, name):
    return f"{cli._flag(name)}={draw(st.sampled_from(FUZZ_VALUES.get(name, FUZZ_FLOATS)))}"


@st.composite
def argvs(draw):
    """A command with some of its own flags and, in about one draw in four,
    one flag it does not read; the second value says whether it has one."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [command]
    for name in reads(command):
        if name == "out" or draw(st.integers(0, 3)):
            continue
        argv.append(fuzz_flag(draw, name))
    unread = [name for name, _, _ in cli.OPTIONS if name not in reads(command) + ["out"]]
    if draw(st.integers(0, 3)):
        return argv, False
    argv.insert(draw(st.integers(1, len(argv))), fuzz_flag(draw, draw(st.sampled_from(unread))))
    return argv, True


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_cli_fuzz_exits_cleanly(drawn):
    argv, has_unread = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if has_unread:
        assert (rc, out.getvalue()) == (1, ""), argv


# A CLI child, its arguments on the command line, that prints its own peak RSS in KiB.
_PEAK_RSS = """\
import os, sys
from groverlab import cli
assert cli.main([*sys.argv[1:], "--out", os.devnull]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
# The directory this suite imports groverlab from, for child processes.
_PACKAGE_PATH = os.pathsep.join(filter(None, [str(Path(groverlab.__file__).resolve().parents[1]),
                                              os.environ.get("PYTHONPATH")]))


# What the wrapper that pip generates for a console script does: load the
# entry point, name the program after the script, exit with its return value.
_RUN_ENTRY_POINT = """\
import sys
from importlib.metadata import EntryPoint
name, spec = sys.argv[1:3]
main = EntryPoint(name, spec, "console_scripts").load()
sys.argv = [name, *sys.argv[3:]]
sys.exit(main())
"""


def test_console_script_installed():
    """The `groverlab` command declared in pyproject.toml runs, without an install."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "groverlab" in scripts, scripts
    # The child imports the same copy of groverlab as this suite.
    env = {**os.environ, "PYTHONPATH": _PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ENTRY_POINT, "groverlab", scripts["groverlab"],
         "trace", "--n", "4", "--m-max", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("m,prob\n")


@pytest.mark.skipif(shutil.which("groverlab") is None,
                    reason="groverlab is not installed on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["groverlab", "trace", "--n", "4", "--m-max", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("m,prob\n")
