import contextlib
import ctypes
import hashlib
import importlib.util
import io
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groverlab
from groverlab import algebra, cli
from groverlab.cli import ExperimentConfig, wrap_angle
from groverlab.csvtext import rows
from groverlab.evolution import _rotation_blocks, invariant_plane
from groverlab.kernel import FullSpaceConfig, GroverPhases, _dephase
from groverlab.spectral import stability_expansion


def run(capsys, *args):
    rc = cli.main(list(args))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# Each command's row template: its cells per row size its blocks.
CSV_ROWS = {"trace": cli.TRACE_ROW, "spectrum": cli.SPECTRUM_ROW, "manifold": cli.MANIFOLD_ROW,
            "sweep": cli.SWEEP_ROW, "asymptotics": cli.ASYMPTOTICS_ROW}


def cells(template: str) -> int:
    """CSV cells in a row of ``template``: its conversions and its literal cells."""
    return template.count(",") + 1


def block_points(command: str) -> int:
    """Rows (trace steps or grid points) in one of ``command``'s blocks."""
    return cli.GRID_CELLS // cells(CSV_ROWS[command])


def cut_blocks(monkeypatch, command: str, points: int) -> None:
    """Set cli.GRID_CELLS so that ``command``'s blocks hold ``points`` rows."""
    monkeypatch.setattr(cli, "GRID_CELLS", points * cells(CSV_ROWS[command]))


def fmt(x: float) -> str:
    """A float cell as the CLI prints it: 17 significant digits."""
    return f"{x:.17g}"


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def no_k0_vector(monkeypatch):
    """Fail the test if an N-entry k0 vector is read from a file or built."""
    def unreachable(*args):
        raise AssertionError("N-entry k0 vector built")
    monkeypatch.setattr(cli, "_k0_vector", unreachable)
    monkeypatch.setattr(algebra, "momentum_state", unreachable)


def child_memory(*argv) -> tuple:
    """Peak RSS (VmHWM) in KiB, and the minor page faults of ``cli.main``, of a
    child that runs ``groverlab *argv --out os.devnull``."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_MEMORY, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": _PACKAGE_PATH})
    assert proc.returncode == 0, proc.stderr
    peak, faults = proc.stdout.split()[-2:]  # after a trace's summary line
    return int(peak), int(faults)


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


# sha256 of exit code, stdout, stderr and --out bytes, joined by NULs, for the
# benchmark's invocations (which write to --out) and README's (to stdout).  A
# trailing --out writes to a temporary file.  verify multiplies through numpy's
# matmul, whose last bits follow the BLAS kernel picked for the CPU, so it lists
# every digest that OPENBLAS_CORETYPE = Prescott through SapphireRapids gave on
# an AVX-512 machine with numpy 2.4 (AVX-512 kernels first).  trace, sweep,
# spectrum and manifold take their kernels from the angles in closed form,
# with no matrix product: one digest.
GOLDEN = {
    "trace --n 1000000 --m-max 1000000 --out":
        "13bf2003112d5e8b5c7626486d021fbb904d7b6ca7be1405310a17dd0115f066",
    "trace --n 4096 --k0 momentum:0 --m-max 20000 --out":
        "22431c157b805b5409c9ff220c91e69c4eeaf39d957d4882d543e332d74504fa",
    "spectrum --n 1000000000 --grid 20001 --out":
        "1054cfbbe9b2c1714f80209f1205a580eb4f124bf7fc4defb8f7572089580e4d",
    "manifold --grid 200x200 --out":
        "c6277e2f25f8567da5f9198946b901814dff34ba1ee7ae5a4d6531d2a39729a0",
    "sweep --n 1000 --grid 64x64 --m-max 300 --out":
        "4c7e44fcfa527720f8b90442bb209922d14872255460dc786bb366aab93e8cf4",
    "trace --n 1000 --m-max 1000":
        "060407350a8e3fea187dad7752a4707788c70173dff594552b955d1bf9732cd1",
    "spectrum --n 1000 --grid 101":
        "9e935ee47277cbe3ccbde5de8786d2a511225109ec0445bdb0e09c6bd21e30c0",
    "asymptotics --n 100000 --grid 41":
        "318a83fe1ba0efa78b02c9c257a22b4025f8473b5062fcd5a98b25b52c8d1a91",
    "manifold --grid 50x50":
        "1efb1d4838cd5b03a4cf82017f47563cbf16488bf8062d9ccf14efe12d28e0d1",
    "verify --seed 7":
        "48cd7002ea6d4b395feb090ea0c33762661128c900f8df5bad838abb53aef33c"
        " 391bf591e884ad5660e4b349dd72400c86aabb46d1959830f92a57c0779f79fa"
        " d50eda17929d68ed7cc91c7a6099cb0247b2436d583d1b7d5064d24fbbd690be",
    "verify --tolerance 0":
        "323daff8064c2a9295896fe440125ae08dfaff2b2d10792f384cb1bed65f810b"
        " 490bc28fb3c980d15160555a6c2c13e73453e5e4f6ab1536f98ed8bc6f6f8582"
        " 706f3e351d04f15ad1bbcbcc465ea5b467ef36f2e14858b59421b15ced0ad33a"
        " e6cb6bbf7513522ae386b032d6733385f03d2fd3c6e1472c40ab9722883d3119",
}


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="digests taken with numpy 2; numpy 1.24's ufunc loops were not run")
@pytest.mark.parametrize("command", GOLDEN)
def test_golden_table(command, tmp_path, capsys):
    argv = command.split()
    path = tmp_path / "out.csv"
    if argv[-1] == "--out":
        argv.append(str(path))
    rc, out, err = run(capsys, *argv)
    written = path.read_bytes() if path.exists() else b""
    digest = hashlib.sha256(b"\0".join([str(rc).encode(), out.encode(), err.encode(), written]))
    assert digest.hexdigest() in GOLDEN[command].split()


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
        rotation, start, _ = cli._trace_problem(cli.parse_config(
            ["trace", "--n", "1000", "--beta-phase", "0.3", "--delta-phase", "-1.1"]))
        probs = _rotation_blocks(*rotation, start)(0, 301)[0]
        assert out == "m,prob\n" + "".join(f"{m},{fmt(p)}\n" for m, p in enumerate(probs))

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

    @pytest.mark.parametrize("command", [["trace"], ["trace", "--k0", "momentum:1"],
                                         ["sweep", "--grid", "2x2"]], ids=" ".join)
    @pytest.mark.parametrize("flag, value, n", [
        *[("--a", sign * math.sqrt(n), n) for n in (2, 5, 10) for sign in (1, -1)],
        *[("--b", math.sqrt(n / (n - 1)), n) for n in (2, 7, 1000, 10**6)],
    ])
    def test_boundary_start_leaves_zero(self, capsys, command, flag, value, n):
        """A coefficient on its boundary, |a| = sqrt(N) or b = sqrt(N/(N-1)),
        leaves 0 to the other, though its square rounds past the list size;
        1e-12 relative beyond the boundary it is refused."""
        argv = [*command, "--n", str(n), "--m-max", "3", flag]
        s = cli._initial_state(cli.parse_config([*argv, repr(value)]))
        assert (s.b if flag == "--a" else s.a) == 0
        assert run(capsys, *argv, repr(value))[0] == 0
        rc, out, err = run(capsys, *argv, repr(value * (1 + 1e-12)))
        assert (rc, out) == (1, "")
        assert ("exceeds the list size" if flag == "--a" else "too large to normalize") in err

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
        gives the uniform trace, byte for byte."""
        common = ["--n", str(n), "--m-max", "300", *phases]
        uniform = run(capsys, "trace", *common)
        assert uniform[0] == 0
        for y0 in wavenumbers:
            assert run(capsys, "trace", *common, "--k0", f"momentum:{y0}") == uniform, y0

    def test_momentum_plane_matches_invariant_plane(self):
        """Where both apply (N <= 4096), the closed-form momentum plane is
        invariant_plane's: the same kernel (its SU(2) form, to the sign that
        the global phase takes) and weight to rounding, and the same start to
        the error of invariant_plane's cancelling O(N) sum (2e-11 at N = 3696,
        y0 = 2323, --a 0)."""
        r = np.random.default_rng(21)
        draws = [(3696, 2323, 0.0)] + [
            (n, int(r.integers(n)), float(r.uniform(-1, 1) * math.sqrt(n)) if i % 2 else None)
            for i, n in enumerate(r.integers(2, 4097, 200).tolist())]
        for n, y0, a in draws:
            bp, dp = r.uniform(-math.pi, math.pi, 2).tolist()
            cfg = ExperimentConfig(n=n, beta_phase=bp, delta_phase=dp, k0=f"momentum:{y0}", a=a)
            (cos, sin_axis), start, weight = cli._trace_problem(cfg)
            k0 = x_in = algebra.momentum_state(y0, n)
            if a is not None:
                s = cli._initial_state(cfg)
                x_in = np.full(n, s.b / math.sqrt(n), dtype=complex)
                x_in[0] = s.a / math.sqrt(n)
            want = invariant_plane(FullSpaceConfig(n, 0, k0, GroverPhases.from_angles(bp, dp)),
                                   x_in)
            *_, want_cos, want_axis = _dephase(want[0][None])
            form, want_form = np.vstack([cos, sin_axis]), np.vstack([want_cos, want_axis])
            assert min(np.abs(form - want_form).max(),
                       np.abs(form + want_form).max()) <= 1e-14, (n, y0, a)
            assert np.abs(start - want[1]).max() <= 1e-10, (n, y0, a)
            assert abs(weight - want[2]) <= 1e-13, (n, y0, a)

    @pytest.mark.parametrize("a", [None, 2.0])
    def test_file_plane_is_invariant_plane(self, tmp_path, a):
        """A file: k0's trace problem is invariant_plane's triple, bit for bit,
        with the kernel as its ``_dephase`` split."""
        r = np.random.default_rng(8)
        k0 = r.normal(size=(64, 2)) @ [1, 1j]
        k0 /= np.linalg.norm(k0)
        path = tmp_path / "k0.txt"
        np.savetxt(path, np.column_stack([k0.real, k0.imag]), fmt="%.17g")
        cfg = ExperimentConfig(n=64, beta_phase=0.3, delta_phase=-1.1, k0=f"file:{path}", a=a)
        x_in = k0 = cli._k0_vector(cfg)
        if a is not None:
            s = cli._initial_state(cfg)
            x_in = np.full(64, s.b / math.sqrt(64), dtype=complex)
            x_in[0] = s.a / math.sqrt(64)
        phases = GroverPhases.from_angles(0.3, -1.1)
        kernel, *want = invariant_plane(FullSpaceConfig(64, 0, k0, phases), x_in)
        *_, cos, sin_axis = _dephase(kernel[None])
        (got_cos, got_axis), *got = cli._trace_problem(cfg)
        for g, w in zip([got_cos, got_axis, *got], [cos, sin_axis, *want]):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

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
        wide = tmp_path / "wide.txt"
        np.savetxt(wide, np.full((4, 3), 0.5))
        assert run(capsys, "trace", "--n", "4", "--k0", f"file:{wide}") == (
            1, "", "error: k0 file must have 1 or 2 columns, got 3\n")

    def test_k0_file_without_path_is_a_usage_error(self, tmp_path, capsys):
        """An empty path is a malformed flag, as `momentum:` is, not an I/O
        error: refused before the file is read or --out is opened."""
        config = tmp_path / "c.cfg"
        config.write_text("k0=file:\n")
        out = tmp_path / "out.csv"
        for args in (["--k0", "file:"], ["--config", str(config)]):
            assert run(capsys, "trace", "--n", "4", *args, "--out", str(out)) == (
                1, "", "error: --k0 file: needs a path\n")
            assert not out.exists()

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
    @pytest.mark.parametrize("block", [block_points("sweep"), 20],
                             ids=["block", "one-trace-per-call"])
    def test_peaks_match_single_kernel_traces(self, capsys, monkeypatch, extra, block):
        """Each row's peak, folded over blocks of steps, is the one-kernel
        trace's, the summary of ``trace`` at the row's printed phases; at 20,
        20-kernel blocks of one step each."""
        argv = ["sweep", "--n", "100", "--grid", "7x5", "--m-max", "60",
                "--beta-phase", "0.3", "--delta-phase", "-2", *extra]
        cut_blocks(monkeypatch, "sweep", block)  # 20 does not divide the 35 points
        monkeypatch.setattr(cli, "SWEEP_STEPS", 1 if block == 20 else cli.SWEEP_STEPS)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 35
        for r in rows:
            rc, _, err = run(capsys, "trace", "--n", "100", "--m-max", "60", "--beta-phase", r[0],
                             "--delta-phase", r[1], *extra)
            assert rc == 0
            assert f"peak_prob={r[3]} peak_step={r[4]} " in err

    def test_ties_keep_the_first_step(self, capsys, monkeypatch):
        """At (pi, pi) the kernel is a phase times the identity, so P(m) is
        1/N at every step: the peak is step 0 however the steps are cut."""
        argv = ["sweep", "--n", "100", "--m-max", "30", "--beta-phase", fmt(math.pi),
                "--delta-phase", fmt(math.pi), "--grid", "2x2"]
        rotations_of, start = cli._reduced_problem(cli.parse_config(argv))
        flat = _rotation_blocks(*rotations_of(np.array([math.pi]), np.array([math.pi])),
                               start)(0, 31)[0]
        assert np.all(flat == flat[0])
        for block in (cli.SWEEP_STEPS, 1, 5):
            monkeypatch.setattr(cli, "SWEEP_STEPS", block)
            rc, out, err = run(capsys, *argv)
            assert rc == 0
            assert parse_csv(out)[1][0][3:5] == [fmt(flat[0]), "0"]

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

    @pytest.mark.parametrize("extra", [[], ["--alpha1", "0.3"]], ids=["n", "alpha1"])
    def test_rows_are_their_printed_phases(self, capsys, extra):
        """Each row of the diagonal is computed from the phases it prints: it
        is the single-point run of them, byte for byte, at the first point
        (-pi, printed as pi) too."""
        rc, out, _ = run(capsys, "spectrum", "--n", "1000", "--grid", "9", *extra)
        assert rc == 0
        header, *lines = out.splitlines()
        for line in lines:
            bp, dp = line.split(",")[:2]
            rc, one, _ = run(capsys, "spectrum", "--n", "1000", "--beta-phase", bp,
                             "--delta-phase", dp, *extra)
            assert (rc, one) == (0, header + "\n" + line + "\n")
        assert lines[0] == lines[-1]

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


# Grids around the block boundaries of spectrum (1092 points), manifold
# (1820), sweep (2730) and asymptotics (3276), and the sha256 of what they
# printed with 2048-point blocks.
BOUNDARIES = {
    "spectrum --n 1000 --grid 1091":
        "6b2f956c81424a78ad2e56ef0e50923c106e36a2f7da16944425d952b29a453f",
    "spectrum --n 1000 --grid 1092":
        "a388024d5d6fa0e2feb87019573d4341eb9e811f8745b5d3978c530b19410957",
    "spectrum --n 1000 --grid 1093":
        "09c0fd4185120a960cdf7aeb48d8c3ce5d5c6749fec0f7ac712b567246417c5e",
    "spectrum --n 1000 --grid 2184":
        "76c4f56092f549d569c99eebf2fe609bdf4f5963a922778c8f2fd05ec513a72d",
    "manifold --grid 17x107":
        "320fa8524cfb81266d63f298c2221e8622c1be417feb40e1c1a0f83ece7a1eb2",
    "manifold --grid 35x52":
        "705256a222393d1b70ddf9092cd31567faa43e6ed44c15537c1da88d40aa44cb",
    "manifold --grid 3x607":
        "7c1c529a834469b617cefc0562e94126162d22c36177abf3d9f6fca11915181a",
    "manifold --grid 70x52":
        "af425a05abf454fc8f9382e41c8f00a17ba29a4b27e8d36ff00eea5925547141",
    "sweep --n 100 --m-max 5 --grid 31x88":
        "62e821029c1bc39de4bf22c6cd6689a301682c2cb741bdb6e314dfe773df92f6",
    "sweep --n 100 --m-max 5 --grid 42x65":
        "4e55c451a21c191f3214d3922e412ffea9f96174ddac27b31a863d6c18680379",
    "sweep --n 100 --m-max 5 --grid 4x683":
        "b48908a4fbdf263d678f3454475a29fc4ed35fdbba55aa6d1853399ea702ce86",
    "sweep --n 100 --m-max 5 --grid 84x65":
        "576c136ea5a1713c831d4d9f883487018592473cdeaf658ca4eda79b783b374e",
    "asymptotics --n 1000 --grid 3275":
        "03f8a4c11e346e97642f2cdb8c61a8cf9a115ef77dac8ce65a2d861f38dbd21c",
    "asymptotics --n 1000 --grid 3276":
        "70b95af05d8246bde273c2cb1e7c0e29cf78bbedb3ae5991294d42fa4a5910e0",
    "asymptotics --n 1000 --grid 3277":
        "6f204413833beb510e3c5af4e4a97b8fe5a8a767191d7ba2ccf74043a3812f31",
    "asymptotics --n 1000 --grid 6552":
        "95d7f4f0cb9a0726e972db631a57351d16cb0cc1ea0bb62b2c01b67db695845a",
}


# Each argv the block driver is checked on, and the cuts it is checked at.
CUTS = [
    *[(argv, (1, 7, 20)) for argv in [
        ["spectrum", "--n", "1000", "--grid", "101"],
        ["spectrum", "--n", "1000", "--grid", "30", "--alpha1", "0.2"],
        ["manifold", "--grid", "9x7"],
        ["sweep", "--n", "64", "--grid", "5x4", "--m-max", "30"],
        ["sweep", "--grid", "5x3", "--m-max", "6", "--alpha1", "0.3", "--beta-phase", "0.4"],
        ["asymptotics", "--n", "1000", "--grid", "41"],
        ["trace", "--n", "1000", "--m-max", "50", "--beta-phase", "0.3"],
        # 99 rows: a last block of one at 7
        ["trace", "--m-max", "98", "--n", "1000", "--beta-phase", "0.3"],
        ["trace", "--m-max", "98", "--alpha1", "0.3"],
        ["trace", "--m-max", "98", "--n", "64", "--k0", "momentum:3"],
        ["trace", "--m-max", "98", "--n", "64", "--k0", "momentum:3", "--a", "1.5",
         "--delta-phase", "1"]]],
    # The momentum start at y0 = 3 has a plane weight other than 1.
    *[(["trace", "--m-max", "100000", *argv], (2**13, 2**14 - 1, 2**14)) for argv in [
        ["--n", "1000000"], ["--n", "4096", "--k0", "momentum:3", "--a", "1.5"]]],
    # More than 4096 points, at the block sizes before GRID_CELLS and twice it.
    *[(argv, (2048, 4096, 2 * block_points(argv[0]))) for argv in [
        ["spectrum", "--n", "1000000000", "--grid", "9001"],
        ["manifold", "--grid", "91x99"],
        ["sweep", "--n", "1000", "--grid", "91x99", "--m-max", "4"],
        ["asymptotics", "--n", "1000", "--grid", "9001"]]],
]


class TestBlocks:
    @pytest.mark.parametrize("argv", [
        ["trace", "--n", "1000", "--m-max", "20000"],
        ["sweep", "--n", "100", "--grid", "100x60", "--m-max", "3"],
        ["spectrum", "--n", "1000", "--grid", "2500"],
        ["spectrum", "--n", "1000"],
        ["manifold", "--grid", "50x80"],
        ["asymptotics", "--n", "1000", "--grid", "7000"],
    ], ids=lambda argv: "_".join(argv[:1] + argv[-2:]))
    def test_rows_get_one_cell_budget(self, capsys, monkeypatch, argv):
        """Every command hands ``rows`` blocks of at most GRID_CELLS cells:
        each block but the last holds exactly GRID_CELLS // (the row's cells)
        rows, and the blocks cover every row once."""
        template, sizes = CSV_ROWS[argv[0]], []

        def counted(fmt_template, columns):
            assert fmt_template == template
            sizes.append(len(columns[-1]))
            return rows(fmt_template, columns)

        monkeypatch.setattr(cli, "rows", counted)
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        block = block_points(argv[0])
        assert block * cells(template) <= cli.GRID_CELLS
        assert sizes[:-1] == [block] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= block
        assert sum(sizes) == out.count("\n") - 1

    @pytest.mark.parametrize("command", BOUNDARIES)
    def test_block_boundaries_print_the_same_bytes(self, capsys, command):
        """Grids of one block less one point, one block, one block and one
        point, and two blocks print the bytes the 2048-point blocks printed
        (their sha256, as test_golden_table takes it; for sweep, the bytes
        that one whole-grid block and 7-point blocks print).  A sweep's grid
        is at least 2 x 2, so its sizes are 2728, 2730, 2732 and 5460 points."""
        argv = command.split()
        block, (p, _, q) = block_points(argv[0]), argv[-1].partition("x")
        steps = (-2, 0, 2) if argv[0] == "sweep" else (-1, 0, 1)
        assert int(p) * int(q or 1) in [block + step for step in steps] + [2 * block]
        rc, out, err = run(capsys, *argv)
        digest = hashlib.sha256(b"\0".join([str(rc).encode(), out.encode(), err.encode()]))
        assert digest.hexdigest() == BOUNDARIES[command]

    @pytest.mark.parametrize("argv, stacks", [
        (["trace", "--n", "1000", "--m-max", "100000"], []),
        (["trace", "--n", "64", "--m-max", "100", "--k0", "momentum:3", "--a", "2"], []),
        (["trace", "--m-max", "100", "--alpha1", "0.2"], []),
        (["trace", "--n", "8", "--m-max", "100", "--k0", "file:{k0}"], [1]),
        (["sweep", "--n", "100", "--grid", "64x64", "--m-max", "20"], []),
        (["spectrum", "--n", "1000", "--grid", "5000"], []),
        (["spectrum", "--alpha1", "0.3", "--beta-phase", "1"], []),
        (["manifold", "--grid", "100x50"], []),
    ], ids=["trace", "momentum", "alpha1", "file", "sweep", "spectrum", "spectrum-alpha1",
            "manifold"])
    def test_each_kernel_checked_once(self, monkeypatch, tmp_path, argv, stacks):
        """Each kernel stack is checked for unitarity once: the one matrix a
        file: trace projects.  The other traces, sweep, spectrum and manifold
        build no stack: their kernels come from the angles."""
        k0 = tmp_path / "k0.txt"
        np.savetxt(k0, np.full(8, 1 / math.sqrt(8)))
        argv = [arg.format(k0=k0) for arg in argv]
        sizes = []

        def counted(m, tol, what):
            sizes.append(len(np.reshape(m, (-1, 2, 2))))
            return algebra.require_unitary(m, tol, what)
        monkeypatch.setattr("groverlab.kernel.require_unitary", counted)
        assert cli.main([*argv, "--out", os.devnull]) == 0
        assert sizes == stacks

    @pytest.mark.parametrize("p", [2, 3, 7, 101, 4097, 10**6])
    def test_diagonal_blocks_are_linspace(self, p):
        """A block of the diagonal has the bits of its slice of linspace(-pi,
        pi, p): the first point, the steps and the endpoint pi."""
        whole = np.linspace(-math.pi, math.pi, p)
        for lo, hi in [(0, p), (0, min(p, 7)), (p // 3, p // 3 + 1), (max(0, p - 7), p),
                       (p - 1, p)]:
            bp, dp = cli._phases(ExperimentConfig(), p, lo, hi)
            assert bp is dp
            assert bp.tobytes() == whole[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("block", [7, 20])
    def test_block_coordinates_have_the_whole_grid_bits(self, capsys, monkeypatch, block):
        """Each block generates its own grid coordinates, with the bits of the
        whole-grid arrays they replace, across block boundaries that fall
        inside a row of the p x q grids (7 and 20 do not divide 101 or 9 x 8)."""
        def first_columns(*argv):
            cut_blocks(monkeypatch, argv[0], block)
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

    @pytest.mark.parametrize("argv, cuts", CUTS, ids=[" ".join(argv) for argv, _ in CUTS])
    def test_any_cut_gives_the_same_bytes(self, tmp_path, capsys, monkeypatch, argv, cuts):
        """Cut into blocks of each size in ``cuts`` (rows per block, and steps
        per call of the sweep's engine), a command prints what it prints uncut:
        the exit code, the CSV on stdout and a trace's summary on stderr, and
        with --out the same CSV in the file and the summary on stdout."""
        path = tmp_path / "out.csv"

        def printed():
            return run(capsys, *argv), run(capsys, *argv, "--out", str(path)), path.read_bytes()

        whole = printed()
        _, out, err = whole[0]
        assert whole == ((0, out, err), (0, err, ""), out.encode())
        assert (err != "") == (argv[0] == "trace")
        for cut in cuts:
            cut_blocks(monkeypatch, argv[0], cut)
            monkeypatch.setattr(cli, "SWEEP_STEPS", cut)
            assert printed() == whole, cut

    @pytest.mark.parametrize("argv, budget", [
        (["trace", "--n", "1000000", "--m-max", str(block_points("trace") - 1)], 1.15e6),
        (["spectrum", "--n", "1000000000", "--grid", str(block_points("spectrum"))], 1.2e6),
        (["manifold", "--grid", f"{block_points('manifold') // 52}x52"], 1.15e6),
        (["sweep", "--n", "1000", "--grid", f"{block_points('sweep') // 65}x65", "--m-max", "100"],
         1.35e6),
        (["asymptotics", "--n", "1000", "--grid", str(block_points("asymptotics"))], 1.04e6),
    ], ids=["trace", "spectrum", "manifold", "sweep", "asymptotics"])
    def test_block_working_set(self, argv, budget):
        """One block, built, evaluated, formatted and written by its command,
        stays within ``budget`` of traced allocations (numpy reports its
        buffers to tracemalloc, so the count does not vary).  Measured: 1.07,
        1.06, 1.01, 1.22 and 0.95 MB; the trace took about 2.3 MB in 2^14-row
        blocks, spectrum and manifold 2.24 and 1.08 MB in 2048-point blocks."""
        argv = [*argv, "--out", os.devnull]
        assert cli.main(argv) == 0  # builds the lookup tables and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, f"one block peaked at {peak / 1e6:.2f} MB"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    @pytest.mark.parametrize("argv, small, large", [
        (["trace", "--n", "1000000", "--m-max"], "200000", "2000000"),
        (["sweep", "--n", "1000", "--grid", "2x2", "--m-max"], "200000", "2000000"),
        (["spectrum", "--n", "1000000000", "--grid"], "20001", "200001"),
        (["manifold", "--grid"], "100x100", "1000x1000"),
        (["asymptotics", "--n", "1000", "--grid"], "100000", "1000000"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_memory_does_not_grow(self, argv, small, large):
        """A command keeps one block at a time, so its peak RSS does not grow
        with --m-max or the grid: ten or a hundred times the rows peak within
        2 MB (under 0.1 MB measured; 14, 28, 46 and 137 MB more for trace,
        sweep, spectrum and manifold when they held what they computed).
        Where glibc's mallopt fixes the thresholds, the blocks reuse one
        working set: the larger run takes fewer than 10,000 minor page faults
        in cli.main (60-290 measured; 37,000-83,000 with glibc's adaptive
        thresholds, except the sweep's, whose blocks are a few kB)."""
        (peak, _), (grown, faults) = child_memory(*argv, small), child_memory(*argv, large)
        assert (grown - peak) / 1024 <= 2, f"peak RSS grew by {(grown - peak) / 1024:.1f} MB"
        assert faults < 10000 or not _has_mallopt(), f"{faults} minor page faults"


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

    def test_full_space_resource_limit(self, capsys, monkeypatch, tmp_path):
        """A k0 file's N amplitudes are its input: above MAX_FULL_SIZE it is
        refused before it is read."""
        path = tmp_path / "k0.txt"
        np.savetxt(path, np.full(5000, 1 / math.sqrt(5000)))

        def unreachable(*args, **kwargs):
            raise AssertionError("k0 file read above the size limit")
        monkeypatch.setattr(np, "loadtxt", unreachable)
        assert run(capsys, "trace", "--n", "5000", "--m-max", "2", "--k0", f"file:{path}") == (
            1, "", "error: full-space trace limited to N <= 4096, got 5000\n")

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
    def test_full_space_refused_before_k0_is_built(self, capsys, no_k0_vector, n, k0):
        """Above MAX_FULL_SIZE no k0 vector is built: a file is refused
        before it is read, and a momentum k0, whose plane is closed-form,
        traces as the uniform start does."""
        got = run(capsys, "trace", "--n", str(n), "--k0", k0, "--m-max", "2")
        if k0.startswith("file:"):
            assert got == (1, "", f"error: full-space trace limited to N <= 4096, got {n}\n")
        else:
            assert got[0] == 0
            assert got == run(capsys, "trace", "--n", str(n), "--k0", "uniform", "--m-max", "2")

    @pytest.mark.parametrize("n", [5000, 2**63 - 1])
    @pytest.mark.parametrize("y0", ["-1", "N", "x", ""])
    def test_momentum_refusals_past_the_full_space_limit(self, capsys, no_k0_vector, n, y0):
        """A bad wavenumber is refused for itself at any N, with no N-entry
        vector built."""
        y0 = str(n) if y0 == "N" else y0
        want = (f"error: bad momentum index in --k0 'momentum:{y0}'\n" if y0 in ("x", "")
                else f"error: wavenumber {y0} outside [0, {n})\n")
        assert run(capsys, "trace", "--n", str(n), "--k0", f"momentum:{y0}") == (1, "", want)

    def test_largest_momentum_at_the_largest_n(self, capsys, no_k0_vector):
        n = cli.MAX_N
        assert run(capsys, "trace", "--n", str(n), "--k0", f"momentum:{n - 1}") == run(
            capsys, "trace", "--n", str(n))

    @pytest.mark.parametrize("argv", [
        ["trace"],
        ["sweep", "--grid", "2x2"],
    ], ids="_".join)
    def test_m_max_limit(self, capsys, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("trace started above the step limit")
        monkeypatch.setattr(cli, "_rotation_blocks", unreachable)
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
    "k0": ["uniform", "momentum:0", "momentum:1", "momentum:4096", "momentum:999999999999999999",
           "momentum:-1", "momentum:x", "file:/nonexistent", "bogus"],
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argvs())
# Momentum traces past the full-space limit, accepted and refused, every run.
@example((["trace", "--n=4097", "--k0=momentum:4096"], False))
@example((["trace", "--n=1000000000000000000", "--k0=momentum:999999999999999999"], False))
@example((["trace", "--n=4097", "--k0=momentum:999999999999999999"], False))
def test_cli_fuzz_exits_cleanly(drawn):
    argv, has_unread = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if has_unread:
        assert (rc, out.getvalue()) == (1, ""), argv


# The TARGETS of bench/tracer.py that the library binds: the benchmark's traced
# run wraps these names, and skips a name no module binds without a word.
TRACED = {
    "groverlab.kernel.GroverPhases.from_angles", "groverlab.spectral.grover_operator",
    "groverlab.spectral.su2_decompose", "groverlab.cli.kernel_manifold_points",
    "groverlab.cli.stability_expansion", "groverlab.evolution.as_vector",
    *(f"groverlab.kernel.{name}" for name in ("as_matrix", "as_vector", "outer", "dft_matrix")),
    "groverlab.cli._write_csv", *(f"groverlab.cli.cmd_{command}" for command in cli.COMMANDS),
}


def test_benchmark_targets_stay_bound():
    """Every name in TRACED still resolves as the tracer looks it up, and
    cli.DISPATCH holds the cmd_* functions, which the tracer swaps there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = set()
    for mod_name, attr, *_ in tracer.TARGETS:
        owner, _, name = attr.rpartition(".")
        holder = importlib.import_module(mod_name)
        holder = getattr(holder, owner) if owner else holder
        if vars(holder).get(name) is not None:
            bound.add(f"{mod_name}.{attr}")
    assert len(TRACED) == 17
    assert TRACED <= bound, sorted(TRACED - bound)
    for command in cli.COMMANDS:
        assert cli.DISPATCH[command] is getattr(cli, "cmd_" + command), command


# A CLI child, its arguments on the command line, that prints its own peak
# RSS in KiB and the minor page faults its command took.
_CHILD_MEMORY = """\
import os, resource, sys
from groverlab import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main([*sys.argv[1:], "--out", os.devnull]) == 0
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), faults)
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
