"""Command-line experiment runner.

Subcommands reproduce the library's headline numbers as CSV: probability
traces, torus sweeps over the two phase parameters, spectral tables,
rotation-manifold point clouds, asymptotic comparison tables, and a seeded
self-check of the library invariants.

Exit status: 0 success, 1 usage error, 2 numerical/invariant failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    TOL_EXACT,
    TOL_PIPELINE,
    TAU,
    _require_wavenumber,
    require_unit,
    wrap_angle,
)
from .csvtext import rows
from .errors import GroverLabError, ResourceLimitError
from .evolution import (
    InitialState,
    TraceSummary,
    _remainder,
    _rotation_blocks,
    invariant_plane,
    uniform_initial,
)
from .kernel import (
    FullSpaceConfig,
    GroverPhases,
    _angle_form,
    _kernel_form,
    _phase_rotations,
    require_full_size,
    unit_phases,
)
from .spectral import (
    asymptotic_gaps,
    asymptotic_steps,
    kernel_manifold_points,
    phase_spectra,
    stability_expansion,
)

__all__ = ["ExperimentConfig", "main"]

# Most points of a --grid.  The grid commands build, format and write one
# block of points at a time, so this bounds the run time and the CSV's size
# (about 240 MB for a 10^6-point spectrum), not memory.
MAX_GRID_POINTS = 10**6
# CSV cells per block, in every command that writes CSV: _write_csv computes,
# formats and writes one block of rows before the next.  Each of a row's
# cells costs a few dozen bytes of temporaries, so a block holds GRID_CELLS //
# (the row's cells) rows: 8192 steps in trace, 1092 points in spectrum, 1820
# in manifold, 2730 in sweep and 3276 in asymptotics.  A 20001-point
# spectrum peaks at 32.8 MB (34.3 MB in 2048-point blocks, 38 MB in 4096).
GRID_CELLS = 2**14
# A sweep folds its peaks over _rotation_blocks' evaluations of
# SWEEP_KERNELS kernels by SWEEP_STEPS steps: cos and sin run 1.5x slower
# per element on 4 steps.
SWEEP_KERNELS, SWEEP_STEPS = 1024, 16
# Longest trace (--m-max).  A trace's memory does not grow with its length,
# so this bounds the run time and the CSV's size (about 280 MB at 10^7).
MAX_STEPS = 10**7
# N reaches numpy as an int64; a larger int makes np.sqrt fail.
MAX_N = 2**63 - 1
# What main sets through glibc's mallopt, in this order: M_MMAP_THRESHOLD
# (-3), so blocks below 32 MiB come from the heap, then M_TRIM_THRESHOLD (-1),
# so the heap keeps up to 64 MiB of free memory at its top.
_MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


class UsageError(Exception):
    """Bad flags, bad config values, or an unusable parameter combination."""


@dataclass
class ExperimentConfig:
    """One experiment invocation: a command and its settings.

    The fields are the union of every command's flags and mirror their
    names; each command reads only its ``COMMANDS`` row.  ``a``/``b`` are
    the initial-state coefficients (None means uniform), ``k0`` selects the
    second reflection's direction, ``alpha1`` switches the reduced kernel
    to the general-superposition form.
    """

    command: str = "trace"
    n: int = 1000
    beta_phase: float = 0.0
    delta_phase: float = 0.0
    m_max: int = 1000
    a: Optional[float] = None
    b: Optional[float] = None
    k0: str = "uniform"
    alpha1: Optional[float] = None
    grid: Optional[str] = None
    out: Optional[str] = None
    seed: int = 0
    tolerance: Optional[float] = None

    @staticmethod
    def read_file(path: str) -> dict:
        """Parse a flat key=value file into typed values, keyed by field name."""
        casts = {name: cast for name, cast, _ in OPTIONS}
        values = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if not sep or key not in casts:
                    raise UsageError(f"unknown config line: {line!r}")
                try:
                    values[key] = casts[key](val)
                except ValueError as exc:
                    raise UsageError(f"bad value for {key}: {val!r}") from exc
        return values


# Every flag once: config key and argparse dest, value type, help text.
# The flag spelling is the name with dashes, e.g. beta_phase -> --beta-phase.
OPTIONS = (
    ("n", int, "list size N"),
    ("beta_phase", float, "phase angle of beta in radians"),
    ("delta_phase", float, "phase angle of delta in radians"),
    ("m_max", int, "trace length"),
    ("a", float, "marked-state coefficient"),
    ("b", float, "orthogonal coefficient"),
    ("k0", str, "uniform | momentum:<y0> | file:<path>"),
    ("alpha1", float, "marked-state overlap of a general superposition"),
    ("grid", str, "grid sizes <p>x<q>"),
    ("out", str, "output CSV path (default stdout)"),
    ("seed", int, "seed for randomized checks"),
    ("tolerance", float, "override verify tolerances (fault injection)"),
)

# Each command's help line and the OPTIONS it reads: it takes exactly these
# flags and config keys, plus --config.
COMMANDS = {
    "trace": ("success probability P(m) for one kernel",
              "n beta_phase delta_phase m_max a b k0 alpha1 out"),
    "sweep": ("peak statistics over a (beta, delta) phase grid",
              "n beta_phase delta_phase m_max a b alpha1 grid out"),
    "spectrum": ("eigenphases, gaps and step predictions",
                 "n beta_phase delta_phase alpha1 grid out"),
    "manifold": ("axis-angle point cloud of the two-rotation family", "n grid out"),
    "asymptotics": ("large-N gap and step-count formulas", "n delta_phase alpha1 grid out"),
    "verify": ("run the seeded invariant suites", "seed tolerance"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_values(cfg: ExperimentConfig) -> None:
    """Range-check every numeric option once, whether a flag or a config value."""
    if not 2 <= cfg.n <= MAX_N:
        raise UsageError(f"--n must lie in [2, {MAX_N}], got {cfg.n}")
    if cfg.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg.seed}")
    if cfg.m_max < 1:
        raise UsageError(f"--m-max must be >= 1, got {cfg.m_max}")
    if cfg.m_max > MAX_STEPS:
        raise ResourceLimitError(f"--m-max must be at most {MAX_STEPS}, got {cfg.m_max}")
    for name, cast, _ in OPTIONS:
        val = getattr(cfg, name)
        if cast is float and val is not None and not math.isfinite(val):
            raise UsageError(f"{_flag(name)} must be finite, got {val}")
    if cfg.tolerance is not None and cfg.tolerance < 0:
        raise UsageError(f"--tolerance must be >= 0, got {cfg.tolerance}")
    if cfg.alpha1 is not None and not 0 < cfg.alpha1 < 1:
        raise UsageError(f"--alpha1 must lie strictly between 0 and 1, got {cfg.alpha1}")
    # A normalizable start has |a|^2, |b|^2 <= N (1 + 1e-6), so a larger
    # coefficient is refused here, before squaring it can overflow.
    bound = math.sqrt(2 * cfg.n)
    for name in ("a", "b"):
        val = getattr(cfg, name)
        if val is not None and abs(val) > bound:
            raise UsageError(f"{_flag(name)} must have magnitude at most sqrt(2N) = {bound:g}, "
                             f"got {val}")


def _grid(command: str, text: Optional[str], least: int,
          one_dim: bool = False) -> Tuple[int, int]:
    """--grid <p> or <p>x<q> as (p, q), q = 1 for <p>, or a refusal named by
    ``command``: p and q must be >= ``least``, and q = 1 if ``one_dim``."""
    shape = "<p> or <p>x1 with p" if one_dim else "<p>x<q> with p, q"
    refusal = UsageError(f"{command} needs --grid {shape} >= {least}, got {text!r}")
    parts = (text or "").lower().split("x")
    if len(parts) == 1:
        parts.append("1")
    if len(parts) != 2:
        raise refusal
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise refusal from None
    if one_dim and q != 1:
        raise refusal
    if p < least or (not one_dim and q < least):
        raise refusal
    if p * q > MAX_GRID_POINTS:
        raise ResourceLimitError(f"{command} grid has {p * q} points (limit {MAX_GRID_POINTS})")
    return p, q


def _write_csv(cfg: ExperimentConfig, header: str, template: str, count: int,
               columns: Callable[[int, int], Sequence],
               summary: Optional[TraceSummary] = None) -> None:
    """Write the header line, then ``count`` rows of ``template``, to --out or
    stdout; then the summary line, to stderr after a body on stdout.

    The rows go in blocks of GRID_CELLS // (the template's CSV cells, a
    literal one included): each block
    [lo, hi) is computed by ``columns(lo, hi)``, in order, then formatted and
    written before the next, and the summary is read after the last.
    """
    block = GRID_CELLS // (template.count(",") + 1)
    chunks = (rows(template, columns(lo, min(lo + block, count)))
              for lo in range(0, count, block))
    body = itertools.chain([header.encode() + b"\n"], chunks)
    to_file = cfg.out not in (None, "-")
    if to_file:
        with open(cfg.out, "wb") as fh:
            fh.writelines(body)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # the text layer's bytes go first
        sys.stdout.buffer.writelines(body)
    else:  # a text stream with no byte layer, such as io.StringIO
        sys.stdout.writelines(chunk.decode() for chunk in body)
    if summary:
        print(_summary_line(summary), file=sys.stdout if to_file else sys.stderr)


def _initial_state(cfg: ExperimentConfig) -> InitialState:
    if cfg.a is None and cfg.b is None:
        return uniform_initial(cfg.n)
    if cfg.a is not None and cfg.b is None:
        return InitialState.complete(cfg.a, cfg.n)
    if cfg.a is None:
        rem = _remainder(cfg.n, cfg.b**2 * (cfg.n - 1),
                        f"--b {cfg.b} is too large to normalize at n={cfg.n}", UsageError)
        return InitialState(math.sqrt(rem), cfg.b, cfg.n)
    norm = (cfg.a**2 + cfg.b**2 * (cfg.n - 1)) / cfg.n
    require_unit(norm, 1e-6, "squared norm of --a/--b", UsageError)
    scale = 1 / math.sqrt(norm)
    return InitialState(cfg.a * scale, cfg.b * scale, cfg.n)


def _wavenumber(cfg: ExperimentConfig) -> int:
    """The y0 of --k0 momentum:<y0>, refused unless it is an integer in [0, N)."""
    try:
        y0 = int(cfg.k0.split(":", 1)[1])
    except ValueError:
        raise UsageError(f"bad momentum index in --k0 {cfg.k0!r}")
    _require_wavenumber(y0, cfg.n)
    return y0


def _k0_vector(cfg: ExperimentConfig) -> np.ndarray:
    """The unit k0 read from --k0 file:<path>, which holds its N amplitudes."""
    selector = cfg.k0
    if selector.startswith("file:"):
        path = selector.split(":", 1)[1]
        if not path:
            raise UsageError("--k0 file: needs a path")
        try:
            with warnings.catch_warnings():
                # An empty file is refused below, as a short one is.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(path, dtype=float, ndmin=2)
        except ValueError as exc:
            raise UsageError(f"cannot parse k0 file {path!r}: {exc}")
        if rows.shape[1] == 1:
            v = rows[:, 0].astype(complex)
        elif rows.shape[1] == 2:
            v = rows[:, 0] + 1j * rows[:, 1]
        else:
            raise UsageError(f"k0 file must have 1 or 2 columns, got {rows.shape[1]}")
        if v.shape[0] != cfg.n:
            raise UsageError(f"k0 file has {v.shape[0]} amplitudes, expected {cfg.n}")
        nrm = np.linalg.norm(v)
        require_unit(nrm, 1e-6, "k0 file norm", UsageError)
        return v / nrm
    raise UsageError(f"--k0 must be uniform, momentum:<y0> or file:<path>, got {selector!r}")


def _summary_line(trace: TraceSummary) -> str:
    thr = "none" if trace.threshold_step is None else str(trace.threshold_step)
    return (f"peak_prob={trace.peak_prob:.17g} peak_step={trace.peak_step} "
            f"maxima_count={trace.maxima_count} threshold_step={thr}")


def _reduced_problem(cfg: ExperimentConfig):
    """The builder of the reduced kernels' SU(2) forms (cos, sin_axis) from
    arrays of phase angles, ``kernel._phase_rotations``, and the plane start.

    ``--alpha1`` (refused with --a, --b or --k0) switches every kernel to
    the general-superposition form and the start to (alpha1, sqrt(1 -
    alpha1^2)); otherwise the kernels have size ``--n`` and the start is
    --a/--b.  Every refusal is made here, before a kernel is built.
    """
    if cfg.alpha1 is None:
        start = _initial_state(cfg).reduced_vector()
    elif cfg.a is not None or cfg.b is not None or cfg.k0 != "uniform":
        raise UsageError("--alpha1 fixes the kernel and the start; "
                         "it cannot be combined with --a, --b or --k0")
    else:
        start = np.array([cfg.alpha1, math.sqrt(1 - cfg.alpha1**2)], dtype=complex)
    return lambda bp, dp: _phase_rotations(bp, dp, cfg.n, cfg.alpha1)[4:], start


def _trace_problem(cfg: ExperimentConfig):
    """The trace's plane, as ``invariant_plane`` gives it: the kernel's SU(2)
    form (cos, sin_axis), the start and the weight of its probabilities.

    A --k0 other than uniform traces the full space (marked element 0): the
    weight times a trace in the plane of the marked element and k0.  Every
    momentum k0 has k0[0] = 1/sqrt(N) and c = sqrt(1 - 1/N) off it, so that
    plane is the reduced one, at any N, and only an --a/--b start at y0 != 0
    differs from the reduced start: it projects to (a/sqrt(N), -b/(N c)).
    A file: k0 is projected by ``invariant_plane`` itself, in O(N), and its
    kernel split by ``kernel._dephase``.  Otherwise the plane is
    ``_reduced_problem``'s, with weight 1.  The reduced and momentum planes'
    kernel is ``kernel._angle_form``'s, as ``ReducedKernel.from_angles``
    gives it, with no matrix.
    """
    if cfg.alpha1 is None and cfg.k0.startswith("momentum:"):
        if _wavenumber(cfg) and (cfg.a is not None or cfg.b is not None):
            s = _initial_state(cfg)
            x0, x1 = s.a / math.sqrt(cfg.n), -s.b / math.sqrt(cfg.n * (cfg.n - 1))
            norm = math.hypot(abs(x0), abs(x1))
            form = _angle_form(cfg.beta_phase, cfg.delta_phase, cfg.n)
            return form[4:], np.array([x0, x1]) / norm, norm**2
    elif cfg.alpha1 is None and cfg.k0 != "uniform":
        # Refused before the file is read.
        require_full_size(cfg.n, "full-space trace")
        x_in = vec = _k0_vector(cfg)
        if cfg.a is not None or cfg.b is not None:
            s = _initial_state(cfg)
            x_in = np.full(cfg.n, s.b / math.sqrt(cfg.n), dtype=complex)
            x_in[0] = s.a / math.sqrt(cfg.n)
        phases = GroverPhases.from_angles(cfg.beta_phase, cfg.delta_phase)
        kernel, start, weight = invariant_plane(FullSpaceConfig(cfg.n, 0, vec, phases), x_in)
        return _kernel_form(kernel)[4:], start, weight
    _, start = _reduced_problem(cfg)
    return _angle_form(cfg.beta_phase, cfg.delta_phase, cfg.n, cfg.alpha1)[4:], start, 1.0


TRACE_ROW = "%d,%.17g\n"


def cmd_trace(cfg: ExperimentConfig) -> int:
    (cos, sin_axis), start, weight = _trace_problem(cfg)
    p = _rotation_blocks(cos, sin_axis, start)
    summary = TraceSummary()

    def columns(lo, hi):
        probs = p(lo, hi)[0]
        probs *= weight  # x * 1.0 is x, bit for bit: the reduced trace's weight changes nothing
        summary.add(probs)
        return [np.arange(lo, hi, dtype=np.uint64), probs]

    _write_csv(cfg, "m,prob", TRACE_ROW, cfg.m_max + 1, columns, summary)
    return 0


SWEEP_ROW = "%.17g,%.17g,%.17g,%.17g,%d,%.0f\n"


def cmd_sweep(cfg: ExperimentConfig) -> int:
    p, q = _grid("sweep", cfg.grid, 2)
    rotations_of, start = _reduced_problem(cfg)

    def columns(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), q)  # the p x q grid in row-major order
        bp = wrap_angle(cfg.beta_phase + TAU * i / p)
        dp = wrap_angle(cfg.delta_phase + TAU * j / q)
        cos, sin_axis = rotations_of(bp, dp)
        # Each row's first maximum, folded over the kernels' blocks of steps.
        peak_prob, peak_step = np.full(len(bp), -math.inf), np.zeros(len(bp), int)
        for k in range(0, len(bp), SWEEP_KERNELS):
            part = slice(k, k + SWEEP_KERNELS)
            part_prob, part_step = peak_prob[part], peak_step[part]  # views
            evaluate = _rotation_blocks(cos[part], sin_axis[:, part], start)
            for m in range(0, cfg.m_max + 1, SWEEP_STEPS):
                block = evaluate(m, min(m + SWEEP_STEPS, cfg.m_max + 1))
                top = block.argmax(axis=1)
                prob = block[np.arange(len(block)), top]
                better = prob > part_prob
                part_prob[better], part_step[better] = prob[better], m + top[better]
        g_abs = 2 * np.abs(np.sin((dp - bp) / 2))  # |beta - delta|
        return [bp, dp, g_abs, peak_prob, peak_step,
                np.where(g_abs <= TOL_EXACT, asymptotic_steps(dp, cfg.n, cfg.alpha1), np.nan)]

    _write_csv(cfg, "beta_phase,delta_phase,g_abs,peak_prob,peak_step,pred_M",
               SWEEP_ROW, p * q, columns)
    return 0


def _diagonal_points(cfg: ExperimentConfig) -> Optional[int]:
    """The p of spectrum's and asymptotics' --grid <p>, the diagonal sweep
    linspace(-pi, pi, p), or None for the one config point.  A bad --grid is
    refused here, before the CSV is opened."""
    if cfg.grid is None:
        return None
    p, _ = _grid(cfg.command, cfg.grid, 2, one_dim=True)
    for name in ("beta_phase", "delta_phase"):
        if getattr(cfg, name):
            raise UsageError(f"{cfg.command} --grid sweeps the diagonal; drop {_flag(name)}")
    return p


def _phases(cfg: ExperimentConfig, p: Optional[int], lo: int,
            hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Phase angles (beta, delta) of points [lo, hi) of ``_diagonal_points``'
    p: the config point, or one array for both, np.linspace(-pi, pi, p)[lo:hi]
    bit for bit without the other points (numpy computes -pi + i * (2 pi /
    (p - 1)) and sets the last point to pi)."""
    if p is None:
        return np.array([cfg.beta_phase]), np.array([cfg.delta_phase])
    t = np.arange(lo, hi, dtype=float) * (TAU / (p - 1)) - math.pi
    if hi == p:
        t[-1] = math.pi
    return t, t


# beta_phase .. diag_gap_im, m_exact, m_asymptotic, m_stability, degenerate.
SPECTRUM_ROW = "%.17g," * 11 + "%.0f,%.0f,%.17g,%d\n"


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    p = _diagonal_points(cfg)
    size = cfg.n if cfg.alpha1 is None else None

    def columns(lo, hi):
        bp, dp = _phases(cfg, p, lo, hi)
        # Each row from the phases it prints: the diagonal's -pi prints as pi.
        bp = wrap_angle(bp)
        dp = bp if p else wrap_angle(dp)
        spec = phase_spectra(bp, dp, size, cfg.alpha1)
        diagonal = 2 * np.abs(np.sin((dp - bp) / 2)) <= TOL_EXACT  # |beta - delta|
        stable = diagonal & (np.abs(dp) <= 0.5) & (size is not None)
        diag_gap = spec.diag_gap
        if size is None:
            diag_gap = np.full(len(bp), complex(np.nan, np.nan))  # prints as empty cells
        return [bp, dp, spec.det.real, spec.det.imag, spec.trace.real, spec.trace.imag,
                spec.eigphase1, spec.eigphase2, spec.phase_gap, diag_gap.real, diag_gap.imag,
                np.floor(math.pi / np.where(spec.degenerate, np.nan, spec.phase_gap)),
                np.where(diagonal, asymptotic_steps(dp, cfg.n, cfg.alpha1), np.nan),
                np.where(stable, stability_expansion(dp, cfg.n), np.nan),
                spec.degenerate]

    _write_csv(cfg, "beta_phase,delta_phase,det_re,det_im,trace_re,trace_im,"
                    "eigphase1,eigphase2,phase_gap,diag_gap_re,diag_gap_im,"
                    "m_exact,m_asymptotic,m_stability,degenerate",
               SPECTRUM_ROW, p or 1, columns)
    return 0


ASYMPTOTICS_ROW = "%.17g,%d,%.17g,%.17g,%.0f\n"


def cmd_asymptotics(cfg: ExperimentConfig) -> int:
    p = _diagonal_points(cfg)

    def columns(lo, hi):
        phi = wrap_angle(_phases(cfg, p, lo, hi)[1])
        gap = asymptotic_gaps(unit_phases(phi), cfg.n)
        return [phi, np.full(len(phi), cfg.n), np.full(len(phi), cfg.alpha1 or math.nan), gap,
                np.where(np.isnan(gap), np.nan, asymptotic_steps(phi, cfg.n, cfg.alpha1))]

    _write_csv(cfg, "phi,n,alpha1,gap_asymptotic,m_asymptotic",
               ASYMPTOTICS_ROW, p or 1, columns)
    return 0


# angle1, angle2, kernel_angle, axis_x, axis_y, axis_z, global_phase, flags.
# global_phase is identically 0: every manifold point lies in SU(2).
MANIFOLD_ROW = "%.17g," * 6 + "0,%d,%d\n"


def cmd_manifold(cfg: ExperimentConfig) -> int:
    p, q = _grid("manifold", cfg.grid or "50x50", 1)

    def columns(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), q)  # the p x q grid in row-major order
        # Each distinct angle computed and formatted once: angle1 over the
        # block's rows, angle2 over all q columns once the block spans a row.
        # Both grids are anchored at pi/2, so the original kernel is on-grid.
        spans = hi - lo >= q
        row, col = i - i[0], j if spans else np.arange(hi - lo)
        angle1 = (math.pi / 2 + TAU * np.arange(i[0], i[-1] + 1) / p) % TAU
        angle2 = (math.pi / 2 + TAU * (np.arange(q) if spans else j) / q) % TAU
        t1, t2 = angle1[row], angle2[col]
        aa = kernel_manifold_points(t1, t2, cfg.n)
        grover = (np.abs(t1 - math.pi / 2) <= 1e-9) & (np.abs(t2 - math.pi / 2) <= 1e-9)
        equal = np.abs(wrap_angle(t1 - t2)) <= 1e-9
        return [(angle1, row), (angle2, col), aa.angle, *aa.axis.T, grover, equal]

    _write_csv(cfg, "angle1,angle2,kernel_angle,axis_x,axis_y,axis_z,"
                    "global_phase,grover_point,equal_angles", MANIFOLD_ROW, p * q, columns)
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    from . import checks  # only verify runs the suites: the other commands skip compiling them

    rng = np.random.default_rng(cfg.seed)
    small = (2, 4, 8, 16, 64)
    suites = [
        ("unitarity", lambda: checks.unitarity(rng, small + (256,), 4, small), TOL_EXACT),
        ("dft-identity", lambda: checks.dft_identity(small), TOL_EXACT),
        ("reduced-vs-full", lambda: checks.reduced_vs_full(rng, (2, 8, 64), 100), TOL_PIPELINE),
        ("closed-vs-iterative", lambda: checks.closed_vs_iterative(rng, 40, 1024, 500), 1e-9),
    ]
    all_ok = True
    for name, check, tol in suites:
        tol = tol if cfg.tolerance is None else cfg.tolerance
        worst = check()
        ok = worst <= tol
        print(f"{name}: {'PASS' if ok else 'FAIL'} "
              f"(worst residual {worst:.3e}, tolerance {tol:.3e})")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


DISPATCH = {
    "trace": cmd_trace,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "asymptotics": cmd_asymptotics,
    "manifold": cmd_manifold,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" or "-inf" for a flag: its own pattern knows no
        # exponent and no word.  These are the negative values float() reads.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groverlab",
                     description="Numerical laboratory for Grover-type search kernels")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, reads) in COMMANDS.items():
        # No abbreviations: "--a" must not stand for another command's "--alpha1".
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        for name, cast, option_help in OPTIONS:
            if name in reads.split():
                cmd.add_argument(_flag(name), type=cast, dest=name, help=option_help)
        cmd.add_argument("--config", help="flat key=value config file")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    ns = build_parser().parse_args(argv)
    cfg = ExperimentConfig(command=ns.command)
    if cfg.command == "manifold":
        cfg.n = 10
    reads = COMMANDS[cfg.command][1].split()
    if ns.config is not None:
        for key, val in ExperimentConfig.read_file(ns.config).items():
            if key not in reads:
                raise UsageError(f"config key {key} is not read by {cfg.command}")
            setattr(cfg, key, val)
    for name in reads:
        if getattr(ns, name) is not None:
            setattr(cfg, name, getattr(ns, name))
    _check_values(cfg)
    return cfg


def _fix_malloc_thresholds() -> None:
    """Keep freed memory in the process where the C library is glibc.

    glibc's dynamic thresholds hand every block of rows' temporaries back to
    the kernel, and the next block faults them in again as zeroed pages.
    The mmap threshold goes first, and a refusal stops there: a fixed trim
    threshold alone also freezes the mmap threshold, at its 128 KiB start.
    Elsewhere (no ``mallopt``, or one that refuses) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_THRESHOLDS:
        if mallopt(param, value) != 1:
            return


def main(argv: Optional[Sequence[str]] = None) -> int:
    _fix_malloc_thresholds()
    try:
        cfg = parse_config(argv)
        return DISPATCH[cfg.command](cfg)
    except (UsageError, GroverLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
