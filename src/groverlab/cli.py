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
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    TOL_EXACT,
    TOL_PIPELINE,
    _abs,
    _atan2,
    momentum_state,
    require_unit,
)
from .csvtext import rows
from .errors import GroverLabError, ResourceLimitError
from .evolution import (
    InitialState,
    TraceSummary,
    invariant_plane,
    probability_blocks,
    uniform_initial,
)
from .kernel import (
    FullSpaceConfig,
    GroverPhases,
    extended_reduced_kernels,
    reduced_kernels,
    require_full_size,
    unit_phases,
)
from .spectral import (
    asymptotic_gaps,
    asymptotic_steps,
    eigensystems,
    kernel_manifold_points,
    stability_expansion,
)

__all__ = ["ExperimentConfig", "main"]

# Most points of a --grid.  The grid commands build, format and write
# GRID_BLOCK points at a time, so this bounds the run time and the CSV's size
# (about 240 MB for a 10^6-point spectrum), not memory.
MAX_GRID_POINTS = 10**6
# Grid points per block in spectrum, manifold, sweep and asymptotics: a block's
# coordinates are generated, and its rows computed, formatted and written,
# before the next.  A grid row holds a few dozen temporaries, so the block is
# a quarter of the trace's BLOCK: a 20001-point spectrum peaks at 37 MB (42 MB
# at 8192 points), and 2048 points take about 15% more time per point.
GRID_BLOCK = 4096
# Longest trace (--m-max).  A trace evaluates, summarizes, formats and writes
# BLOCK = 2^14 rows at a time, so its memory does not grow with the length:
# this bounds the run time and the CSV's size (about 280 MB at 10^7).
MAX_STEPS = 10**7
# N reaches numpy as an int64; a larger int makes np.sqrt fail.
MAX_N = 2**63 - 1
TAU = 2 * math.pi
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


def wrap_angle(t) -> np.ndarray:
    """Principal value in (-pi, pi], elementwise, exact (fmod and a shift by TAU)."""
    w = np.fmod(t, TAU)
    return np.where(w > math.pi, w - TAU, np.where(w <= -math.pi, w + TAU, w))


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


def _write_csv(cfg: ExperimentConfig, header: str, chunks: Iterable[bytes],
               summary: Optional[TraceSummary] = None) -> None:
    """Write the header line, then the body's bytes chunk by chunk, to --out
    or stdout; then the summary line, to stderr after a body on stdout.

    The body is never joined, so a lazy iterable is formatted as it is
    written, and the summary is read after it.
    """
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
        rem = cfg.n - cfg.b**2 * (cfg.n - 1)
        if rem < 0:
            raise UsageError(f"--b {cfg.b} is too large to normalize at n={cfg.n}")
        return InitialState(math.sqrt(rem), cfg.b, cfg.n)
    norm = (cfg.a**2 + cfg.b**2 * (cfg.n - 1)) / cfg.n
    require_unit(norm, 1e-6, "squared norm of --a/--b", UsageError)
    scale = 1 / math.sqrt(norm)
    return InitialState(cfg.a * scale, cfg.b * scale, cfg.n)


def _k0_vector(cfg: ExperimentConfig) -> np.ndarray:
    selector = cfg.k0
    if selector.startswith("momentum:"):
        try:
            y0 = int(selector.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad momentum index in --k0 {selector!r}")
        return momentum_state(y0, cfg.n)
    if selector.startswith("file:"):
        path = selector.split(":", 1)[1]
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
    """The builder of the reduced kernels for arrays of unit phases (beta,
    delta), the list size they stand for, and the start they evolve from.

    ``--alpha1`` (refused with --a, --b or --k0) switches every kernel to
    the general-superposition form, which has no list size, and the start to
    (alpha1, sqrt(1 - alpha1^2)); otherwise the kernels have size ``--n``
    and the start is --a/--b.  Every refusal is made here, before a kernel
    is built.
    """
    if cfg.alpha1 is None:
        return lambda beta, delta: reduced_kernels(beta, delta, cfg.n), cfg.n, _initial_state(cfg)
    if cfg.a is not None or cfg.b is not None or cfg.k0 != "uniform":
        raise UsageError("--alpha1 fixes the kernel and the start; "
                         "it cannot be combined with --a, --b or --k0")
    start = np.array([cfg.alpha1, math.sqrt(1 - cfg.alpha1**2)], dtype=complex)
    return lambda beta, delta: extended_reduced_kernels(beta, delta, cfg.alpha1), None, start


def _trace_problem(cfg: ExperimentConfig):
    """``_reduced_problem`` for the trace, and the weight of its probabilities:
    1, or for a --k0 other than uniform, the ``invariant_plane`` of the full
    space (marked element 0) from k0 or from the --a/--b start."""
    if cfg.alpha1 is not None or cfg.k0 == "uniform":
        kernels_of, size, start = _reduced_problem(cfg)
        beta, delta = unit_phases([cfg.beta_phase]), unit_phases([cfg.delta_phase])
        return kernels_of(beta, delta), size, start, 1.0
    # Refused before the N-entry k0 vector is built or read.
    require_full_size(cfg.n, "full-space trace")
    x_in = vec = _k0_vector(cfg)
    if cfg.a is not None or cfg.b is not None:
        s = _initial_state(cfg)
        x_in = np.full(cfg.n, s.b / math.sqrt(cfg.n), dtype=complex)
        x_in[0] = s.a / math.sqrt(cfg.n)
    phases = GroverPhases.from_angles(cfg.beta_phase, cfg.delta_phase)
    kernel, start, weight = invariant_plane(FullSpaceConfig(cfg.n, 0, vec, phases), x_in)
    return kernel, None, start, weight


def _spans(count: int) -> Iterator[Tuple[int, int]]:
    """Ranges [lo, hi) of at most GRID_BLOCK grid points that cover ``count``."""
    return ((lo, min(lo + GRID_BLOCK, count)) for lo in range(0, count, GRID_BLOCK))


def _torus(p: int, q: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The p x q grid in row-major blocks: each point's row and column index."""
    for lo, hi in _spans(p * q):
        yield np.divmod(np.arange(lo, hi), q)


TRACE_ROW = "%d,%.17g\n"


def cmd_trace(cfg: ExperimentConfig) -> int:
    kernel, size, start, weight = _trace_problem(cfg)
    blocks = probability_blocks(kernel, start, cfg.m_max, size)
    # One block in memory at a time: evaluated, summarized, formatted, written.
    summary = TraceSummary()
    probs = (block[0] * weight for block in blocks)
    _write_csv(cfg, "m,prob", (rows(TRACE_ROW, [summary.add(p), p]) for p in probs), summary)
    return 0


SWEEP_ROW = "%.17g,%.17g,%.17g,%.17g,%d,%.0f\n"


def cmd_sweep(cfg: ExperimentConfig) -> int:
    p, q = _grid("sweep", cfg.grid, 2)
    kernels_of, size, start = _reduced_problem(cfg)

    def body():
        for i, j in _torus(p, q):
            bp = wrap_angle(cfg.beta_phase + TAU * i / p)
            dp = wrap_angle(cfg.delta_phase + TAU * j / q)
            beta, delta = unit_phases(bp), unit_phases(dp)
            # Each row's first maximum, folded over the stack's blocks of steps.
            peak_prob, peak_step, m = np.full(len(bp), -math.inf), np.zeros(len(bp), int), 0
            for block in probability_blocks(kernels_of(beta, delta), start, cfg.m_max, size):
                top = block.argmax(axis=1)
                prob = block[np.arange(len(block)), top]
                better = prob > peak_prob
                peak_prob[better], peak_step[better] = prob[better], m + top[better]
                m += block.shape[1]
            g_abs = _abs(beta - delta)
            yield rows(SWEEP_ROW, [
                bp, dp, g_abs, peak_prob, peak_step,
                np.where(g_abs <= TOL_EXACT, asymptotic_steps(
                    _atan2(delta.imag, delta.real), cfg.n, cfg.alpha1), np.nan)])

    _write_csv(cfg, "beta_phase,delta_phase,g_abs,peak_prob,peak_step,pred_M", body())
    return 0


def _diagonal(p: int, lo: int, hi: int) -> np.ndarray:
    """np.linspace(-pi, pi, p)[lo:hi], bit for bit, without the other points:
    numpy computes -pi + i * (2 pi / (p - 1)) and sets the last point to pi."""
    t = np.arange(lo, hi, dtype=float) * (TAU / (p - 1)) - math.pi
    if hi == p:
        t[-1] = math.pi
    return t


def _phase_blocks(cfg: ExperimentConfig) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
    """Blocks of phase angles (beta, delta) for spectrum/asymptotics: one
    config point, or the diagonal sweep linspace(-pi, pi, p).  A bad --grid
    is refused when this is called, not when the blocks are drawn."""
    if cfg.grid is None:
        return [(np.array([cfg.beta_phase]), np.array([cfg.delta_phase]))]
    p, _ = _grid(cfg.command, cfg.grid, 2, one_dim=True)
    for name in ("beta_phase", "delta_phase"):
        if getattr(cfg, name):
            raise UsageError(f"{cfg.command} --grid sweeps the diagonal; drop {_flag(name)}")
    diagonal = (_diagonal(p, lo, hi) for lo, hi in _spans(p))
    return ((t, t) for t in diagonal)


# beta_phase .. diag_gap_im, m_exact, m_asymptotic, m_stability, degenerate.
SPECTRUM_ROW = "%.17g," * 11 + "%.0f,%.0f,%.17g,%d\n"


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    blocks = _phase_blocks(cfg)
    kernels_of, size, _ = _reduced_problem(cfg)

    def body():
        for bp, dp in blocks:
            beta, delta = unit_phases(bp), unit_phases(dp)
            spec = eigensystems(kernels_of(beta, delta), size)
            diagonal = _abs(beta - delta) <= TOL_EXACT
            phi = _atan2(delta.imag, delta.real)
            stable = diagonal & (np.abs(phi) <= 0.5) & (size is not None)
            no_size = np.full(len(bp), complex(np.nan, np.nan))  # prints as empty cells
            diag_gap = no_size if size is None else spec.diag_gap
            yield rows(SPECTRUM_ROW, [
                wrap_angle(bp), wrap_angle(dp),
                spec.det.real, spec.det.imag, spec.trace.real, spec.trace.imag,
                spec.eigphase1, spec.eigphase2, spec.phase_gap, diag_gap.real, diag_gap.imag,
                np.floor(math.pi / np.where(spec.degenerate, np.nan, spec.phase_gap)),
                np.where(diagonal, asymptotic_steps(phi, cfg.n, cfg.alpha1), np.nan),
                np.where(stable, stability_expansion(phi, cfg.n), np.nan),
                spec.degenerate])

    _write_csv(cfg, "beta_phase,delta_phase,det_re,det_im,trace_re,trace_im,"
                    "eigphase1,eigphase2,phase_gap,diag_gap_re,diag_gap_im,"
                    "m_exact,m_asymptotic,m_stability,degenerate", body())
    return 0


ASYMPTOTICS_ROW = "%.17g,%d,%.17g,%.17g,%.0f\n"


def cmd_asymptotics(cfg: ExperimentConfig) -> int:
    blocks = _phase_blocks(cfg)

    def body():
        for _, dp in blocks:
            phi = wrap_angle(dp)
            gap = asymptotic_gaps(unit_phases(phi), cfg.n)
            yield rows(ASYMPTOTICS_ROW, [
                phi, np.full(len(phi), cfg.n), np.full(len(phi), cfg.alpha1 or math.nan), gap,
                np.where(np.isnan(gap), np.nan, asymptotic_steps(phi, cfg.n, cfg.alpha1))])

    _write_csv(cfg, "phi,n,alpha1,gap_asymptotic,m_asymptotic", body())
    return 0


# angle1, angle2, kernel_angle, axis_x, axis_y, axis_z, global_phase, flags.
MANIFOLD_ROW = "%.17g," * 7 + "%d,%d\n"


def cmd_manifold(cfg: ExperimentConfig) -> int:
    p, q = _grid("manifold", cfg.grid or "50x50", 1)

    def body():
        for i, j in _torus(p, q):
            # Anchor both grids at pi/2 so the original kernel is always on-grid.
            t1 = (math.pi / 2 + TAU * i / p) % TAU
            t2 = (math.pi / 2 + TAU * j / q) % TAU
            aa = kernel_manifold_points(t1, t2, cfg.n)
            grover = (np.abs(t1 - math.pi / 2) <= 1e-9) & (np.abs(t2 - math.pi / 2) <= 1e-9)
            equal = np.abs(wrap_angle(t1 - t2)) <= 1e-9
            yield rows(MANIFOLD_ROW, [t1, t2, aa.angle, *aa.axis.T, aa.global_phase,
                                      grover, equal])

    _write_csv(cfg, "angle1,angle2,kernel_angle,axis_x,axis_y,axis_z,"
                    "global_phase,grover_point,equal_angles", body())
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
