"""Spectral analysis of reduced kernels.

A reduced kernel is a 2x2 unitary, a global phase times an SU(2) rotation,
so its eigensystem is available in closed form from that rotation.  This
module computes exact eigenphases and eigenvectors, the phase gap that
sets the search period, the large-N asymptotics of both, and the
axis-angle form that places a kernel on the rotation-group picture.

The decompositions work on stacks of kernels of shape (K, 2, 2);
``eigensystem`` and ``su2_decompose`` are their batches of one.  Each
entry has the bits of the scalar formula: complex products are taken part
by part and atan2 and the 3-norm come from ``math``, because numpy's may
differ in the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .algebra import (TOL_EXACT, TOL_PIPELINE, _atan2, _cmul, _expi, _require_list_size,
                      require_unitary)
from .errors import (
    DegenerateSubspaceError,
    DivergentPeriodError,
    InvalidSizeError,
    ShapeError,
    SingularLimitError,
)
from .kernel import ReducedKernel, _unit_phases, grover_operator

__all__ = [
    "SpectralData",
    "AxisAngle",
    "eigensystem",
    "eigensystems",
    "asymptotic_eigvec",
    "asymptotic_gaps",
    "delta_omega_asymptotic",
    "optimal_steps_exact",
    "asymptotic_steps",
    "optimal_steps_asymptotic",
    "stability_expansion",
    "su2_decompose",
    "su2_decompositions",
    "kernel_manifold_points",
]

# Eigenvalues closer than this are treated as one doubly-degenerate level.
DEGENERACY_TOL = 1e-12

# Ratio of first-component magnitudes beyond which one eigenvector is
# considered clearly concentrated on the marked state.
DOMINANCE_RATIO = 4.0

# A rotation with sin(angle) below this is a multiple of the identity: no axis.
AXIS_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of a 2x2 kernel plus derived gap quantities.

    ``eigphase1``/``eigphase2`` are principal arguments in (-pi, pi].
    ``phase_gap`` is the angular distance between them on the circle, in
    (0, pi] (0 only when degenerate); it sets the search period.
    ``diag_gap`` is size * (K00 - K11), the scaled diagonal imbalance that
    appears in the closed-form eigenvectors; None when the kernel carries
    no list size.  From ``eigensystems`` every field is an array with one
    entry (an eigenvector: one row) per kernel.
    """

    det: complex
    trace: complex
    eigval1: complex
    eigval2: complex
    eigphase1: float
    eigphase2: float
    eigvec1: np.ndarray
    eigvec2: np.ndarray
    phase_gap: float
    diag_gap: Optional[complex]
    degenerate: bool


@dataclass(frozen=True)
class AxisAngle:
    """A 2x2 unitary as global phase times an axis-angle rotation.

    The matrix equals e^{i global_phase} (cos(angle) I + i sin(angle) n.sigma)
    with ``axis`` = n.  ``axis`` is None when angle is 0 or pi, where every
    axis reproduces the same matrix.  From ``su2_decompositions`` the fields
    are arrays, ``axis`` of shape (K, 3) with NaN rows for the missing axes.
    """

    global_phase: float
    angle: float
    axis: Optional[np.ndarray]


def _kernel_stack(k: Union[ReducedKernel, np.ndarray]) -> np.ndarray:
    """A kernel or a stack of kernels as a (K, 2, 2) array; an array must be
    finite and, matrix by matrix, unitary within TOL_PIPELINE."""
    if isinstance(k, ReducedKernel):
        return k.matrix[None]
    m = np.asarray(k, dtype=complex)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a 2x2 matrix or a stack of them, got shape {m.shape}")
    if m.shape[-2:] != (2, 2):
        raise InvalidSizeError(f"expected 2x2 matrices, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix has non-finite entries")
    require_unitary(m, TOL_PIPELINE, "matrix")
    return m.reshape(-1, 2, 2)


def _single(k: Union[ReducedKernel, np.ndarray]) -> Union[ReducedKernel, np.ndarray]:
    """One kernel, for a batch of one: a bare array must be 2-D."""
    if not isinstance(k, ReducedKernel) and np.ndim(k) != 2:
        raise ShapeError(f"expected a 2x2 matrix, got shape {np.shape(k)}")
    return k


def _dephase(m: np.ndarray):
    """SU(2) form of a stack m of 2x2 unitaries: (det, lam, cos(angle),
    sin(angle), sin(angle) n), each with one entry (n: one row) per matrix.

    lam = arg(det)/2, and m e^{-i lam} = cos(angle) I + i sin(angle) n.sigma.
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    det = _cmul(a, d) - _cmul(b, c)
    lam = _atan2(det.imag, det.real) / 2
    u = _expi(-lam)
    a, b, c, d = _cmul(a, u), _cmul(b, u), _cmul(c, u), _cmul(d, u)
    sin_axis = np.stack([(b.imag + c.imag) / 2, (b.real - c.real) / 2, a.imag], axis=-1)
    sin = np.fromiter(map(math.hypot, *sin_axis.T.tolist()), float, len(m))
    return det, lam, (a.real + d.real) / 2, sin, sin_axis


def _folded(m: np.ndarray):
    """``_dephase``'s angle and axis columns nx, ny, nz (zero where sin(angle) is
    0), with a negative cos(angle) moved into the global phase: angle lies in
    [0, pi/2], so it keeps full relative precision where the unfolded one (near pi
    for the textbook kernel, -1 times a small rotation) has an error of ulp(pi)."""
    _, _, c, s, sin_axis = _dephase(m)
    sign = np.where(c < 0, -1.0, 1.0)[:, None]
    axis = np.divide(sign * sin_axis, s[:, None], where=(s > 0)[:, None],
                     out=np.zeros_like(sin_axis))
    return _atan2(s, np.abs(c)), *axis.T


def _phase_fixed_eigvecs(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (rows) of the kernels m for their eigenvalues z.

    Each is built from whichever column of (m - z I) is better conditioned,
    then rotated so the second component is real positive (first component
    used as the reference when the second vanishes).
    """
    c1 = np.stack([m[:, 0, 1], z - m[:, 0, 0]], axis=-1)
    c2 = np.stack([z - m[:, 1, 1], m[:, 1, 0]], axis=-1)
    first = np.linalg.norm(c1, axis=-1) >= np.linalg.norm(c2, axis=-1)
    v = np.where(first[:, None], c1, c2)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    ref = np.where(np.abs(v[:, 1]) > 1e-14, v[:, 1], v[:, 0])
    return v * (np.abs(ref) / ref)[:, None]


def eigensystems(kernels: Union[ReducedKernel, np.ndarray],
                 size: Optional[int] = None) -> SpectralData:
    """Closed-form eigensystems of a (K, 2, 2) stack of kernels, from ``_dephase``.

    The eigenvalues are e^{i(lam -/+ angle)} and the phase gap is
    2 atan2(sin(angle), |cos(angle)|), exact to rounding however close the
    levels sit; |eigval1 - eigval2| = 2 sin(angle) <= DEGENERACY_TOL makes
    them one level.  eigvec2 is the eigenvector concentrated on the marked
    state when the two first-component magnitudes differ by more than
    DOMINANCE_RATIO, and otherwise (the balanced regime) the one whose
    phase-fixed first component has positive imaginary part, which keeps it
    continuous across the family and matched to the asymptotic formulas.
    ``size`` is the list size the kernels stand for, if any.
    """
    m = _kernel_stack(kernels)
    det, lam, c, s, _ = _dephase(m)
    angle = _atan2(s, c)
    degenerate = 2 * s <= DEGENERACY_TOL
    za = _expi(lam - angle)
    zb = np.where(degenerate, za, _expi(lam + angle))
    va = np.zeros((len(m), 2), dtype=complex)
    vb = va.copy()
    va[:, 0] = vb[:, 1] = 1.0
    live = ~degenerate
    va[live] = _phase_fixed_eigvecs(m[live], za[live])
    vb[live] = _phase_fixed_eigvecs(m[live], zb[live])
    ma, mb = np.abs(va[:, 0]), np.abs(vb[:, 0])
    dominated = np.maximum(ma, mb) > DOMINANCE_RATIO * np.minimum(ma, mb)
    swap = live & np.where(dominated, ma > mb, va[:, 0].imag > vb[:, 0].imag)
    za, zb = np.where(swap, zb, za), np.where(swap, za, zb)
    va, vb = np.where(swap[:, None], vb, va), np.where(swap[:, None], va, vb)
    return SpectralData(
        det=det, trace=m[:, 0, 0] + m[:, 1, 1], eigval1=za, eigval2=zb,
        eigphase1=_atan2(za.imag, za.real), eigphase2=_atan2(zb.imag, zb.real),
        eigvec1=va, eigvec2=vb, degenerate=degenerate,
        diag_gap=None if size is None else size * (m[:, 0, 0] - m[:, 1, 1]),
        phase_gap=np.where(degenerate, 0.0, 2 * _atan2(s, np.abs(c))))


def eigensystem(k: Union[ReducedKernel, np.ndarray]) -> SpectralData:
    """The eigensystem of one kernel: ``eigensystems`` of a batch of one."""
    size = k.size if isinstance(k, ReducedKernel) else None
    b = eigensystems(_single(k), size)
    return SpectralData(
        det=complex(b.det[0]), trace=complex(b.trace[0]),
        eigval1=complex(b.eigval1[0]), eigval2=complex(b.eigval2[0]),
        eigphase1=float(b.eigphase1[0]), eigphase2=float(b.eigphase2[0]),
        eigvec1=b.eigvec1[0], eigvec2=b.eigvec2[0], phase_gap=float(b.phase_gap[0]),
        diag_gap=None if size is None else complex(b.diag_gap[0]),
        degenerate=bool(b.degenerate[0]))


def asymptotic_eigvec(beta: complex, delta: complex, n: int) -> np.ndarray:
    """Large-N direction of the marked-side eigenvector (eigvec2).

    In the balanced regime beta = delta the limit is (i sqrt(delta), 1)/sqrt(2)
    with the principal root.  Off balance the first component grows like
    sqrt(n): the direction is ((beta - delta) sqrt(n)/(1 + delta), 1),
    normalized, which is singular at delta = -1.
    """
    _require_list_size(n)
    beta = complex(_unit_phases(beta, "beta"))
    delta = complex(_unit_phases(delta, "delta"))
    if abs(beta - delta) <= TOL_EXACT:
        return np.array([1j * np.sqrt(delta), 1.0 + 0j]) / np.sqrt(2)
    if abs(1 + delta) <= TOL_EXACT:
        raise SingularLimitError("off-balance direction undefined at delta = -1")
    v = np.array([(beta - delta) * np.sqrt(n) / (1 + delta), 1.0 + 0j])
    return v / np.linalg.norm(v)


def asymptotic_gaps(delta, n: int) -> np.ndarray:
    """``delta_omega_asymptotic`` over an array of phases, NaN where the gap vanishes."""
    re_root = np.sqrt(_unit_phases(delta, "delta")).real
    return np.where(re_root > TOL_EXACT, 4.0 * re_root / math.sqrt(n), np.nan)


def delta_omega_asymptotic(delta: complex, n: int) -> float:
    """Leading-order phase gap 4 Re(sqrt(delta)) / sqrt(n) in the balanced regime."""
    _require_list_size(n)
    gap = float(asymptotic_gaps(delta, n))
    if math.isnan(gap):
        raise DivergentPeriodError("phase gap vanishes at the far end of the family")
    return gap


def optimal_steps_exact(s: SpectralData) -> int:
    """floor(pi / phase_gap): the exact optimal iteration count."""
    if s.degenerate or s.phase_gap <= 0:
        raise DivergentPeriodError("degenerate spectrum has no finite search period")
    return int(math.floor(math.pi / s.phase_gap))


def asymptotic_steps(phi, n: int, alpha1: Optional[float] = None) -> np.ndarray:
    """``optimal_steps_asymptotic`` over an array of angles, as floats that
    are NaN where |phi| >= pi or the period is infinite (as pi / (4 alpha1
    cos(phi/2)) is for a tiny alpha1); n and alpha1 are not checked."""
    phi = np.asarray(phi, dtype=float)
    c = np.cos(phi / 2)
    with np.errstate(over="ignore", divide="ignore"):
        period = (math.pi * math.sqrt(n) / (4 * c) if alpha1 is None
                  else math.pi / (4 * alpha1 * c))
    return np.where((np.abs(phi) < math.pi) & np.isfinite(period), np.floor(period), np.nan)


def optimal_steps_asymptotic(phi: float, n: int, alpha1: Optional[float] = None) -> int:
    """Asymptotic optimal step count of the balanced family at angle phi.

    Standard mode: floor(pi sqrt(n) / (4 cos(phi/2))).  When ``alpha1`` is
    given, the general-superposition form floor(pi / (4 alpha1 cos(phi/2)))
    is used instead; alpha1 = 1/sqrt(n) reproduces the standard value.
    """
    if alpha1 is None:
        _require_list_size(n)
    elif not 0.0 < alpha1 < 1.0:
        raise DegenerateSubspaceError(
            f"overlap must lie strictly between 0 and 1, got {alpha1}")
    steps = float(asymptotic_steps(phi, n, alpha1))
    if math.isnan(steps):
        raise DivergentPeriodError(f"no finite period at phi = {phi}")
    return int(steps)


def stability_expansion(dphi: float, n: int) -> float:
    """Second-order step-count growth (pi/4)(1 + 0.125 dphi^2) sqrt(n).

    Valid as an expansion for |dphi| <= 0.5 around the textbook kernel;
    returned unfloored.  Elementwise when dphi is an array.
    """
    return (math.pi / 4) * (1 + 0.125 * dphi * dphi) * math.sqrt(n)


def su2_decompositions(kernels: Union[ReducedKernel, np.ndarray]) -> AxisAngle:
    """Split each unitary of a (K, 2, 2) stack into global phase times an
    axis-angle rotation.

    The parts come from ``_dephase``; atan2 of sin(angle) and cos(angle)
    keeps full precision at both ends of [0, pi].  Where sin(angle) is
    below AXIS_TOL the rotation is a multiple of the identity and the axis
    row is NaN.
    """
    _, lam, c, s, sin_axis = _dephase(_kernel_stack(kernels))
    axis = np.divide(sin_axis, s[:, None], out=np.full_like(sin_axis, np.nan),
                     where=(s >= AXIS_TOL)[:, None])
    return AxisAngle(global_phase=lam, angle=_atan2(s, c), axis=axis)


def su2_decompose(k: Union[ReducedKernel, np.ndarray]) -> AxisAngle:
    """One unitary's ``su2_decompositions``; the axis is None at angle 0 or pi."""
    b = su2_decompositions(_single(k))
    axis = None if np.isnan(b.axis[0, 0]) else b.axis[0]
    return AxisAngle(global_phase=float(b.global_phase[0]), angle=float(b.angle[0]), axis=axis)


def kernel_manifold_points(angle1, angle2, n: int = 10) -> AxisAngle:
    """Sample the two-angle family of kernels built from the textbook factors.

    The two reflections of the size-n search kernel, made special-unitary
    with a factor of i each, fix two rotation axes.  Varying the rotation
    angles about those fixed axes (and keeping the -1 phase the two factors
    of i contribute) sweeps a two-parameter surface of kernels; the point
    (pi/2, pi/2) is the original kernel itself.  ``angle1`` and ``angle2``
    broadcast against each other (a column against a row gives a grid);
    the decompositions come back as ``su2_decompositions`` columns, one per
    point in row-major order.
    """
    _require_list_size(n)
    axis1, axis2 = _reflection_axes(n)
    t1, t2 = (np.reshape(t, -1)[:, None, None]
              for t in np.broadcast_arrays(np.asarray(angle1, float), np.asarray(angle2, float)))
    r1 = np.cos(t1) * np.eye(2) + 1j * np.sin(t1) * axis1
    r2 = np.cos(t2) * np.eye(2) + 1j * np.sin(t2) * axis2
    return su2_decompositions(-(r2 @ r1))


@functools.lru_cache(maxsize=16)
def _reflection_axes(n: int):
    """The rotation axes a of the size-n kernel's two reflections, made
    special-unitary with a factor of i each, as a read-only stack of a.sigma."""
    marked = np.array([1.0 + 0j, 0.0])
    u = np.array([1 / np.sqrt(n), np.sqrt((n - 1) / n)], dtype=complex)
    reflections = 1j * np.stack([grover_operator(marked, -1.0, 1.0),
                                 grover_operator(u, -1.0, 1.0)])
    axes = np.stack([np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
                     for nx, ny, nz in su2_decompositions(reflections).axis])
    axes.setflags(write=False)
    return axes
