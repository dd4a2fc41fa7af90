"""Spectral analysis of reduced kernels.

A reduced kernel is a 2x2 unitary, a global phase times an SU(2) rotation,
so its eigensystem is available in closed form from that rotation.  This
module computes exact eigenphases and eigenvectors, the phase gap that
sets the search period, the large-N asymptotics of both, and the
axis-angle form that places a kernel on the rotation-group picture.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import TOL_EXACT, TOL_PIPELINE, as_matrix, unitarity_residual
from .errors import (
    DegenerateSubspaceError,
    DivergentPeriodError,
    InvalidSizeError,
    NormalizationError,
    SingularLimitError,
)
from .kernel import ReducedKernel, _unit_phase, grover_operator

__all__ = [
    "SpectralData",
    "AxisAngle",
    "ManifoldPoint",
    "eigensystem",
    "asymptotic_eigvec",
    "delta_omega_asymptotic",
    "optimal_steps_exact",
    "optimal_steps_asymptotic",
    "stability_expansion",
    "su2_decompose",
    "reconstruct",
    "kernel_manifold_points",
]

# Eigenvalues closer than this are treated as one doubly-degenerate level.
DEGENERACY_TOL = 1e-12

# Ratio of first-component magnitudes beyond which one eigenvector is
# considered clearly concentrated on the marked state.
DOMINANCE_RATIO = 4.0


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of a 2x2 kernel plus derived gap quantities.

    ``eigphase1``/``eigphase2`` are principal arguments in (-pi, pi].
    ``phase_gap`` is the angular distance between them on the circle, in
    (0, pi] (0 only when degenerate); it sets the search period.
    ``diag_gap`` is size * (K00 - K11), the scaled diagonal imbalance that
    appears in the closed-form eigenvectors; None when the kernel carries
    no list size.
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

    @property
    def signed_gap(self) -> float:
        """eigphase2 - eigphase1, unwrapped.

        At integer step counts a 2*pi shift of this value is invisible,
        so the closed-form amplitude may use it directly.
        """
        return self.eigphase2 - self.eigphase1


@dataclass(frozen=True)
class AxisAngle:
    """A 2x2 unitary as global phase times an axis-angle rotation.

    The matrix equals e^{i global_phase} (cos(angle) I + i sin(angle) n.sigma)
    with ``axis`` = n.  ``axis`` is None when angle is 0 or pi, where every
    axis reproduces the same matrix.
    """

    global_phase: float
    angle: float
    axis: Optional[np.ndarray]


@dataclass(frozen=True)
class ManifoldPoint:
    """One sampled kernel of the two-rotation-angle family."""

    angle1: float
    angle2: float
    decomposition: AxisAngle


def _kernel_matrix(k: Union[ReducedKernel, np.ndarray]) -> np.ndarray:
    if isinstance(k, ReducedKernel):
        return k.matrix
    m = as_matrix(k)
    if m.shape != (2, 2):
        raise InvalidSizeError(f"expected a 2x2 matrix, got {m.shape}")
    if unitarity_residual(m) > TOL_PIPELINE:
        raise NormalizationError("matrix is not unitary")
    return m


def _phase_fixed_eigvec(m: np.ndarray, z: complex) -> np.ndarray:
    """Unit eigenvector of ``m`` for eigenvalue ``z``.

    Built from whichever column of (m - z I) is better conditioned, then
    rotated so the second component is real positive (first component used
    as the reference when the second vanishes).
    """
    c1 = np.array([m[0, 1], z - m[0, 0]])
    c2 = np.array([z - m[1, 1], m[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    v = v / np.linalg.norm(v)
    ref = v[1] if abs(v[1]) > 1e-14 else v[0]
    return v * (abs(ref) / ref)


def eigensystem(k: Union[ReducedKernel, np.ndarray]) -> SpectralData:
    """Closed-form eigensystem of a reduced kernel, from ``_dephase``.

    The eigenvalues are e^{i(lam -/+ angle)} and the phase gap is
    2 atan2(sin(angle), |cos(angle)|), exact to rounding however close the
    levels sit; |eigval1 - eigval2| = 2 sin(angle) <= DEGENERACY_TOL makes
    them one level.  eigvec2 is the eigenvector concentrated on the marked
    state when the two first-component magnitudes differ by more than
    DOMINANCE_RATIO, and otherwise (the balanced regime) the one whose
    phase-fixed first component has positive imaginary part, which keeps it
    continuous across the family and matched to the asymptotic formulas.
    """
    m = _kernel_matrix(k)
    size = k.size if isinstance(k, ReducedKernel) else None
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    diag_gap = size * (m[0, 0] - m[1, 1]) if size is not None else None

    lam, c, sin_axis = _dephase(m)
    s = math.hypot(*sin_axis)
    angle = math.atan2(s, c)
    za, zb = cmath.exp(1j * (lam - angle)), cmath.exp(1j * (lam + angle))
    degenerate = 2 * s <= DEGENERACY_TOL
    if degenerate:
        zb = za
        va, vb = np.array([1.0 + 0j, 0.0]), np.array([0.0, 1.0 + 0j])
    else:
        va = _phase_fixed_eigvec(m, za)
        vb = _phase_fixed_eigvec(m, zb)
        ma, mb = abs(va[0]), abs(vb[0])
        if max(ma, mb) > DOMINANCE_RATIO * min(ma, mb):
            swap = ma > mb
        else:
            swap = va[0].imag > vb[0].imag
        if swap:
            za, zb, va, vb = zb, za, vb, va

    return SpectralData(
        det=complex(det), trace=complex(tr),
        eigval1=za, eigval2=zb,
        eigphase1=cmath.phase(za), eigphase2=cmath.phase(zb),
        eigvec1=va, eigvec2=vb, diag_gap=diag_gap, degenerate=degenerate,
        phase_gap=0.0 if degenerate else 2 * math.atan2(s, abs(c)))


def asymptotic_eigvec(beta: complex, delta: complex, n: int) -> np.ndarray:
    """Large-N direction of the marked-side eigenvector (eigvec2).

    In the balanced regime beta = delta the limit is (i sqrt(delta), 1)/sqrt(2)
    with the principal root.  Off balance the first component grows like
    sqrt(n): the direction is ((beta - delta) sqrt(n)/(1 + delta), 1),
    normalized, which is singular at delta = -1.
    """
    if n < 2:
        raise InvalidSizeError(f"list size must be >= 2, got {n}")
    beta = _unit_phase(beta, "beta")
    delta = _unit_phase(delta, "delta")
    if abs(beta - delta) <= TOL_EXACT:
        return np.array([1j * np.sqrt(delta), 1.0 + 0j]) / np.sqrt(2)
    if abs(1 + delta) <= TOL_EXACT:
        raise SingularLimitError("off-balance direction undefined at delta = -1")
    v = np.array([(beta - delta) * np.sqrt(n) / (1 + delta), 1.0 + 0j])
    return v / np.linalg.norm(v)


def delta_omega_asymptotic(delta: complex, n: int) -> float:
    """Leading-order phase gap 4 Re(sqrt(delta)) / sqrt(n) in the balanced regime."""
    if n < 2:
        raise InvalidSizeError(f"list size must be >= 2, got {n}")
    delta = _unit_phase(delta, "delta")
    re_root = float(np.sqrt(delta).real)
    if re_root <= TOL_EXACT:
        raise DivergentPeriodError("phase gap vanishes at the far end of the family")
    return 4.0 * re_root / math.sqrt(n)


def optimal_steps_exact(s: SpectralData) -> int:
    """floor(pi / phase_gap): the exact optimal iteration count."""
    if s.degenerate or s.phase_gap <= 0:
        raise DivergentPeriodError("degenerate spectrum has no finite search period")
    return int(math.floor(math.pi / s.phase_gap))


def optimal_steps_asymptotic(phi: float, n: int, alpha1: Optional[float] = None) -> int:
    """Asymptotic optimal step count of the balanced family at angle phi.

    Standard mode: floor(pi sqrt(n) / (4 cos(phi/2))).  When ``alpha1`` is
    given, the general-superposition form floor(pi / (4 alpha1 cos(phi/2)))
    is used instead; alpha1 = 1/sqrt(n) reproduces the standard value.
    """
    if abs(phi) >= math.pi:
        raise DivergentPeriodError("no finite period at the far end of the family")
    c = math.cos(phi / 2)
    if alpha1 is None:
        if n < 2:
            raise InvalidSizeError(f"list size must be >= 2, got {n}")
        return int(math.floor(math.pi * math.sqrt(n) / (4 * c)))
    if not 0.0 < alpha1 < 1.0:
        raise DegenerateSubspaceError(
            f"overlap must lie strictly between 0 and 1, got {alpha1}")
    return int(math.floor(math.pi / (4 * alpha1 * c)))


def stability_expansion(dphi: float, n: int) -> float:
    """Second-order step-count growth (pi/4)(1 + 0.125 dphi^2) sqrt(n).

    Valid as an expansion for |dphi| <= 0.5 around the textbook kernel;
    returned unfloored.
    """
    return (math.pi / 4) * (1 + 0.125 * dphi * dphi) * math.sqrt(n)


def _axis_matrix(axis: Sequence[float]) -> np.ndarray:
    nx, ny, nz = axis
    return np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])


def _dephase(m: np.ndarray) -> Tuple[float, float, Tuple[float, float, float]]:
    """SU(2) form of a 2x2 unitary m: (lam, cos(angle), sin(angle) n).

    lam = arg(det)/2, and m e^{-i lam} = cos(angle) I + i sin(angle) n.sigma.
    Python scalars: several times faster than numpy scalars at this size.
    """
    (a, b), (c, d) = m.tolist()
    lam = cmath.phase(a * d - b * c) / 2
    u = cmath.exp(-1j * lam)
    a, b, c, d = a * u, b * u, c * u, d * u
    return lam, (a + d).real / 2, ((b + c).imag / 2, (b - c).real / 2, a.imag)


def su2_decompose(k: Union[ReducedKernel, np.ndarray]) -> AxisAngle:
    """Split a 2x2 unitary into global phase times an axis-angle rotation.

    The parts come from ``_dephase``; atan2 of sin(angle) and cos(angle)
    keeps full precision at both ends of [0, pi].  At angle 0 or pi the
    rotation is a multiple of the identity and the axis is reported as None.
    """
    lam, c, sin_axis = _dephase(_kernel_matrix(k))
    s = math.hypot(*sin_axis)
    angle = math.atan2(s, c)
    if s < 1e-9:
        return AxisAngle(global_phase=lam, angle=angle, axis=None)
    return AxisAngle(global_phase=lam, angle=angle, axis=np.array(sin_axis) / s)


def reconstruct(aa: AxisAngle) -> np.ndarray:
    """Matrix of an axis-angle decomposition (inverse of su2_decompose)."""
    rot = math.cos(aa.angle) * np.eye(2)
    if aa.axis is not None:
        rot = rot + 1j * math.sin(aa.angle) * _axis_matrix(aa.axis)
    return np.exp(1j * aa.global_phase) * rot


def _rotation(t: float, axis: np.ndarray) -> np.ndarray:
    return math.cos(t) * np.eye(2) + 1j * math.sin(t) * _axis_matrix(axis)


def kernel_manifold_points(grid1: Sequence[float], grid2: Sequence[float],
                           n: int = 10) -> List[ManifoldPoint]:
    """Sample the two-angle family of kernels built from the textbook factors.

    The two reflections of the size-n search kernel, made special-unitary
    with a factor of i each, fix two rotation axes.  Varying the rotation
    angles about those fixed axes (and keeping the -1 phase the two factors
    of i contribute) sweeps a two-parameter surface of kernels; the point
    (pi/2, pi/2) is the original kernel itself.  Points are emitted in
    row-major order: grid1 outer, grid2 inner.
    """
    if n < 2:
        raise InvalidSizeError(f"list size must be >= 2, got {n}")
    marked = np.array([1.0 + 0j, 0.0])
    u = np.array([1 / np.sqrt(n), np.sqrt((n - 1) / n)], dtype=complex)
    g1 = grover_operator(marked, -1.0, 1.0)
    g2 = grover_operator(u, -1.0, 1.0)
    axis1 = su2_decompose(1j * g1).axis
    axis2 = su2_decompose(1j * g2).axis
    points = []
    for t1, t2 in product(grid1, grid2):
        m = -(_rotation(t2, axis2) @ _rotation(t1, axis1))
        points.append(ManifoldPoint(float(t1), float(t2), su2_decompose(m)))
    return points
