"""Spectral analysis of reduced kernels.

A reduced kernel is a 2x2 unitary, a global phase times an SU(2) rotation,
so its eigensystem is available in closed form from that rotation.  This
module computes exact eigenphases and eigenvectors, the phase gap that
sets the search period, the large-N asymptotics of both, and the
axis-angle form that places a kernel on the rotation-group picture.

The decompositions work on stacks of kernels of shape (K, 2, 2);
``eigensystem`` and ``su2_decompose`` are their batches of one.  Each
entry has the bits of the scalar formula: complex products are taken part
by part and atan2 and the 3-norm of a matrix's axis come from ``math``,
because numpy's may differ in the last bit.  Where the angles are given,
the SU(2) form is written in closed form from them: ``_phase_rotations``
from the phase angles (for ``phase_spectra`` and the traces and sweeps),
``kernel_manifold_points`` from the rotation angles; one step turns that
form into its angles (``_rotation_angles``, with the sum of squares' root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .algebra import (_TAU_LO, TAU, TOL_EXACT, TOL_PIPELINE, _atan2, _cmul, _complex, _expi,
                      _require_list_size, _require_overlap, require_unitary, wrap_angle)
from .errors import DivergentPeriodError, InvalidSizeError, ShapeError, SingularLimitError
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
    "PhaseSpectra",
    "phase_spectra",
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
    sin(angle), sin(angle) n), one entry per matrix (n: rows x, y, z).

    lam = arg(det)/2, and m e^{-i lam} = cos(angle) I + i sin(angle) n.sigma.
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    det = _cmul(a, d) - _cmul(b, c)
    lam = _atan2(det.imag, det.real) / 2
    a, b, c, d = _cmul(np.ascontiguousarray(m.reshape(-1, 4).T), _expi(-lam))  # times e^{-i lam}
    sin_axis = np.stack([(b.imag + c.imag) / 2, (b.real - c.real) / 2, a.imag])
    sin = np.fromiter(map(math.hypot, *sin_axis.tolist()), float, len(m))
    return det, lam, (a.real + d.real) / 2, sin, sin_axis


def _phase_fixed_eigvecs(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the kernels m for the two eigenvalues of each
    in z, of shape (2, K), as a (K, 2, 2) stack: kernel, eigenvalue, component.

    Each is built from whichever column of (m - z I) is better conditioned,
    then rotated so the second component is real positive (first component
    used as the reference when the second vanishes).  Components are the
    leading axis while they are built, and each norm is np.linalg.norm's:
    sqrt of the sum of (x.conj() x).real.
    """
    cols = np.empty((4,) + z.shape, dtype=complex)  # two columns of m - z I per z
    cols[0], cols[3] = m[:, 0, 1], m[:, 1, 0]
    np.subtract(z, m[:, 0, 0], out=cols[1])
    np.subtract(z, m[:, 1, 1], out=cols[2])
    sq = (cols.conj() * cols).real
    norms = np.sqrt(sq[0::2] + sq[1::2])
    first = norms[0] >= norms[1]
    v = np.where(first, cols[:2], cols[2:]) / np.where(first, norms[0], norms[1])
    ref = np.where(np.abs(v[1]) > 1e-14, v[1], v[0])
    return (v * (np.abs(ref) / ref)).T


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
    v = np.zeros((len(m), 2, 2), dtype=complex)
    v[:, 0, 0] = v[:, 1, 1] = 1.0
    live = ~degenerate
    v[live] = _phase_fixed_eigvecs(m[live], np.stack([za[live], zb[live]]))
    va, vb = v[:, 0], v[:, 1]
    ma, mb = np.abs(va[:, 0]), np.abs(vb[:, 0])
    dominated = np.maximum(ma, mb) > DOMINANCE_RATIO * np.minimum(ma, mb)
    swap = live & np.where(dominated, ma > mb, va[:, 0].imag > vb[:, 0].imag)
    za, zb = np.where(swap, zb, za), np.where(swap, za, zb)
    va, vb = np.where(swap[:, None], vb, va), np.where(swap[:, None], va, vb)
    gap, negative = 2 * angle, np.signbit(c)  # atan2(s, |c|) is atan2(s, c) where c >= +0
    gap[negative] = 2 * _atan2(s[negative], np.abs(c[negative]))
    return SpectralData(
        det=det, trace=m[:, 0, 0] + m[:, 1, 1], eigval1=za, eigval2=zb,
        eigphase1=_atan2(za.imag, za.real), eigphase2=_atan2(zb.imag, zb.real),
        eigvec1=va, eigvec2=vb, degenerate=degenerate,
        diag_gap=None if size is None else size * (m[:, 0, 0] - m[:, 1, 1]),
        phase_gap=np.where(degenerate, 0.0, gap))


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
    else:
        _require_overlap(alpha1)
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
    axis = np.divide(sin_axis, s, out=np.full_like(sin_axis, np.nan), where=s >= AXIS_TOL)
    return AxisAngle(global_phase=lam, angle=_atan2(s, c), axis=axis.T)


def su2_decompose(k: Union[ReducedKernel, np.ndarray]) -> AxisAngle:
    """One unitary's ``su2_decompositions``; the axis is None at angle 0 or pi."""
    b = su2_decompositions(_single(k))
    axis = None if np.isnan(b.axis[0, 0]) else b.axis[0]
    return AxisAngle(global_phase=float(b.global_phase[0]), angle=float(b.angle[0]), axis=axis)


@dataclass(frozen=True)
class PhaseSpectra:
    """The spectra ``phase_spectra`` computes from the phase angles: the
    ``SpectralData`` fields but the eigenvalues and eigenvectors, each an
    array with one entry per kernel."""

    det: np.ndarray
    trace: np.ndarray
    eigphase1: np.ndarray
    eigphase2: np.ndarray
    phase_gap: np.ndarray
    diag_gap: Optional[np.ndarray]
    degenerate: np.ndarray


# |n_z| beyond which one eigenvector is concentrated on the marked state: the
# eigenvectors' first components have magnitudes sqrt((1 +- n_z)/2), whose
# ratio exceeds DOMINANCE_RATIO exactly here.
DOMINANT_NZ = (DOMINANCE_RATIO**2 - 1) / (DOMINANCE_RATIO**2 + 1)


def _rotation_angles(cos: np.ndarray, sin_axis: np.ndarray):
    """(sin(angle), folded angle, angle) of the rotations cos(angle) I + i
    sin(angle) n.sigma given by cos(angle) and the rows of sin(angle) n, of
    shape (3, K): the folded angle atan2(sin, |cos|) lies in [0, pi/2] with
    full relative precision, and the angle in [0, pi] is it or pi less it, one
    atan2 per rotation."""
    x, y, z = sin_axis
    sin = np.sqrt(x * x + y * y + z * z)
    folded = _atan2(sin, np.abs(cos))
    return sin, folded, np.where(cos < 0, math.pi - folded, folded)


def _phase_rotations(bp: np.ndarray, dp: np.ndarray, n: Optional[int] = None,
                     alpha1: Optional[float] = None):
    """The reduced kernels of phase angles bp and dp (1-D, of one length), of size
    n or, with ``alpha1``, of the general-superposition form, in closed form:
    (lam, cos lam, sin lam, cos, (x, y, z)) for e^{i lam} (cos I + i (x, y,
    z).sigma), with no kernel matrix.

    With h = (dp - bp)/2, lam = bp + h, w = 1/n and r = sqrt(n - 1)/n (alpha1^2
    and alpha1 sqrt(1 - alpha1^2) with ``alpha1``),

        cos = w cos lam - (1 - w) cos h,   z = -(w sin lam + (1 - w) sin h),
        x = -2 r cos(dp/2) sin(bp/2),      y = -2 r cos(dp/2) cos(bp/2).

    dp - bp is exact where the phases are close (Sterbenz), so sin h keeps
    full relative precision, and with it a near-balanced kernel's small
    rotation, which the rounded entries of a kernel matrix lose.  Where the
    phases lie close across the cut at +-pi, their difference is taken to
    2 pi (TAU, then _TAU_LO), and lam and h move by pi, which turns the
    rotation's sign.  e^{i lam} comes from the sum bp + h, not from its
    rounding, which is all of sin lam near lam = pi, where beta and delta are
    near -1.
    """
    if alpha1 is None:
        _require_list_size(n)
        w, rest, r = 1 / n, (n - 1) / n, math.sqrt(n - 1) / n
    else:
        _require_overlap(alpha1)
        w, rest = alpha1 * alpha1, 1 - alpha1 * alpha1
        r = alpha1 * math.sqrt(rest)
    d = dp - bp
    far = np.abs(d) > math.pi
    side = np.copysign(1.0, dp[far])
    d[far] = (dp[far] - side * TAU) - bp[far] - side * _TAU_LO
    h = d / 2
    cos_bp, sin_bp, cos_h, sin_h = np.cos(bp), np.sin(bp), np.cos(h), np.sin(h)
    cos_lam, sin_lam = cos_bp * cos_h - sin_bp * sin_h, sin_bp * cos_h + cos_bp * sin_h
    half = np.where(far, 2 * r, -2 * r) * np.cos(dp / 2)
    sin_axis = np.stack([half * np.sin(bp / 2), half * np.cos(bp / 2),
                         -(w * sin_lam + rest * sin_h)])
    return bp + h, cos_lam, sin_lam, w * cos_lam - rest * cos_h, sin_axis


def phase_spectra(beta_phase, delta_phase, n: Optional[int] = None,
                  alpha1: Optional[float] = None) -> PhaseSpectra:
    """The spectra of ``_phase_rotations``' kernels of phase angles (bp, dp) =
    (beta_phase, delta_phase), which broadcast against each other: det = e^{i(bp
    + dp)}, trace = 2 cos e^{i lam}, diag_gap = n (K00 - K11) = 2i n z e^{i lam}
    (None with ``alpha1``), and the eigenphases lam -/+ angle, wrapped, in
    ``eigensystems``' order: eigvec2 is the eigenvector concentrated on the
    marked state where |n_z| > DOMINANT_NZ (it belongs to lam + angle exactly
    when n_z > 0), and otherwise the one whose phase-fixed first component has
    positive imaginary part (lam - angle exactly when n_y > 0).
    """
    bp, dp = (np.reshape(t, -1) for t in np.broadcast_arrays(np.asarray(beta_phase, float),
                                                             np.asarray(delta_phase, float)))
    lam, cos_lam, sin_lam, cos, sin_axis = _phase_rotations(bp, dp, n, alpha1)
    sin, folded, angle = _rotation_angles(cos, sin_axis)
    _, y, z = sin_axis
    degenerate = 2 * sin <= DEGENERACY_TOL
    plus_first = ~degenerate & np.where(np.abs(z) > DOMINANT_NZ * sin, z < 0, y > 0)
    minus, plus = wrap_angle(lam - angle), wrap_angle(lam + angle)
    twice_n = None if alpha1 is not None else 2.0 * n
    return PhaseSpectra(
        det=_expi(bp + dp), trace=_complex(2 * cos * cos_lam, 2 * cos * sin_lam),
        eigphase1=np.where(plus_first, plus, minus),
        eigphase2=np.where(plus_first | degenerate, minus, plus),
        phase_gap=np.where(degenerate, 0.0, 2 * folded), degenerate=degenerate,
        diag_gap=None if twice_n is None else _complex(-twice_n * z * sin_lam,
                                                       twice_n * z * cos_lam))


def kernel_manifold_points(angle1, angle2, n: int) -> AxisAngle:
    """Sample the two-angle family of kernels built from the textbook factors.

    The two reflections of the size-n search kernel, made special-unitary
    with a factor of i each, fix two rotation axes.  Varying the rotation
    angles about those fixed axes (and keeping the -1 phase the two factors
    of i contribute) sweeps a two-parameter surface of kernels; the point
    (pi/2, pi/2) is the original kernel itself.  ``angle1`` and ``angle2``
    broadcast against each other (a column against a row gives a grid);
    the decompositions come back as ``su2_decompositions`` columns, one per
    point in row-major order, with a global phase of exactly 0: each point
    lies in SU(2).

    A real reflection g is g00 sigma_z + g01 sigma_x, so i g has the axis
    (g01, 0, g00): a1 = (0, 0, -1) for the marked state's diag(-1, 1), and
    a2 = (a, 0, b) for the superposition's.  Each point -R(t2, a2) R(t1, a1)
    is their quaternion product: with R(t, a) = cos t + i sin t a.sigma,
    R2 R1 = c1 c2 - s1 s2 a2.a1 + i (c2 s1 a1 + c1 s2 a2 - s1 s2 a2 x a1).sigma.
    """
    _require_list_size(n)
    u = np.array([1 / np.sqrt(n), np.sqrt((n - 1) / n)], dtype=complex)
    b, a = grover_operator(u, -1.0, 1.0)[0].real.tolist()
    t1, t2 = (np.reshape(t, -1)
              for t in np.broadcast_arrays(np.asarray(angle1, float), np.asarray(angle2, float)))
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    cs = c1 * s2
    sin_axis = np.stack([-a * cs, a * s1 * s2, c2 * s1 - b * cs])
    sin, _, angle = _rotation_angles(-(c1 * c2 + s1 * s2 * b), sin_axis)
    axis = np.divide(sin_axis, sin, out=np.full_like(sin_axis, np.nan), where=sin >= AXIS_TOL)
    return AxisAngle(global_phase=np.zeros(len(t1)), angle=angle, axis=axis.T)
