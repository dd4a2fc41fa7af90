"""Spectral analysis of reduced kernels.

A reduced kernel is a 2x2 unitary, a global phase times an SU(2) rotation,
e^{i lam} (cos(angle) I + i sin(angle) n.sigma), so its eigensystem is
available in closed form from that rotation.  This module computes exact
eigenphases and eigenvectors, the phase gap that sets the search period, the
large-N asymptotics of both, and the axis-angle form that places a kernel on
the rotation-group picture.

Every spectrum comes from one step, ``_spectra``, of the kernel's SU(2) form,
however the form was obtained: ``kernel._dephase`` splits a kernel matrix,
``kernel._phase_rotations`` writes the form in closed form from the phase
angles (for ``ReducedKernel.from_angles``, ``phase_spectra`` and the traces
and sweeps), and ``kernel_manifold_points`` writes it from the rotation
angles.  ``_rotation_angles`` turns a form into its angles, with the sum of
squares' root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .algebra import (TOL_EXACT, _atan2, _complex, _require_list_size, _require_overlap,
                      wrap_angle)
from .errors import DivergentPeriodError, SingularLimitError
from .kernel import ReducedKernel, _kernel_form, _phase_rotations, _unit_phases, grover_operator

__all__ = [
    "SpectralData",
    "AxisAngle",
    "eigensystem",
    "asymptotic_eigvec",
    "asymptotic_gaps",
    "delta_omega_asymptotic",
    "optimal_steps_exact",
    "asymptotic_steps",
    "optimal_steps_asymptotic",
    "stability_expansion",
    "su2_decompose",
    "kernel_manifold_points",
    "phase_spectra",
]

# Eigenvalues closer than this are treated as one doubly-degenerate level.
DEGENERACY_TOL = 1e-12

# |n_z| beyond which one eigenvector is concentrated on the marked state: the
# eigenvectors' first components have magnitudes sqrt((1 +- n_z)/2), whose
# ratio exceeds 4 exactly here.
DOMINANT_NZ = 15 / 17

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
    no list size.  From ``phase_spectra`` every field is an array with one
    entry per kernel, and the eigenvalues and eigenvectors are None.
    """

    det: complex
    trace: complex
    eigval1: Optional[complex]
    eigval2: Optional[complex]
    eigphase1: float
    eigphase2: float
    eigvec1: Optional[np.ndarray]
    eigvec2: Optional[np.ndarray]
    phase_gap: float
    diag_gap: Optional[complex]
    degenerate: bool


@dataclass(frozen=True)
class AxisAngle:
    """A 2x2 unitary as global phase times an axis-angle rotation.

    The matrix equals e^{i global_phase} (cos(angle) I + i sin(angle) n.sigma)
    with ``axis`` = n.  ``axis`` is None when angle is 0 or pi, where every
    axis reproduces the same matrix.  From ``kernel_manifold_points`` the
    fields are arrays, ``axis`` of shape (K, 3) with NaN rows for the missing
    axes.
    """

    global_phase: float
    angle: float
    axis: Optional[np.ndarray]


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


def _spectra(form, size: Optional[int]):
    """The spectra of the kernels of an SU(2) form (det, lam, cos lam, sin lam,
    cos, sin_axis), as ``kernel._dephase`` and ``kernel._phase_rotations`` give
    it, of list size ``size`` (or None), with every field an array and the
    eigenvalues and eigenvectors None; and, per kernel, whether eigphase1 is
    lam + angle, and sin(angle), the length of the rotation's axis.

    trace = 2 cos e^{i lam}, diag_gap = size (K00 - K11) = 2i size z e^{i lam},
    phase_gap = 2 atan2(sin, |cos|), exact to rounding however close the
    levels sit (|eigval1 - eigval2| = 2 sin <= DEGENERACY_TOL makes them
    one), and the eigenphases are lam -/+ angle, wrapped, ordered by the
    axis: eigvec2 is the eigenvector concentrated on the marked state where
    |n_z| > DOMINANT_NZ (it belongs to lam + angle exactly when n_z > 0), and
    otherwise (the balanced regime) the one whose phase-fixed first component
    has positive imaginary part (lam - angle exactly when n_y > 0), which
    keeps it continuous across the family and matched to the asymptotic
    formulas.
    """
    det, lam, cos_lam, sin_lam, cos, sin_axis = form
    sin, folded, angle = _rotation_angles(cos, sin_axis)
    _, y, z = sin_axis
    degenerate = 2 * sin <= DEGENERACY_TOL
    plus_first = ~degenerate & np.where(np.abs(z) > DOMINANT_NZ * sin, z < 0, y > 0)
    minus, plus = wrap_angle(lam - angle), wrap_angle(lam + angle)
    twice_n = None if size is None else 2.0 * size
    return SpectralData(
        det=det, trace=_complex(2 * cos * cos_lam, 2 * cos * sin_lam),
        eigval1=None, eigval2=None, eigvec1=None, eigvec2=None,
        eigphase1=np.where(plus_first, plus, minus),
        eigphase2=np.where(plus_first | degenerate, minus, plus),
        phase_gap=np.where(degenerate, 0.0, 2 * folded), degenerate=degenerate,
        diag_gap=None if twice_n is None else _complex(-twice_n * z * sin_lam,
                                                       twice_n * z * cos_lam)), plus_first, sin


def _axis_eigvec(x: float, y: float, z: float, sin: float, sign: float) -> np.ndarray:
    """The unit eigenvector of (x, y, z).sigma for its eigenvalue sign * sin,
    where sin = |(x, y, z)|: (x - i y, sign sin - z) or (sign sin + z, x + i
    y), whichever is longer, normalized and rotated so that its second
    component is real positive (its first, where the second vanishes).

    The longer is the first where sign z <= 0, and then its second component
    is sign (sin + |z|), as the second's first is otherwise; both have the
    norm sqrt(2 sin (sin + |z|)), since x^2 + y^2 = sin^2 - z^2.
    """
    big = sin + abs(z)
    v = [complex(x, -y), sign * big] if sign * z <= 0 else [sign * big, complex(x, y)]
    norm = math.sqrt(2 * sin * big)
    ref = v[1] if abs(v[1]) > 1e-14 * norm else v[0]
    turn = abs(ref) / ref / norm
    return np.array([v[0] * turn, v[1] * turn])


def eigensystem(k: Union[ReducedKernel, np.ndarray]) -> SpectralData:
    """The eigensystem of one kernel, ``_spectra`` of its SU(2) form (a
    bare 2x2 array's is ``_dephase``'s), with the eigenvalues e^{i eigphase}
    and the eigenvectors of the rotation's axis (``_axis_eigvec``): the
    rotation's eigenvalue e^{i(lam +- angle)} is that of n.sigma for +-1.  A
    degenerate kernel's eigenvectors are the basis vectors.
    """
    form = _kernel_form(k, stack=False)
    size = k.size if isinstance(k, ReducedKernel) else None
    spec, (plus_first,), (sin,) = _spectra(form, size)
    e1, e2 = float(spec.eigphase1[0]), float(spec.eigphase2[0])
    degenerate = bool(spec.degenerate[0])
    if degenerate:
        v1, v2 = np.array([1, 0j]), np.array([0j, 1])
    else:
        (x,), (y,), (z,) = form[5].tolist()
        sin = float(sin)
        sign = 1.0 if plus_first else -1.0
        v1, v2 = _axis_eigvec(x, y, z, sin, sign), _axis_eigvec(x, y, z, sin, -sign)
    return SpectralData(
        det=complex(spec.det[0]), trace=complex(spec.trace[0]),
        eigval1=complex(math.cos(e1), math.sin(e1)), eigval2=complex(math.cos(e2), math.sin(e2)),
        eigphase1=e1, eigphase2=e2, eigvec1=v1, eigvec2=v2, phase_gap=float(spec.phase_gap[0]),
        diag_gap=None if size is None else complex(spec.diag_gap[0]), degenerate=degenerate)


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
    _require_list_size(n)
    re_root = np.sqrt(_unit_phases(delta, "delta")).real
    return np.where(re_root > TOL_EXACT, 4.0 * re_root / math.sqrt(n), np.nan)


def delta_omega_asymptotic(delta: complex, n: int) -> float:
    """Leading-order phase gap 4 Re(sqrt(delta)) / sqrt(n) in the balanced regime."""
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
    cos(phi/2)) is for a tiny alpha1); n is checked, or alpha1 where given."""
    if alpha1 is None:
        _require_list_size(n)
    else:
        _require_overlap(alpha1)
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
    steps = float(asymptotic_steps(phi, n, alpha1))
    if math.isnan(steps):
        raise DivergentPeriodError(f"no finite period at phi = {phi}")
    return int(steps)


def stability_expansion(dphi: float, n: int) -> float:
    """Second-order step-count growth (pi/4)(1 + 0.125 dphi^2) sqrt(n).

    Valid as an expansion for |dphi| <= 0.5 around the textbook kernel;
    returned unfloored.  Elementwise when dphi is an array.
    """
    _require_list_size(n)
    return (math.pi / 4) * (1 + 0.125 * dphi * dphi) * math.sqrt(n)


def su2_decompose(k: Union[ReducedKernel, np.ndarray]) -> AxisAngle:
    """Split one unitary into global phase times an axis-angle rotation, from
    its SU(2) form (a bare 2x2 array's is ``_dephase``'s).

    The global phase lies in (-pi/2, pi/2], as arg(det)/2 does: where the
    form's lam lies outside (``ReducedKernel.from_angles``' lam = bp + h can
    lie anywhere), it is taken from e^{i lam} there, and where that moves it
    by an odd multiple of pi, the rotation's sign turns.  The angle comes
    from ``_rotation_angles``, with full precision at both ends of [0, pi].
    Where sin(angle) is below AXIS_TOL the rotation is a multiple of the
    identity and the axis is None.
    """
    _, (lam,), (cos_lam,), (sin_lam,), cos, sin_axis = _kernel_form(k, stack=False)
    if not -math.pi / 2 < lam <= math.pi / 2:
        turn = -1.0 if cos_lam < 0 or (cos_lam == 0 and sin_lam < 0) else 1.0
        lam = math.atan2(turn * sin_lam, turn * cos_lam)
        cos, sin_axis = turn * cos, turn * sin_axis
    (sin,), _, (angle,) = _rotation_angles(cos, sin_axis)
    return AxisAngle(global_phase=float(lam), angle=float(angle),
                     axis=sin_axis[:, 0] / sin if sin >= AXIS_TOL else None)


def phase_spectra(beta_phase, delta_phase, n: Optional[int] = None,
                  alpha1: Optional[float] = None) -> SpectralData:
    """``_spectra`` of ``_phase_rotations``' kernels of phase angles (bp, dp)
    = (beta_phase, delta_phase), which broadcast against each other, of size
    n or, with ``alpha1`` (and no diag_gap), of the general-superposition
    form: one entry per kernel in each array field, and no eigenvalues or
    eigenvectors.
    """
    bp, dp = (np.reshape(t, -1) for t in np.broadcast_arrays(np.asarray(beta_phase, float),
                                                             np.asarray(delta_phase, float)))
    return _spectra(_phase_rotations(bp, dp, n, alpha1), None if alpha1 is not None else n)[0]


def kernel_manifold_points(angle1, angle2, n: int) -> AxisAngle:
    """Sample the two-angle family of kernels built from the textbook factors.

    The two reflections of the size-n search kernel, made special-unitary
    with a factor of i each, fix two rotation axes.  Varying the rotation
    angles about those fixed axes (and keeping the -1 phase the two factors
    of i contribute) sweeps a two-parameter surface of kernels; the point
    (pi/2, pi/2) is the original kernel itself.  ``angle1`` and ``angle2``
    broadcast against each other (a column against a row gives a grid);
    the decompositions come back as ``AxisAngle`` arrays, one entry per
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
