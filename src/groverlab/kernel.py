"""Construction of Grover operators and Grover kernels.

A Grover operator is a unitary with at most two distinct eigenvalues,
written lam1*P + lam2*(1-P) for a rank-1 projector P.  A Grover kernel is
the product of two such operators: the first reflects about the marked
basis state, the second about a chosen superposition direction.  The
kernel preserves the plane spanned by the marked state |x0> and the
uniform superposition |xp> of the remaining states, which is where the
2x2 reduced forms below live (ordered basis: |x0> first, |xp> second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .algebra import (_TAU_LO, TAU, TOL_EXACT, TOL_PIPELINE, _abs, _atan2, _cmul, _complex, _expi,
                      _require_list_size, _require_overlap, as_matrix, as_vector, dft_matrix,
                      momentum_state, outer, reduce_angle, require_unit, require_unitary)
from .errors import IndexRangeError, InvalidSizeError, ResourceLimitError, ShapeError

__all__ = [
    "MAX_FULL_SIZE",
    "require_full_size",
    "GroverPhases",
    "ReducedKernel",
    "FullSpaceConfig",
    "grover_operator",
    "unit_phases",
    "reduced_kernel",
    "extended_reduced_kernel",
    "momentum_projector",
    "full_kernel",
    "dft_conjugate",
]

# Full N x N simulation is desk-scale by design.
MAX_FULL_SIZE = 4096


def require_full_size(n: int, what: str) -> None:
    """Refuse a full-space computation (named by ``what``) beyond MAX_FULL_SIZE."""
    if n > MAX_FULL_SIZE:
        raise ResourceLimitError(f"{what} limited to N <= {MAX_FULL_SIZE}, got {n}")


# Phases within this distance of the unit circle are renormalized onto it;
# anything farther is rejected as genuinely non-unitary input.
PHASE_SNAP_TOL = 1e-9


def _unit_phases(z, name: str) -> np.ndarray:
    """Snap every entry of z onto the unit circle; refuse one that is farther.

    Divides part by part, as a Python complex is divided by its float abs
    (numpy's complex division multiplies by a reciprocal instead).
    """
    z = np.asarray(z, dtype=complex)
    r = _abs(z)
    if r.size:
        require_unit(r.flat[np.argmax(np.abs(r - 1))], PHASE_SNAP_TOL, f"|{name}|")
    return _complex(z.real / r, z.imag / r)


def unit_phases(angles) -> np.ndarray:
    """e^{it} for every angle t, with the bits GroverPhases.from_angles gives beta and delta."""
    return _unit_phases(_expi(angles), "phase")


@dataclass(frozen=True)
class GroverPhases:
    """The four unit-modulus eigenvalue parameters of a kernel.

    ``alpha``/``beta`` belong to the marked-state reflection (eigenvalue on
    the marked state and on its complement respectively), ``gamma``/``delta``
    to the superposition reflection.  The family studied here fixes
    alpha = gamma = -1 and varies beta and delta.
    """

    beta: complex
    delta: complex
    alpha: complex = -1.0 + 0.0j
    gamma: complex = -1.0 + 0.0j

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, complex(_unit_phases(getattr(self, name), name)))

    @classmethod
    def from_angles(cls, beta_phase: float, delta_phase: float,
                    alpha_phase: float = np.pi, gamma_phase: float = np.pi) -> "GroverPhases":
        """Build from phase angles in radians (angle t maps to e^{it})."""
        beta, delta, alpha, gamma = _expi([beta_phase, delta_phase,
                                           alpha_phase, gamma_phase]).tolist()
        return cls(beta=beta, delta=delta, alpha=alpha, gamma=gamma)

    @property
    def phi(self) -> float:
        """Principal family angle in (-pi, pi], defined by delta = e^{i phi}."""
        return math.atan2(self.delta.imag, self.delta.real)


@dataclass(frozen=True)
class ReducedKernel:
    """A 2x2 unitary kernel block plus the list size it represents.

    ``size`` is None for kernels built from a general superposition overlap,
    where no particular list size is implied.  ``form`` is the kernel's SU(2)
    form, laid out as ``_dephase`` gives it for a stack of one, which the
    spectra and the evolution read: the matrix's, unless ``from_angles``
    gives it in closed form.  It is derived, not a constructor argument.
    """

    matrix: np.ndarray
    size: Optional[int] = None
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()
        if m.shape != (2, 2):
            raise InvalidSizeError(f"reduced kernel must be 2x2, got {m.shape}")
        require_unitary(m, TOL_EXACT, "reduced kernel")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        self._set_form(_dephase(m[None]))

    def _set_form(self, form: tuple) -> None:
        for part in form:
            part.setflags(write=False)
        object.__setattr__(self, "form", form)

    @classmethod
    def from_angles(cls, beta_phase: float, delta_phase: float, n: Optional[int] = None,
                    alpha1: Optional[float] = None) -> "ReducedKernel":
        """The kernel of phase angles (beta, delta) = (e^{i beta_phase}, e^{i
        delta_phase}), of list size n or, with ``alpha1``, of the
        general-superposition form (n is then not read), with its SU(2) form
        in closed form from the angles (``_phase_rotations``).  That form
        keeps a near-balanced pair's small rotation, which the complex units
        and the matrix entries lose at large n (``_angle_form``).
        """
        form = _angle_form(beta_phase, delta_phase, n, alpha1)
        (cos_lam,), (sin_lam,), (c,), ((x,), (y,), (z,)) = (part.tolist() for part in form[2:])
        # e^{i lam} (cos I + i (x, y, z).sigma), entry by entry.
        u = complex(cos_lam, sin_lam)
        matrix = [[u * complex(c, z), u * complex(y, x)], [u * complex(-y, x), u * complex(c, -z)]]
        k = cls(np.array(matrix), n if alpha1 is None else None)
        k._set_form(form)
        return k


@dataclass(frozen=True)
class FullSpaceConfig:
    """Everything needed to build a full N x N kernel.

    ``marked`` is the index of the searched-for element; ``k0`` is the unit
    direction whose reflection forms the second factor.
    """

    size: int
    marked: int
    k0: np.ndarray
    phases: GroverPhases = field(default_factory=lambda: GroverPhases(1.0, 1.0))

    def __post_init__(self):
        _require_list_size(self.size)
        if not 0 <= self.marked < self.size:
            raise IndexRangeError(f"marked index {self.marked} outside [0, {self.size})")
        v = as_vector(self.k0).copy()
        if v.shape[0] != self.size:
            raise InvalidSizeError(f"k0 has dim {v.shape[0]}, expected {self.size}")
        require_unit(np.linalg.norm(v), TOL_EXACT, "norm of k0")
        v.setflags(write=False)
        object.__setattr__(self, "k0", v)


def grover_operator(p: np.ndarray, lam1: complex, lam2: complex) -> np.ndarray:
    """lam1 on span{p}, lam2 on its orthocomplement: lam1 p p* + lam2 (1 - p p*)."""
    v = as_vector(p)
    require_unit(np.linalg.norm(v), TOL_EXACT, "norm of the projector direction")
    lam1 = complex(_unit_phases(lam1, "lam1"))
    lam2 = complex(_unit_phases(lam2, "lam2"))
    proj = outer(v, v)
    return lam1 * proj + lam2 * (np.eye(v.shape[0]) - proj)


def reduced_kernel(beta: complex, delta: complex, n: int) -> ReducedKernel:
    """The kernel restricted to the search plane, for a uniform superposition.

    With s = sqrt(n-1) the block is

        (1/n) [[1 + delta (1 - n),  -beta (1 + delta) s],
               [(1 + delta) s,       beta (1 + delta - n)]],

    in Python complex arithmetic.  beta = delta = -1 gives the identity (the
    trivial member of the family); beta = delta = 1 is the textbook search
    kernel.  The entries are rounded from the units, which lose most of a
    near-balanced pair's difference at large n; ``ReducedKernel.from_angles``
    keeps it.
    """
    _require_list_size(n)
    beta, delta = complex(_unit_phases(beta, "beta")), complex(_unit_phases(delta, "delta"))
    s = math.sqrt(n - 1)
    return ReducedKernel(np.array([[1 + delta * (1 - n), -beta * (1 + delta) * s],
                                   [(1 + delta) * s, beta * (1 + delta - n)]]) / n, size=n)


def extended_reduced_kernel(beta: complex, delta: complex, alpha1: float) -> ReducedKernel:
    """Reduced kernel for a general superposition with marked-state overlap
    alpha1.

    With D = 1 + delta and c = sqrt(1 - alpha1^2) the block is

        [[-delta + D alpha1^2,  -beta D alpha1 c],
         [D alpha1 c,            beta (D alpha1^2 - 1)]],

    in Python complex arithmetic.  Setting alpha1 = 1/sqrt(n) recovers
    reduced_kernel(beta, delta, n) entrywise.  alpha1 in {0, 1} collapses
    the search plane and is rejected.
    """
    _require_overlap(alpha1)
    beta, delta = complex(_unit_phases(beta, "beta")), complex(_unit_phases(delta, "delta"))
    big_d, c = 1 + delta, math.sqrt(1 - alpha1 * alpha1)
    return ReducedKernel(np.array([[-delta + big_d * alpha1**2, -beta * big_d * alpha1 * c],
                                   [big_d * alpha1 * c, beta * (big_d * alpha1**2 - 1)]]),
                         size=None)


def _angle_form(beta_phase: float, delta_phase: float, n: Optional[int] = None,
                alpha1: Optional[float] = None):
    """``_phase_rotations``' form of the one kernel of phase angles
    (beta_phase, delta_phase): as they are within pi of each other (their
    difference is exact where they are close), and otherwise less their
    turns of 2 pi, to full precision (``reduce_angle``)."""
    bp, dp = np.array([beta_phase], dtype=float), np.array([delta_phase], dtype=float)
    if abs(dp[0] - bp[0]) > math.pi:
        bp, dp = reduce_angle(bp), reduce_angle(dp)
    return _phase_rotations(bp, dp, n, alpha1)


def _dephase(m: np.ndarray):
    """SU(2) form of a stack m of 2x2 unitaries: (det, lam, cos lam, sin lam,
    cos(angle), sin(angle) n), one entry per matrix (n: rows x, y, z).

    lam = arg(det)/2, and m e^{-i lam} = cos(angle) I + i sin(angle) n.sigma.
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    det = _cmul(a, d) - _cmul(b, c)
    lam = _atan2(det.imag, det.real) / 2
    turn = _expi(-lam)
    a, b, c, d = _cmul(np.ascontiguousarray(m.reshape(-1, 4).T), turn)  # times e^{-i lam}
    sin_axis = np.stack([(b.imag + c.imag) / 2, (b.real - c.real) / 2, a.imag])
    return det, lam, turn.real, -turn.imag, (a.real + d.real) / 2, sin_axis


def _kernel_form(k: Union[ReducedKernel, np.ndarray], stack: bool = True):
    """The SU(2) form of a ReducedKernel (its own) or of a bare 2x2 matrix or,
    if ``stack``, (K, 2, 2) stack (``_dephase``'s), which must be finite and,
    matrix by matrix, unitary within TOL_PIPELINE."""
    if isinstance(k, ReducedKernel):
        return k.form
    m = np.asarray(k, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)):
        what = "a 2x2 matrix or a stack of them" if stack else "a 2x2 matrix"
        raise ShapeError(f"expected {what}, got shape {m.shape}")
    if m.shape[-2:] != (2, 2):
        raise InvalidSizeError(f"expected 2x2 matrices, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix has non-finite entries")
    require_unitary(m, TOL_PIPELINE, "matrix")
    return _dephase(m.reshape(-1, 2, 2))


def _phase_rotations(bp: np.ndarray, dp: np.ndarray, n: Optional[int] = None,
                     alpha1: Optional[float] = None):
    """The SU(2) forms (det, lam, cos lam, sin lam, cos, (x, y, z)) of the reduced
    kernels e^{i lam} (cos I + i (x, y, z).sigma) of phase angles bp and dp
    (1-D, of one length), of size n or, with ``alpha1``, of the
    general-superposition form, in closed form, with no kernel matrix.

    With h = (dp - bp)/2, lam = bp + h, w = 1/n and r = sqrt(n - 1)/n (alpha1^2
    and alpha1 sqrt(1 - alpha1^2) with ``alpha1``), det = e^{i(bp + dp)} and

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
    return _expi(bp + dp), bp + h, cos_lam, sin_lam, w * cos_lam - rest * cos_h, sin_axis


def momentum_projector(y0: int, n: int) -> np.ndarray:
    """Projector onto the momentum basis state with wavenumber y0.

    Entry (x, xp) is exp(2*pi*i*(x - xp)*y0/n)/n; the row-minus-column sign
    matches the forward transform of ``dft_matrix``, so this equals
    dft_conjugate applied to the coordinate projector |y0><y0|.  y0 = 0
    gives the uniform projector with every entry 1/n.
    """
    v = momentum_state(y0, n)
    return outer(v, v)


def full_kernel(cfg: FullSpaceConfig) -> np.ndarray:
    """The full N x N kernel G2 G1 of a configuration.

    Assembled from rank-1 updates rather than a dense matrix product, which
    keeps construction O(N^2) at the largest supported sizes.
    """
    require_full_size(cfg.size, "full-space kernel")
    ph = cfg.phases
    e = np.zeros(cfg.size, dtype=complex)
    e[cfg.marked] = 1.0
    k = cfg.k0
    # (delta + (gamma-delta) kk*)(beta + (alpha-beta) ee*), expanded.
    ca = ph.alpha - ph.beta
    cg = ph.gamma - ph.delta
    m = (ph.beta * ph.delta) * np.eye(cfg.size, dtype=complex)
    m += (ph.delta * ca) * outer(e, e)
    m += (ph.beta * cg) * outer(k, k)
    m += (ca * cg * np.vdot(k, e)) * outer(k, e)
    return m


def dft_conjugate(m: np.ndarray) -> np.ndarray:
    """Conjugate a square matrix into the momentum basis: U M U^{-1}."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidSizeError(f"conjugation needs a square matrix, got {a.shape}")
    u = dft_matrix(a.shape[0])
    return u @ a @ u.conj().T
