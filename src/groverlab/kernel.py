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

from dataclasses import dataclass, field
from math import atan2
from typing import Optional

import numpy as np

from .algebra import (TOL_EXACT, _abs, _cmul, _complex, _expi, _require_list_size,
                      _require_overlap, as_matrix, as_vector, dft_matrix, momentum_state, outer,
                      require_unit, require_unitary)
from .errors import IndexRangeError, InvalidSizeError, ResourceLimitError

__all__ = [
    "MAX_FULL_SIZE",
    "require_full_size",
    "GroverPhases",
    "ReducedKernel",
    "FullSpaceConfig",
    "grover_operator",
    "unit_phases",
    "reduced_kernel",
    "reduced_kernels",
    "extended_reduced_kernel",
    "extended_reduced_kernels",
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
        return atan2(self.delta.imag, self.delta.real)


@dataclass(frozen=True)
class ReducedKernel:
    """A 2x2 unitary kernel block plus the list size it represents.

    ``size`` is None for kernels built from a general superposition overlap,
    where no particular list size is implied.
    """

    matrix: np.ndarray
    size: Optional[int] = None

    def __post_init__(self):
        m = as_matrix(self.matrix).copy()
        if m.shape != (2, 2):
            raise InvalidSizeError(f"reduced kernel must be 2x2, got {m.shape}")
        require_unitary(m, TOL_EXACT, "reduced kernel")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


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
    """The kernel restricted to the search plane, for a uniform superposition:
    ``reduced_kernels`` of one phase pair."""
    return ReducedKernel(reduced_kernels([beta], [delta], n)[0], size=n)


def reduced_kernels(beta, delta, n: int) -> np.ndarray:
    """Reduced kernels for arrays of phases, as a (K, 2, 2) stack.

    With s = sqrt(n-1) each block is

        (1/n) [[1 + delta (1 - n),  -beta (1 + delta) s],
               [(1 + delta) s,       beta (1 + delta - n)]].

    beta = delta = -1 gives the identity (the trivial member of the family);
    beta = delta = 1 is the textbook search kernel.  Complex products are
    taken part by part, so every block has the bits of this formula in Python
    complex arithmetic.  The stack is checked for unitarity where it is used:
    by ``ReducedKernel`` for one block, by ``spectral._kernel_stack`` for a
    stack entering the engine or a decomposition.
    """
    _require_list_size(n)
    beta, delta = _unit_phases(beta, "beta"), _unit_phases(delta, "delta")
    s = np.sqrt(n - 1)
    return _stack(1 + delta * (1 - n), _cmul(-beta, 1 + delta) * s,
                  (1 + delta) * s, _cmul(beta, 1 + delta - n)) / n


def extended_reduced_kernel(beta: complex, delta: complex, alpha1: float) -> ReducedKernel:
    """Reduced kernel for a general superposition with marked-state overlap
    alpha1: ``extended_reduced_kernels`` of one phase pair."""
    return ReducedKernel(extended_reduced_kernels([beta], [delta], alpha1)[0], size=None)


def extended_reduced_kernels(beta, delta, alpha1: float) -> np.ndarray:
    """General-superposition kernels for arrays of phases, as a (K, 2, 2) stack.

    With D = 1 + delta and c = sqrt(1 - alpha1^2) each block is

        [[-delta + D alpha1^2,  -beta D alpha1 c],
         [D alpha1 c,            beta (D alpha1^2 - 1)]].

    Setting alpha1 = 1/sqrt(n) recovers reduced_kernel(beta, delta, n)
    entrywise.  alpha1 in {0, 1} collapses the search plane and is rejected.
    Rounded, and checked where it is used, as ``reduced_kernels``.
    """
    _require_overlap(alpha1)
    beta, delta = _unit_phases(beta, "beta"), _unit_phases(delta, "delta")
    big_d = 1 + delta
    c = np.sqrt(1 - alpha1 * alpha1)
    return _stack(-delta + big_d * alpha1**2, _cmul(-beta, big_d) * alpha1 * c,
                  big_d * alpha1 * c, _cmul(beta, big_d * alpha1**2 - 1))


def _stack(k00, k01, k10, k11) -> np.ndarray:
    """(K, 2, 2) matrices from their entry columns."""
    return np.stack([k00, k01, k10, k11], axis=-1).reshape(-1, 2, 2)


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
