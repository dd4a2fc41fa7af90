"""Search evolution and success-probability statistics.

The engine is the kernel's SU(2) power: m steps rotate by m times the
kernel's angle, one array expression over m.  Plain repeated application of
the kernel, which makes no spectral assumptions, is the cross-check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .algebra import TOL_EXACT, _cmul, _complex, as_vector, require_unit
from .errors import (
    InvalidSizeError,
    NormalizationError,
    PeakedInitialStateWarning,
)
from .kernel import FullSpaceConfig, ReducedKernel, require_full_size
from .spectral import SpectralData, _folded, _kernel_stack

__all__ = [
    "InitialState",
    "EvolutionTrace",
    "uniform_initial",
    "amplitude_iterative",
    "amplitude_closed_form",
    "probability_trace",
    "probability_traces",
    "full_space_trace",
    "perturbed_peak_estimate",
]

# Steps or rows per block: probability_traces fills its probabilities, and the
# CLI builds and formats its rows, this many at a time.  A block of trace
# rows, its text and the formatter's byte matrices take a few MB.
BLOCK = 2**14


@dataclass(frozen=True)
class InitialState:
    """Reduced-plane coefficients of the starting state.

    The state is (a/sqrt(n)) |x0> + b sqrt((n-1)/n) |xp>, so normalization
    requires |a|^2/n + |b|^2 (n-1)/n = 1.  The uniform start is a = b = 1.
    """

    a: complex
    b: complex
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise InvalidSizeError(f"list size must be >= 2, got {self.size}")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        norm = (abs(self.a) ** 2 + abs(self.b) ** 2 * (self.size - 1)) / self.size
        require_unit(norm, TOL_EXACT, "squared norm of the coefficients")

    @classmethod
    def complete(cls, a: complex, size: int) -> "InitialState":
        """Fill in the real nonnegative b that normalizes a given a."""
        rem = size - abs(complex(a)) ** 2
        if rem < 0:
            raise NormalizationError(f"|a|^2 = {abs(a) ** 2} exceeds the list size {size}")
        return cls(a, np.sqrt(rem / (size - 1)), size)

    def reduced_vector(self) -> np.ndarray:
        return np.array([self.a / np.sqrt(self.size),
                         self.b * np.sqrt((self.size - 1) / self.size)])


@dataclass(frozen=True)
class EvolutionTrace:
    """Success probabilities P(m) for m = 0..m_max plus summary statistics.

    ``maxima_count`` counts strict interior local maxima (P(m) above both
    neighbors; endpoints excluded).  ``threshold_step`` is the first m with
    P(m) > 1/2, or None if the trace never crosses.
    """

    probs: np.ndarray
    peak_prob: float
    peak_step: int
    maxima_count: int
    threshold_step: Optional[int]

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "EvolutionTrace":
        probs = np.asarray(probs, dtype=float)
        peak = int(np.argmax(probs))
        interior = (probs[1:-1] > probs[:-2]) & (probs[1:-1] > probs[2:])
        return cls(
            probs=probs,
            peak_prob=float(probs[peak]),
            peak_step=peak,
            maxima_count=int(np.count_nonzero(interior)),
            threshold_step=int(np.argmax(probs > 0.5)) if probs[peak] > 0.5 else None,
        )


def uniform_initial(n: int) -> InitialState:
    """The equal-superposition start a = b = 1."""
    return InitialState(1.0, 1.0, n)


def _reduced_input(size: Optional[int], s: Union[InitialState, np.ndarray]) -> np.ndarray:
    if isinstance(s, InitialState):
        if size is not None and s.size != size:
            raise InvalidSizeError(f"state is for size {s.size}, kernel for size {size}")
        return s.reduced_vector()
    v = as_vector(s)
    if v.shape[0] != 2:
        raise InvalidSizeError(f"reduced input must have dim 2, got {v.shape[0]}")
    require_unit(np.linalg.norm(v), TOL_EXACT, "norm of the reduced input")
    return v


def _iterate(k: ReducedKernel, v: np.ndarray, m: int) -> Tuple[List[float], complex]:
    """Apply the kernel m times to the reduced vector v.

    The one reduced-kernel step loop.  It runs on Python complex scalars,
    which is several times faster than a 2x2 numpy product per step, and
    returns P = |x|^2 of the marked amplitude x after 0..m steps together
    with the final x.
    """
    (a, b), (c, d) = k.matrix.tolist()
    x, y = v.tolist()
    probs = [abs(x) ** 2]
    append = probs.append
    for _ in range(m):
        x, y = a * x + b * y, c * x + d * y
        append(abs(x) ** 2)
    return probs, x


def amplitude_iterative(k: ReducedKernel, s: Union[InitialState, np.ndarray],
                        m: int) -> complex:
    """Marked-state amplitude after m kernel applications, by iteration."""
    if m < 0:
        raise InvalidSizeError(f"step count must be >= 0, got {m}")
    return _iterate(k, _reduced_input(k.size, s), m)[1]


def amplitude_closed_form(spec: SpectralData, s: InitialState, m: int) -> complex:
    """Marked-state amplitude after m steps from the eigensystem.

    Evaluates e^{i m w1} (a/sqrt(n) + (e^{i m (w2 - w1)} - 1) T) where T is
    the product of the marked-side eigenvector's first component and its
    overlap with the initial state.  A degenerate kernel is a phase times
    the identity, so the amplitude is just that phase to the m-th power
    times a/sqrt(n).
    """
    if m < 0:
        raise InvalidSizeError(f"step count must be >= 0, got {m}")
    a0 = s.a / np.sqrt(s.size)
    if spec.degenerate:
        return complex(spec.eigval1 ** m * a0)
    x_in = s.reduced_vector()
    t = spec.eigvec2[0] * np.vdot(spec.eigvec2, x_in)
    phase1 = np.exp(1j * m * spec.eigphase1)
    return complex(phase1 * (a0 + (np.exp(1j * m * spec.signed_gap) - 1) * t))


def probability_traces(kernels: Union[ReducedKernel, np.ndarray],
                       s: Union[InitialState, np.ndarray], m_max: int,
                       size: Optional[int] = None) -> np.ndarray:
    """P(m) for m = 0..m_max, as (K, m_max + 1), from one start under each
    kernel of a (K, 2, 2) stack, BLOCK steps at a time.

    ``size`` is the list size a bare stack is for, if any; a ReducedKernel
    brings its own, and a different ``size`` is refused.  The SU(2) power
    k = e^{i lam} (cos a I + i sin a n.sigma) gives P(m) = |cos(m a) x0 +
    sin(m a) w|^2 for the start (x0, x1) and w = (i n.sigma (x0, x1))[0];
    a folded into [0, pi/2] (``spectral._folded``) keeps its precision.
    """
    if m_max < 1:
        raise InvalidSizeError(f"m_max must be >= 1, got {m_max}")
    if isinstance(kernels, ReducedKernel):
        if size is not None and size != kernels.size:
            raise InvalidSizeError(f"size {size} given, kernel for size {kernels.size}")
        size = kernels.size
    angle, nx, ny, nz = _folded(_kernel_stack(kernels))
    x0, x1 = _reduced_input(size, s).tolist()
    w = 1j * (nz * x0 + _cmul(_complex(nx, -ny), x1))
    probs = np.empty((len(angle), m_max + 1))
    for lo in range(0, m_max + 1, BLOCK):
        t = angle[:, None] * np.arange(lo, min(lo + BLOCK, m_max + 1))
        amp = np.cos(t) * x0 + np.sin(t) * w[:, None]
        probs[:, lo:lo + t.shape[1]] = amp.real ** 2 + amp.imag ** 2
    return probs


def probability_trace(k: ReducedKernel, s: Union[InitialState, np.ndarray],
                      m_max: int) -> EvolutionTrace:
    """P(m) for m = 0..m_max under one kernel: ``probability_traces`` of a batch of one."""
    return EvolutionTrace.from_probs(probability_traces(k, s, m_max)[0])


def full_space_trace(cfg: FullSpaceConfig, x_in: np.ndarray,
                     m_max: int) -> EvolutionTrace:
    """P(m) in the full N-dimensional space.

    Each step applies the two reflections as rank-1 updates, O(N) per step,
    so no N x N matrix is ever materialized.  It evolves u_m = v_m /
    (beta delta)^m, whose marked probability is P(m) as the phases are unit:
    each reflection divided by its phase is the identity plus a rank-1 term,
    an in-place update with no temporary per step."""
    if m_max < 0:
        raise InvalidSizeError(f"m_max must be >= 0, got {m_max}")
    require_full_size(cfg.size, "full-space trace")
    v = as_vector(x_in).copy()
    if v.shape[0] != cfg.size:
        raise InvalidSizeError(f"state has dim {v.shape[0]}, expected {cfg.size}")
    require_unit(np.linalg.norm(v), TOL_EXACT, "norm of the initial state")
    ph, k0, marked = cfg.phases, cfg.k0, cfg.marked
    r1, r2 = ph.alpha / ph.beta, ph.gamma / ph.delta - 1
    buf = np.empty_like(v)
    probs = np.empty(m_max + 1)
    probs[0] = abs(v[marked]) ** 2
    for m in range(1, m_max + 1):
        v[marked] *= r1
        v += np.multiply(k0, r2 * np.vdot(k0, v), out=buf)
        probs[m] = abs(v[marked]) ** 2
    return EvolutionTrace.from_probs(probs)


def perturbed_peak_estimate(s: InitialState) -> float:
    """Predicted asymptotic peak amplitude min(|b|, 1) for a perturbed start.

    Valid when the marked-state coefficient a stays order one; once |a|
    reaches sqrt(n)/2 the state is already concentrated on the marked
    element and the estimate is meaningless, so a warning is issued.
    """
    if abs(s.a) >= np.sqrt(s.size) / 2:
        warnings.warn(
            "initial state is already peaked on the marked element; "
            "measure it directly instead of iterating",
            PeakedInitialStateWarning, stacklevel=2)
    return min(abs(s.b), 1.0)
