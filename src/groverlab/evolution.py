"""Search evolution and success-probability statistics.

The engine is the kernel's SU(2) power: m steps rotate by m times the
kernel's angle, one array expression over m.  Plain repeated application of
the kernel, which makes no spectral assumptions, is the cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .algebra import TOL_EXACT, _cmul, _complex, _require_list_size, as_vector, require_unit
from .errors import InvalidSizeError, NormalizationError, PeakedInitialStateWarning
from .kernel import FullSpaceConfig, ReducedKernel, _kernel_form, require_full_size
from .spectral import SpectralData, _rotation_angles

__all__ = [
    "InitialState",
    "EvolutionTrace",
    "TraceSummary",
    "uniform_initial",
    "amplitude_iterative",
    "amplitude_closed_form",
    "probability_blocks",
    "probability_trace",
    "invariant_plane",
    "full_space_trace",
    "perturbed_peak_estimate",
]

# The library's traces fill their arrays _SPAN steps at a time: the engine's
# temporaries stay a span's size however long the trace.
_SPAN = 2**13


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
        _require_list_size(self.size)
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        norm = (abs(self.a) ** 2 + abs(self.b) ** 2 * (self.size - 1)) / self.size
        require_unit(norm, TOL_EXACT, "squared norm of the coefficients")

    @classmethod
    def complete(cls, a: complex, size: int) -> "InitialState":
        """Fill in the real nonnegative b that normalizes a given a."""
        taken = abs(complex(a)) ** 2
        rem = _remainder(size, taken, f"|a|^2 = {taken} exceeds the list size {size}")
        return cls(a, np.sqrt(rem / (size - 1)), size)

    def reduced_vector(self) -> np.ndarray:
        return np.array([self.a / np.sqrt(self.size),
                         self.b * np.sqrt((self.size - 1) / self.size)])


class TraceSummary:
    """Summary statistics of P(m), folded over consecutive blocks of it.

    ``peak_step`` is the first argmax (a NaN counts as the peak, as in
    ``np.argmax``).  ``maxima_count`` counts strict interior local maxima
    (P(m) above both neighbors; endpoints excluded): the last two samples
    carry across a block boundary.  ``threshold_step`` is the first m with
    P(m) > 1/2, or None if the trace never crosses (or has a NaN peak).
    """

    def __init__(self):
        self.steps = 0
        self.peak_prob, self.peak_step, self.maxima_count = -math.inf, 0, 0
        self.threshold_step: Optional[int] = None
        self._above: Optional[int] = None
        self._tail = np.empty(0)

    def add(self, block: np.ndarray) -> None:
        """Fold in the next, nonempty block of probabilities."""
        first = self.steps
        peak = int(block.argmax())
        top = float(block[peak])
        if not (math.isnan(self.peak_prob) or top <= self.peak_prob):
            self.peak_prob, self.peak_step = top, first + peak
        seen = np.concatenate((self._tail, block))
        mid = seen[1:-1]
        self.maxima_count += int(np.count_nonzero((mid > seen[:-2]) & (mid > seen[2:])))
        self._tail = seen[-2:].copy()  # not a view that keeps the block's copy
        if self._above is None and top > 0.5:
            self._above = first + int((block > 0.5).argmax())
        self.threshold_step = self._above if self.peak_prob > 0.5 else None
        self.steps += len(block)


class EvolutionTrace(TraceSummary):
    """Success probabilities P(m) for m = 0..m_max, ``probs``, with their
    ``TraceSummary`` statistics folded as one block."""

    def __init__(self, probs):
        super().__init__()
        self.probs = np.asarray(probs, dtype=float)
        self.add(self.probs)


def _remainder(size: int, taken: float, refusal: str, error=NormalizationError) -> float:
    """``size - taken``: what one coefficient, whose square times its weight
    is ``taken``, leaves of the list size to the other.

    The one rule for a start on the boundary: ``taken`` carries a few
    rounding errors of ``size``, so a remainder less than 8 eps ``size``
    below 0 is 0; one further below raises ``error(refusal)``.
    """
    rem = size - taken
    if rem < -8 * np.finfo(float).eps * size:
        raise error(refusal)
    return max(rem, 0.0)


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
    # w2 - w1 is not wrapped: a 2 pi shift of it is invisible at integer m.
    return complex(phase1 * (a0 + (np.exp(1j * m * (spec.eigphase2 - spec.eigphase1)) - 1) * t))


def probability_blocks(kernels: Union[ReducedKernel, np.ndarray],
                       s: Union[InitialState, np.ndarray]) -> Callable[[int, int], np.ndarray]:
    """``_rotation_blocks`` of a kernel's SU(2) form, or of a (K, 2, 2) stack
    of kernel matrices split by ``kernel._dephase``, and a start, both checked
    here, once: a ReducedKernel refuses an InitialState for another list
    size."""
    size = kernels.size if isinstance(kernels, ReducedKernel) else None
    *_, cos, sin_axis = _kernel_form(kernels)
    return _rotation_blocks(cos, sin_axis, _reduced_input(size, s))


def _rotation_blocks(cos: np.ndarray, sin_axis: np.ndarray,
                     x: np.ndarray) -> Callable[[int, int], np.ndarray]:
    """The evaluator p(lo, hi) of P(m), m = lo..hi - 1, as a (K, hi - lo) block,
    from the unit start x = (x0, x1) under the kernels e^{i lam} (cos a I + i
    sin a n.sigma) given by cos a and the rows of sin a n, of shape (3, K):
    P(m) = |cos(m a) x0 + sin(m a) w|^2 for w = (i n.sigma x)[0], with a
    negative cos a taken into the global phase, so that a, folded into [0,
    pi/2] (``spectral._rotation_angles``), keeps full relative precision.
    Each P(m) comes from m alone: any cut of the steps gives the same bits.
    """
    sin, angle, _ = _rotation_angles(cos, sin_axis)
    nx, ny, nz = np.divide(np.where(cos < 0, -sin_axis, sin_axis), sin, where=sin > 0,
                           out=np.zeros_like(sin_axis))
    x0, x1 = x.tolist()
    w = 1j * (nz * x0 + _cmul(_complex(nx, -ny), x1))
    angle, wr, wi = angle[:, None], w.real[:, None], w.imag[:, None]

    def probabilities(lo: int, hi: int) -> np.ndarray:
        # The real and imaginary parts of cos(t) x0 + sin(t) w, in t's buffer.
        # They have the complex product's bits: promoting cos and sin to complex
        # only adds exact zeros to them, whose sign squaring hides.
        t = angle * np.arange(lo, hi)
        sin, cos = np.sin(t), np.cos(t, out=t)
        re = cos * x0.real
        re += sin * wr
        cos *= x0.imag
        cos += np.multiply(sin, wi, out=sin)
        return np.add(np.square(re, out=re), np.square(cos, out=cos), out=re)
    return probabilities


def _filled(p: Callable[[int, int], np.ndarray], m_max: int) -> np.ndarray:
    """P(m) for m = 0..m_max of a one-kernel evaluator, _SPAN steps at a time."""
    probs = np.empty(m_max + 1)
    for lo in range(0, m_max + 1, _SPAN):
        hi = min(lo + _SPAN, m_max + 1)
        probs[lo:hi] = p(lo, hi)[0]
    return probs


def probability_trace(k: ReducedKernel, s: Union[InitialState, np.ndarray],
                      m_max: int) -> EvolutionTrace:
    """P(m) for m = 0..m_max under one kernel, from ``probability_blocks``."""
    if m_max < 1:
        raise InvalidSizeError(f"m_max must be >= 1, got {m_max}")
    return EvolutionTrace(_filled(probability_blocks(k, s), m_max))


def invariant_plane(cfg: FullSpaceConfig,
                    x_in: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """(kernel, unit start, weight): the full-space P(m) is the weight times
    the 2x2 kernel's trace from the start.

    Both factors of K = G2 G1 are a phase times the identity plus a rank-1
    term, in |x0> and in |k0>, so K is beta delta on span{x0, k0}^perp and
    P(m) = |<x0|K^m v>|^2 depends only on v's projection onto that plane.
    With ke = k0[x0] = alpha1 u (|u| = 1) and c the norm of k0 off x0, the
    plane basis is (u |x0>, f) for f = (k0 off x0) / c; there the kernel is
    (delta I + (gamma - delta) k k^T) diag(alpha, beta) for k = (alpha1, c),
    and the start is (conj(u) v[x0], <f|v>); the weight is its squared norm.
    At alpha1 = 0 or c = 0 the plane collapses and x0 is an eigenvector:
    the identity from (1, 0) with weight |v[x0]|^2 gives that P(m) exactly.
    """
    require_full_size(cfg.size, "full-space trace")
    v = as_vector(x_in)
    if v.shape[0] != cfg.size:
        raise InvalidSizeError(f"state has dim {v.shape[0]}, expected {cfg.size}")
    require_unit(np.linalg.norm(v), TOL_EXACT, "norm of the initial state")
    marked = cfg.marked
    ke = complex(cfg.k0[marked])
    k_off = np.delete(cfg.k0, marked)
    alpha1, c = abs(ke), float(np.linalg.norm(k_off))
    if alpha1 > 0 and c > 0:
        x0, x1 = ke.conjugate() / alpha1 * v[marked], np.vdot(k_off, np.delete(v, marked)) / c
        weight = float(np.hypot(abs(x0), abs(x1)))
        if weight > 0:
            ph = cfg.phases
            g = ph.gamma - ph.delta
            kernel = np.array([[(ph.delta + g * alpha1**2) * ph.alpha, g * alpha1 * c * ph.beta],
                               [g * alpha1 * c * ph.alpha, (ph.delta + g * c**2) * ph.beta]])
            return kernel, np.array([x0, x1]) / weight, weight**2
    # The plane collapsed, or the start has no part in it (then v[x0] = 0).
    return np.eye(2), np.array([1.0, 0.0]), abs(v[marked]) ** 2


def full_space_trace(cfg: FullSpaceConfig, x_in: np.ndarray,
                     m_max: int) -> EvolutionTrace:
    """P(m) in the full N-dimensional space through ``invariant_plane``: O(N)
    once, then O(m_max).  The rank-1 iteration over the whole vector is the
    cross-check (``checks.reduced_vs_full``)."""
    kernel, start, weight = invariant_plane(cfg, x_in)
    if m_max < 0:
        raise InvalidSizeError(f"m_max must be >= 0, got {m_max}")
    return EvolutionTrace(_filled(probability_blocks(kernel, start), m_max) * weight)


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
