"""Seeded invariant checks shared by ``groverlab verify`` and the acceptance tests.

Each returns its worst residual; the caller picks sizes, draws and tolerance.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .algebra import dft_matrix, momentum_state, unitarity_residual
from .evolution import (amplitude_closed_form, amplitude_iterative, full_space_trace,
                        probability_trace, uniform_initial)
from .kernel import (FullSpaceConfig, GroverPhases, dft_conjugate, extended_reduced_kernel,
                     full_kernel, momentum_projector, reduced_kernel)
from .spectral import eigensystem

__all__ = ["unitarity", "dft_identity", "reduced_vs_full", "closed_vs_iterative"]


def _phases(rng: np.random.Generator) -> GroverPhases:
    return GroverPhases.from_angles(*rng.uniform(-math.pi, math.pi, 2))


def unitarity(rng: np.random.Generator, sizes: Sequence[int], draws: int,
              full_sizes: Sequence[int],
              overlaps: Tuple[float, float] = (0.05, 0.95)) -> float:
    """Worst unitarity residual: per size, ``draws`` reduced and extended kernels
    (overlap uniform in ``overlaps``); per full size, one random phase pair and
    full kernels for the uniform, a random momentum and a random k0, each at a
    random marked index."""
    worst = 0.0
    for n in sizes:
        for _ in range(draws):
            ph = _phases(rng)
            for k in (reduced_kernel(ph.beta, ph.delta, n),
                      extended_reduced_kernel(ph.beta, ph.delta, rng.uniform(*overlaps))):
                worst = max(worst, unitarity_residual(k.matrix))
    for n in full_sizes:
        phases = _phases(rng)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for k0 in (momentum_state(0, n), momentum_state(int(rng.integers(n)), n),
                   v / np.linalg.norm(v)):
            cfg = FullSpaceConfig(n, int(rng.integers(n)), k0, phases)
            worst = max(worst, unitarity_residual(full_kernel(cfg)))
    return worst


def dft_identity(sizes: Sequence[int]) -> float:
    """Worst residual of the DFT's unitarity and, for every wavenumber y0,
    of momentum_projector(y0, n) = U |y0><y0| U^dagger."""
    worst = 0.0
    for n in sizes:
        worst = max(worst, unitarity_residual(dft_matrix(n)))
        for y0 in range(n):
            coord = np.zeros((n, n), dtype=complex)
            coord[y0, y0] = 1.0
            resid = np.max(np.abs(momentum_projector(y0, n) - dft_conjugate(coord)))
            worst = max(worst, float(resid))
    return worst


def reduced_vs_full(rng: np.random.Generator, sizes: Sequence[int], m_max: int) -> float:
    """Worst P(m) difference, m <= m_max, between the reduced and the
    full-space trace from the uniform start, for one balanced (beta = delta)
    and one unbalanced random phase pair per size."""
    worst = 0.0
    for n in sizes:
        for balanced in (True, False):
            dp = rng.uniform(-math.pi, math.pi)
            bp = dp if balanced else rng.uniform(-math.pi, math.pi)
            phases = GroverPhases.from_angles(bp, dp)
            reduced = probability_trace(reduced_kernel(phases.beta, phases.delta, n),
                                        uniform_initial(n), m_max)
            k0 = momentum_state(0, n)
            full = full_space_trace(FullSpaceConfig(n, 0, k0, phases), k0, m_max)
            worst = max(worst, float(np.max(np.abs(reduced.probs - full.probs))))
    return worst


def closed_vs_iterative(rng: np.random.Generator, draws: int, n_max: int,
                        m_max: int) -> float:
    """Worst closed-form vs iterated marked amplitude difference over
    ``draws`` random sizes in [2, n_max], phase pairs (every other one
    balanced) and step counts in [0, m_max], from the uniform start."""
    worst = 0.0
    for i in range(draws):
        n = int(rng.integers(2, n_max + 1))
        dp = rng.uniform(-math.pi, math.pi)
        bp = dp if i % 2 else rng.uniform(-math.pi, math.pi)
        phases = GroverPhases.from_angles(bp, dp)
        k = reduced_kernel(phases.beta, phases.delta, n)
        state = uniform_initial(n)
        m = int(rng.integers(0, m_max + 1))
        worst = max(worst, abs(amplitude_closed_form(eigensystem(k), state, m)
                               - amplitude_iterative(k, state, m)))
    return worst
