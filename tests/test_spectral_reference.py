"""Phase gaps of large-N kernels against an independent 50-digit reference.

The reference builds the reduced kernel with mpmath as the product G2 G1 of
the two reflections in the (|x0>, |xp>) basis, G1 = diag(alpha, beta) and
G2 = delta + (gamma - delta) |u><u| with alpha = gamma = -1 and
|u> = (1/sqrt(N), sqrt((N-1)/N)), and takes its eigenvalues from the
quadratic formula, whose cancellation the 50 digits absorb.  It shares no
code or formula with groverlab.  Both sides start from the same float phase
angles.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from groverlab.kernel import GroverPhases, reduced_kernel
from groverlab.spectral import eigensystem, optimal_steps_exact

SIZES = (10**6, 10**9, 10**12, 10**15, 10**18)
GAP_RTOL = 1e-12

# 41 balanced family members at least 1e-3 from the divergent end, and 40
# seeded unbalanced (beta_phase, delta_phase) pairs.
BALANCED = [(t, t) for t in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 41).tolist()]
UNBALANCED = [tuple(p) for p in np.random.default_rng(4).uniform(-math.pi, math.pi, (40, 2)).tolist()]


def reference(beta_phase, delta_phase, n):
    """The gap between the two eigenphases and floor(pi / gap), from 50 digits."""
    with mp.workdps(50):
        beta, delta = mp.expj(mpf(beta_phase)), mp.expj(mpf(delta_phase))
        alpha = gamma = mpc(-1)
        u = (1 / mp.sqrt(n), mp.sqrt(mpf(n - 1) / n))
        g2 = [[delta * (i == j) + (gamma - delta) * u[i] * u[j] for j in range(2)]
              for i in range(2)]
        k = [[g2[i][0] * alpha, g2[i][1] * beta] for i in range(2)]
        tr = k[0][0] + k[1][1]
        det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
        root = mp.sqrt(tr * tr - 4 * det)
        gap = abs(mp.arg((tr + root) / (tr - root)))
        return float(gap), int(mp.floor(mp.pi / gap))


@pytest.mark.parametrize("n", SIZES)
def test_phase_gap_matches_reference(n):
    bad = []
    for bp, dp in BALANCED + UNBALANCED:
        phases = GroverPhases.from_angles(bp, dp)
        spec = eigensystem(reduced_kernel(phases.beta, phases.delta, n))
        gap, steps = reference(bp, dp, n)
        rel = abs(spec.phase_gap - gap) / gap
        if spec.degenerate or not rel <= GAP_RTOL or optimal_steps_exact(spec) != steps:
            bad.append((bp, dp, rel, spec.degenerate))
    assert not bad, f"{len(bad)} of {len(BALANCED) + len(UNBALANCED)} wrong, e.g. {bad[:3]}"
