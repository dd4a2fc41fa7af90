"""Phase gaps of large-N kernels and the rotation manifold against an
independent 50-digit reference.

The reference builds the two reflections with mpmath in the (|x0>, |xp>)
basis, G1 = diag(alpha, beta) and G2 = delta + (gamma - delta) |u><u| with
alpha = gamma = -1 and |u> = (1/sqrt(N), sqrt((N-1)/N)).  The reduced kernel
is G2 G1, and its eigenvalues come from the quadratic formula, whose
cancellation the 50 digits absorb.  A manifold point is the kernel
-(cos t2 + i sin t2 G2)(cos t1 + i sin t1 G1) at beta = delta = 1, split
into e^{i lam} (cos a + i sin a n.sigma) with lam = arg(det)/2 and the
parts read off by Pauli traces.  The reference shares no code with
groverlab.  Both sides start from the same float angles.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from reference import reflections

from groverlab.kernel import GroverPhases, reduced_kernel
from groverlab.spectral import eigensystem, kernel_manifold_points, optimal_steps_exact

SIZES = (10**6, 10**9, 10**12, 10**15, 10**18)
GAP_RTOL = 1e-12

# 41 balanced family members at least 1e-3 from the divergent end, and 40
# seeded unbalanced (beta_phase, delta_phase) pairs.
BALANCED = [(t, t) for t in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 41).tolist()]
UNBALANCED = [tuple(p) for p in np.random.default_rng(4).uniform(-math.pi, math.pi, (40, 2)).tolist()]


def reference(beta_phase, delta_phase, n):
    """The gap between the two eigenphases and floor(pi / gap), from 50 digits."""
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(beta_phase)), mp.expj(mpf(delta_phase)), n)
        k = g2 * g1
        tr = k[0, 0] + k[1, 1]
        det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
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


# The CLI's 41x41 manifold grid, anchored at pi/2.
MANIFOLD_GRID = [(math.pi / 2 + 2 * math.pi * i / 41) % (2 * math.pi) for i in range(41)]
MANIFOLD_TOL = 1e-14


def rotation(t, g):
    """cos t + i sin t g for a reflection g; call inside mp.workdps(50)."""
    c, s = mp.cos(mpf(t)), mp.sin(mpf(t))
    return [[c * (i == j) + 1j * s * g[i, j] for j in range(2)] for i in range(2)]


def manifold_reference(r1, r2):
    """(global phase, rotation angle, sin(angle), sin(angle) n) of -r2 r1."""
    k = [[-(r2[i][0] * r1[0][j] + r2[i][1] * r1[1][j]) for j in range(2)] for i in range(2)]
    lam = mp.arg(k[0][0] * k[1][1] - k[0][1] * k[1][0]) / 2
    u = mp.expj(-lam)
    (a, b), (c, d) = ([x * u for x in row] for row in k)
    # Tr(W) = 2 cos(angle) and Tr(sigma_j W) = 2i sin(angle) n_j, W = e^{-i lam} K.
    sin_axis = [mp.re(t / 2j) for t in (b + c, 1j * (b - c), a - d)]
    sin = mp.sqrt(sum(x * x for x in sin_axis))
    return lam, mp.atan2(sin, mp.re(a + d) / 2), sin, sin_axis


@pytest.mark.parametrize("n", (4, 10, 10**6))
def test_manifold_matches_reference(n):
    """Angle and global phase within 1e-14.  The axis is sin(angle) n over
    sin(angle), so its error grows as 1/sin(angle) (7e-14 at sin(angle) =
    1.2e-3 for N = 1e6, where the two reflection axes are nearly opposite);
    it is held to |axis error| sin(angle) <= MANIFOLD_TOL / 10 where present,
    and present exactly where sin(angle) >= 1e-9."""
    aa = kernel_manifold_points(np.array(MANIFOLD_GRID)[:, None], MANIFOLD_GRID, n)
    bad = []
    with mp.workdps(50):
        g1, g2 = reflections(mpc(1), mpc(1), n)
        r1 = [rotation(t, g1) for t in MANIFOLD_GRID]
        r2 = [rotation(t, g2) for t in MANIFOLD_GRID]
        for k in range(len(MANIFOLD_GRID) ** 2):
            i, j = divmod(k, len(MANIFOLD_GRID))
            lam, angle, sin, sin_axis = manifold_reference(r1[i], r2[j])
            axis = aa.axis[k]
            err = [abs(aa.global_phase[k] - lam), abs(aa.angle[k] - angle)]
            ok = max(err) <= MANIFOLD_TOL and np.isnan(axis[0]) == (sin < 1e-9)
            if not np.isnan(axis[0]):
                err.append(sin * max(abs(axis[c] - sin_axis[c] / sin) for c in range(3)))
                ok = ok and err[-1] <= MANIFOLD_TOL / 10
            if not ok:
                bad.append((i, j, [float(e) for e in err]))
    assert not bad, f"{len(bad)} of {len(MANIFOLD_GRID) ** 2} points wrong, e.g. {bad[:3]}"
