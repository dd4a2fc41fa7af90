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

import functools
import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from reference import reflections

from groverlab import cli
from groverlab.algebra import TOL_EXACT
from groverlab.kernel import GroverPhases, extended_reduced_kernel, reduced_kernel
from groverlab.spectral import eigensystem, kernel_manifold_points, optimal_steps_exact

SIZES = (10**6, 10**9, 10**12, 10**15, 10**18)
GAP_RTOL = 1e-12

# 41 balanced family members at least 1e-3 from the divergent end, and 40
# seeded unbalanced (beta_phase, delta_phase) pairs.
BALANCED = [(t, t) for t in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 41).tolist()]
UNBALANCED = [tuple(p) for p in np.random.default_rng(4).uniform(-math.pi, math.pi, (40, 2)).tolist()]


def reference(beta_phase, delta_phase, n, alpha1=None):
    """The gap between the two eigenphases and floor(pi / gap), from 50 digits;
    with ``alpha1``, of the general-superposition kernel."""
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(beta_phase)), mp.expj(mpf(delta_phase)), n, alpha1)
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


@pytest.mark.xfail(strict=True, reason="Known defect 1: the kernel's entries lose the "
                   "near-balanced phases' difference at large N (9e-9 relative)")
def test_near_balanced_phase_gap_at_large_n():
    """ROADMAP's Known defect 1 reproduction: spectrum's phase_gap within
    GAP_RTOL of 50 digits where bp and dp differ by 4.5e-10 at N near 2^61."""
    n, bp, dp = 2728383057332175872, -0.6196048970678825, -0.6196048966182851
    phases = GroverPhases.from_angles(bp, dp)
    spec = eigensystem(reduced_kernel(phases.beta, phases.delta, n))
    gap, _ = reference(bp, dp, n)
    assert abs(spec.phase_gap - gap) / gap <= GAP_RTOL


@pytest.mark.xfail(strict=True, reason="Known defect 1: the --alpha1 kernel's entries lose "
                   "the near-balanced phases' difference at small alpha1 (7e-9 relative)")
def test_near_balanced_alpha1_phase_gap():
    """Known defect 1 in the --alpha1 kernel builder: ``spectrum --alpha1
    1e-9 --beta-phase 0.5 --delta-phase 0.500000001`` prints phase_gap
    4.002581693442262e-09 and m_exact 784891576, where 50 digits give
    4.0025817214194914e-09 and 784891570."""
    alpha1, bp, dp = 1e-9, 0.5, 0.500000001
    phases = GroverPhases.from_angles(bp, dp)
    spec = eigensystem(extended_reduced_kernel(phases.beta, phases.delta, alpha1))
    gap, steps = reference(bp, dp, None, alpha1)
    assert abs(spec.phase_gap - gap) / gap <= GAP_RTOL
    assert optimal_steps_exact(spec) == steps


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


# asymptotics over a diagonal of one point more than a block, so that its
# last row comes from a second block, at list sizes up to the largest --n.
ASYMPTOTIC_SIZES = (2, 1000, 10**9, 2**63 - 1)
ASYMPTOTIC_GRID = cli.GRID_CELLS // cli.ASYMPTOTICS_ROW.count("%") + 1
# gap_asymptotic's error, relative to 4 / sqrt(N): the float cos(phi/2) is
# within rounding of 1, not of itself, near phi = +-pi (2.2e-17 measured).
ASYMPTOTIC_GAP_TOL = 1e-15
# A step count may differ from the floor of the 50-digit period only where
# the period lies this close, relative, to an integer.
PERIOD_RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def _half_cos(phi):
    """cos(phi/2) at 50 digits for the printed phi."""
    with mp.workdps(50):
        return mp.cos(mpf(phi) / 2)


@pytest.mark.parametrize("alpha1", [None, 0.3, 1e-306], ids=["n", "alpha1", "tiny-alpha1"])
@pytest.mark.parametrize("n", ASYMPTOTIC_SIZES)
def test_asymptotics_matches_reference(tmp_path, n, alpha1):
    """gap_asymptotic against 4 cos(phi/2) / sqrt(N), and m_asymptotic
    against floor(pi sqrt(N) / (4 cos(phi/2))), or floor(pi / (4 alpha1
    cos(phi/2))) with --alpha1, at 50 digits for the printed phi.  Both cells
    are empty exactly where cos(phi/2) is below TOL_EXACT (the phi = +-pi
    ends), and m_asymptotic also where the period overflows a float (near
    those ends for alpha1 = 1e-306)."""
    path = tmp_path / "a.csv"
    argv = ["asymptotics", "--n", str(n), "--grid", str(ASYMPTOTIC_GRID), "--out", str(path)]
    assert cli.main(argv + ([] if alpha1 is None else ["--alpha1", repr(alpha1)])) == 0
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == ASYMPTOTIC_GRID
    bad = []
    with mp.workdps(50):
        scale = 4 / mp.sqrt(n)
        for line in lines:
            phi, _, _, gap, steps = line.split(",")
            c = _half_cos(phi)
            period = (mp.pi * mp.sqrt(n) if alpha1 is None else mp.pi / mpf(alpha1)) / (4 * c)
            if c <= TOL_EXACT:
                ok = gap == steps == ""
            else:
                ok = gap != "" and abs(mpf(gap) - scale * c) <= ASYMPTOTIC_GAP_TOL * scale
                if period > mpf(np.finfo(float).max):
                    ok = ok and steps == ""
                elif int(steps) != mp.floor(period):
                    near = abs(period - mp.nint(period)) <= PERIOD_RTOL * period
                    ok = ok and near and abs(int(steps) - period) <= 1 + PERIOD_RTOL * period
            if not ok:
                bad.append((phi, gap, steps))
    assert not bad, f"{len(bad)} of {len(lines)} rows wrong, e.g. {bad[:3]}"
