"""Reduced probability traces against an independent 50-digit reference.

The reference kernel is G2 G1 from ``test_spectral_reference.reflections``
(alpha1 in place of 1/sqrt(N) for a general-superposition kernel).  The
start is carried from one sampled m to the next by the kernel's repeated
squares at 50 digits, and P(m) is the squared marked amplitude.  Both sides
start from the same float phase angles and start coefficients.

The gate is |dP| <= 1e-12 at N = 1e6 and 1e9 for m <= 1e6, and at N = 1e3
for m <= 1e4.  Beyond that it is 1e-12 + 1e-15 m a, for the kernel's folded
rotation angle a: the float kernel fixes a only to relative rounding, and
m a multiplies that error by m.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from test_spectral_reference import reflections

from groverlab.evolution import InitialState, probability_trace, uniform_initial
from groverlab.kernel import GroverPhases, extended_reduced_kernel, reduced_kernel

FLAT_TOL = 1e-12
ANGLE_TOL = 1e-15
SAMPLES = 120

UNBALANCED = [tuple(p) for p in np.random.default_rng(9).uniform(-math.pi, math.pi, (2, 2)).tolist()]
PHASES = [(0.0, 0.0), (0.7, 0.7), (2.5, 2.5), *UNBALANCED]


def _matmul(p, q):
    return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]


def reference(bp, dp, start, steps, n=None, alpha1=None):
    """P(m) for every m of the ascending ``steps``, each reached from the one
    before, and the folded rotation angle of the kernel."""
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(bp)), mp.expj(mpf(dp)), n, alpha1)
        k = g2 * g1
        k = [[k[i, j] for j in range(2)] for i in range(2)]
        lam = mp.arg(k[0][0] * k[1][1] - k[0][1] * k[1][0]) / 2
        angle = mp.acos(abs(mp.re((k[0][0] + k[1][1]) * mp.expj(-lam))) / 2)
        squares = [k]
        while 2 ** len(squares) <= max(steps):
            squares.append(_matmul(squares[-1], squares[-1]))
        v, at, probs = [mpc(start[0]), mpc(start[1])], 0, []
        for m in steps:
            for bit, sq in enumerate(squares):
                if (m - at) >> bit & 1:
                    v = [sq[0][0] * v[0] + sq[0][1] * v[1], sq[1][0] * v[0] + sq[1][1] * v[1]]
            at = m
            probs.append(float(abs(v[0]) ** 2))
        return np.array(probs), float(angle)


def _steps(m_max):
    picks = np.random.default_rng(m_max).integers(0, m_max + 1, SAMPLES).tolist()
    return sorted({0, 1, m_max, *picks})


def _check(trace, bp, dp, start, m_max, flat, n=None, alpha1=None):
    steps = _steps(m_max)
    want, angle = reference(bp, dp, start, steps, n, alpha1)
    err = np.abs(trace.probs[steps] - want)
    tol = FLAT_TOL + (0.0 if flat else ANGLE_TOL * angle * np.array(steps))
    bad = np.nonzero(err > tol)[0]
    assert not bad.size, (f"{bad.size} of {len(steps)} steps off, worst |dP| {err.max():.3e} "
                          f"at m = {steps[int(np.argmax(err))]}")


def _reduced(bp, dp, n, state, m_max):
    phases = GroverPhases.from_angles(bp, dp)
    trace = probability_trace(reduced_kernel(phases.beta, phases.delta, n), state, m_max)
    return trace, state.reduced_vector()


@pytest.mark.parametrize("n,m_max,flat", [(10**6, 10**6, True), (10**9, 10**6, True),
                                          (10**3, 10**4, True), (10**3, 10**6, False)])
@pytest.mark.parametrize("bp,dp", PHASES)
def test_uniform_start(bp, dp, n, m_max, flat):
    trace, start = _reduced(bp, dp, n, uniform_initial(n), m_max)
    _check(trace, bp, dp, start, m_max, flat, n=n)


@pytest.mark.parametrize("a", [0.5, 3.0, 0.3 + 0.4j])
@pytest.mark.parametrize("bp,dp", [(0.0, 0.0), (2.5, 2.5), UNBALANCED[0]])
def test_completed_start(bp, dp, a):
    n = 10**6
    trace, start = _reduced(bp, dp, n, InitialState.complete(a, n), 10**6)
    _check(trace, bp, dp, start, 10**6, True, n=n)


@pytest.mark.parametrize("alpha1", [0.3, 0.01])
@pytest.mark.parametrize("bp,dp", PHASES)
def test_alpha1_kernel(bp, dp, alpha1):
    phases = GroverPhases.from_angles(bp, dp)
    start = np.array([alpha1, math.sqrt(1 - alpha1**2)], dtype=complex)
    trace = probability_trace(extended_reduced_kernel(phases.beta, phases.delta, alpha1),
                              start, 10**5)
    _check(trace, bp, dp, start, 10**5, False, alpha1=alpha1)


@pytest.mark.parametrize("n", [10**3, 10**6])
@pytest.mark.parametrize("bp,dp", PHASES)
def test_peak_step_is_a_reference_peak(bp, dp, n):
    """The peak step may differ from the reference's only at a tie within 1e-12."""
    m_max = int(3 * math.pi * math.sqrt(n))
    trace, start = _reduced(bp, dp, n, uniform_initial(n), m_max)
    want, _ = reference(bp, dp, start, range(m_max + 1), n=n)
    assert want[trace.peak_step] >= want.max() - FLAT_TOL
