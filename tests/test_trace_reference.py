"""Reduced and full-space probability traces against an independent
50-digit reference.

The reference kernel is G2 G1 from ``reference.reflections``
(alpha1 in place of 1/sqrt(N) for a general-superposition kernel).  The
start is carried from one sampled m to the next by the kernel's repeated
squares at 50 digits, and P(m) is the squared marked amplitude.  Both sides
start from the same float phase angles and start coefficients.

The gate is |dP| <= 1e-12 at N = 1e6 and 1e9 for m <= 1e6, and at N = 1e3
for m <= 1e4.  Beyond that it is 1e-12 + 1e-15 m a, for the kernel's folded
rotation angle a: the float kernel fixes a only to relative rounding, and
m a multiplies that error by m.  Full-space traces are held to the same
gates; see the comment above ``FULL_PHASES``.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from reference import power, reflections

from groverlab.algebra import momentum_state
from groverlab.evolution import (InitialState, full_space_trace, probability_trace,
                                 uniform_initial)
from groverlab.kernel import (FullSpaceConfig, GroverPhases, extended_reduced_kernel,
                              reduced_kernel)

FLAT_TOL = 1e-12
ANGLE_TOL = 1e-15
SAMPLES = 120

UNBALANCED = [tuple(p) for p in np.random.default_rng(9).uniform(-math.pi, math.pi, (2, 2)).tolist()]
PHASES = [(0.0, 0.0), (0.7, 0.7), (2.5, 2.5), *UNBALANCED]


def reference(bp, dp, start, steps, n=None, alpha1=None):
    """P(m) for every m of the ascending ``steps``, each reached from the one
    before, and the folded rotation angle of the kernel."""
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(bp)), mp.expj(mpf(dp)), n, alpha1)
        k = g2 * g1
        return power(k, start, steps)


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


# Full-space traces.  Both sides take the same float angles (all four phases),
# k0 and start.  The whole-vector reference applies G1 = beta + (alpha -
# beta)|x0><x0| and G2 = delta + (gamma - delta)|k><k| at 50 digits to every
# entry, so it checks the reduction to the invariant plane, not only the
# engine; k is k0 over its 50-digit norm, the reflection about k0's direction.
# The plane reference builds that reduction at 50 digits instead, so it can
# reach m = 1e6 at N = 4096.  The gates are those of reduced traces: 1e-12
# for the few hundred whole-vector steps, 1e-12 + 1e-15 m a against the plane.

FULL_PHASES = [(0.0, 0.0, math.pi, math.pi), (2.5, 2.5, math.pi, math.pi),
               (*UNBALANCED[0], math.pi, math.pi),
               *[tuple(p) for p in np.random.default_rng(11).uniform(-math.pi, math.pi,
                                                                     (2, 4)).tolist()]]


def _full_config(n, marked, k0, angles):
    return FullSpaceConfig(n, marked, k0, GroverPhases.from_angles(*angles))


def _mp_phases(angles):
    return [mp.expj(mpf(t)) for t in angles]


def _mp_vdot(a, b):
    """<a|b> of two float vectors, at the working precision."""
    dot = lambda x, y: mp.fdot(np.concatenate(x).tolist(), np.concatenate(y).tolist())
    return mpc(dot([a.real, a.imag], [b.real, b.imag]), dot([a.real, -a.imag], [b.imag, b.real]))


def whole_vector_reference(n, marked, k0, angles, start, m_max):
    """P(m) for m = 0..m_max by applying G2 G1 to the whole N-vector m times.
    It evolves v_m / (beta delta)^m, which has the same P(m)."""
    with mp.workdps(50):
        beta, delta, alpha, gamma = _mp_phases(angles)
        norm = mp.sqrt(_mp_vdot(k0, k0).real)
        k = [mpc(z) / norm for z in k0.tolist()]
        kc = [z.conjugate() for z in k]
        v = [mpc(z) for z in start.tolist()]
        probs = [float(abs(v[marked]) ** 2)]
        for _ in range(m_max):
            v[marked] *= alpha / beta
            proj = (gamma / delta - 1) * mp.fdot(kc, v)
            v = [z + proj * kz for z, kz in zip(v, k)]
            probs.append(float(abs(v[marked]) ** 2))
        return np.array(probs)


def plane_coordinates(marked, k0, start):
    """k = (alpha1, c) and the start's plane coordinates (conj(u) v[x0],
    <f|v>), at 50 digits."""
    with mp.workdps(50):
        k_off, v_off = np.delete(k0, marked), np.delete(start, marked)
        ke, off2 = mpc(k0[marked]), _mp_vdot(k_off, k_off).real
        norm = mp.sqrt(abs(ke) ** 2 + off2)
        return ((abs(ke) / norm, mp.sqrt(off2) / norm),
                (ke.conjugate() / abs(ke) * mpc(start[marked]),
                 _mp_vdot(k_off, v_off) / mp.sqrt(off2)))


def plane_reference(k, coords, angles, steps):
    """``power`` of the plane kernel (delta I + (gamma - delta) k k^T)
    diag(alpha, beta) from the plane coordinates, at 50 digits."""
    with mp.workdps(50):
        beta, delta, alpha, gamma = _mp_phases(angles)
        (a, c), g = k, gamma - delta
        kernel = mp.matrix([[(delta + g * a * a) * alpha, g * a * c * beta],
                            [g * a * c * alpha, (delta + g * c * c) * beta]])
        return power(kernel, coords, steps)


def _random_unit(r, n):
    v = r.normal(size=n) + 1j * r.normal(size=n)
    return v / np.linalg.norm(v)


def _embedded(state, marked):
    v = np.full(state.size, state.b / math.sqrt(state.size), dtype=complex)
    v[marked] = state.a / math.sqrt(state.size)
    return v


@pytest.mark.parametrize("n,m_max", [(16, 600), (64, 200)])
@pytest.mark.parametrize("start", ["k0", 1.0, 3.0, 0.3 + 0.4j])
def test_full_space_against_whole_vector(n, m_max, start):
    r = np.random.default_rng(n)
    marked = int(r.integers(n))
    k0 = _random_unit(r, n)
    x_in = k0 if start == "k0" else _embedded(InitialState.complete(start, n), marked)
    angles = tuple(r.uniform(-math.pi, math.pi, 4).tolist())
    trace = full_space_trace(_full_config(n, marked, k0, angles), x_in, m_max)
    want = whole_vector_reference(n, marked, k0, angles, x_in, m_max)
    err = np.abs(trace.probs - want)
    assert err.max() <= FLAT_TOL, f"worst |dP| {err.max():.3e} at m = {int(np.argmax(err))}"


@pytest.mark.parametrize("k0_kind", ["random", "momentum:7", "uniform"])
def test_full_space_against_plane(k0_kind):
    n, m_max = 4096, 10**6
    r = np.random.default_rng(7)
    k0 = {"random": lambda: _random_unit(r, n), "momentum:7": lambda: momentum_state(7, n),
          "uniform": lambda: momentum_state(0, n)}[k0_kind]()
    marked = int(r.integers(n)) if k0_kind == "random" else 0
    steps = _steps(m_max)
    k, coords = plane_coordinates(marked, k0, k0)
    for angles in FULL_PHASES:
        trace = full_space_trace(_full_config(n, marked, k0, angles), k0, m_max)
        want, angle = plane_reference(k, coords, angles, steps)
        err = np.abs(trace.probs[steps] - want)
        bad = np.nonzero(err > FLAT_TOL + ANGLE_TOL * angle * np.array(steps))[0]
        assert not bad.size, (f"phases {angles}: {bad.size} of {len(steps)} steps off, worst "
                              f"|dP| {err.max():.3e} at m = {steps[int(np.argmax(err))]}")
