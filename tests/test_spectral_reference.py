"""Phase gaps and spectrum rows of large-N and near-balanced kernels, and the
rotation manifold, against an independent 50-digit reference
(``reference.spectrum`` and ``reference.manifold_reference``).

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

import contextlib
import io
import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from reference import half_cos, manifold_reference, power, reflections, rotation, spectrum

from groverlab import cli
from groverlab.algebra import TOL_EXACT
from groverlab.evolution import probability_blocks, uniform_initial
from groverlab.kernel import GroverPhases, ReducedKernel, reduced_kernel
from groverlab.spectral import eigensystem, kernel_manifold_points, optimal_steps_exact

SIZES = (10**6, 10**9, 10**12, 10**15, 10**18)
GAP_RTOL = 1e-12

# 41 balanced family members at least 1e-3 from the divergent end, and 40
# seeded unbalanced (beta_phase, delta_phase) pairs.
BALANCED = [(t, t) for t in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 41).tolist()]
UNBALANCED = [tuple(p) for p in np.random.default_rng(4).uniform(-math.pi, math.pi, (40, 2)).tolist()]


@pytest.mark.parametrize("n", SIZES)
def test_phase_gap_matches_reference(n):
    bad = []
    for bp, dp in BALANCED + UNBALANCED:
        phases = GroverPhases.from_angles(bp, dp)
        spec = eigensystem(reduced_kernel(phases.beta, phases.delta, n))
        want = spectrum(bp, dp, n)
        rel = abs(spec.phase_gap - want.gap) / want.gap
        if spec.degenerate or not rel <= GAP_RTOL or optimal_steps_exact(spec) != want.steps:
            bad.append((bp, dp, rel, spec.degenerate))
    assert not bad, f"{len(bad)} of {len(BALANCED) + len(UNBALANCED)} wrong, e.g. {bad[:3]}"


# ReducedKernel.from_angles near balance, on the grid of the trace gate in
# test_trace_reference.py: eps = |bp - dp| sqrt(N), or |bp - dp| / alpha1 at
# alpha1 = 1/sqrt(N), about random bp.  Measured worst: phase_gap 6.7e-16
# relative, eigenphases 8.9e-16 and eigenvectors 4.0e-16 absolute, P(m) 0.26
# of its gate.  A kernel matrix built from the complex units (reduced_kernel,
# extended_reduced_kernel) is off by up to 1.0e-7 in phase_gap and 2.0e-7 in
# the eigenvectors, and P(m) by 309 times its gate, on the same draws.
ANGLE_SIZES = (10**6, 10**9, 10**12, 10**15, 10**18, 2**63 - 1)
ANGLE_EPS = (1e-4, 1e-2, 1, 1e2, 1e6)
ANGLE_DRAWS = 4
ANGLE_TOL = 2e-15  # phase_gap relative, eigenphases absolute: a few roundings of pi
EIGVEC_TOL = 1e-15
STEPS = 10**7
FLAT_TOL, STEP_TOL = 1e-12, 1e-15  # |dP| <= 1e-12 + 1e-15 m a, as for the traces


def angle_errors(bp, dp, n, alpha1, draw):
    """(name, error, bound) of the kernel of the angles against 50 digits:
    its spectrum, its eigenvectors matched by eigenphase, and P(m) from its
    plane start at 0, 1, STEPS and 12 random steps between, by the evaluator
    ``probability_trace`` fills its array from."""
    k = ReducedKernel.from_angles(bp, dp, n, alpha1)
    spec, want = eigensystem(k), spectrum(bp, dp, n, alpha1)
    if spec.degenerate or want.degenerate:
        return [("degenerate", float(spec.degenerate != want.degenerate), 0)]
    got = spec.eigphase1, spec.eigphase2
    orders = [want.eigphases, want.eigphases[::-1]], [want.eigvecs, want.eigvecs[::-1]]
    on_circle = [max(abs(math.remainder(g - w, 2 * math.pi)) for g, w in zip(got, pair))
                 for pair in orders[0]]
    better = int(np.argmin(on_circle))
    vec_err = max(np.abs(g - w).max() for g, w in zip((spec.eigvec1, spec.eigvec2),
                                                     orders[1][better]))
    if alpha1 is None:
        start, exact = uniform_initial(n), (1 / mp.sqrt(n), mp.sqrt(mpf(n - 1) / n))
    else:
        start = np.array([alpha1, math.sqrt(1 - alpha1**2)], dtype=complex)
        exact = (mpf(alpha1), mp.sqrt(1 - mpf(alpha1) ** 2))
    steps = sorted({0, 1, STEPS, *draw.integers(0, STEPS + 1, 12).tolist()})
    p = probability_blocks(k, start)
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(bp)), mp.expj(mpf(dp)), n, alpha1)
        probs, angle = power(g2 * g1, exact, steps)
    return [("phase_gap", abs(spec.phase_gap - want.gap) / want.gap, ANGLE_TOL),
            ("eigphases", on_circle[better], ANGLE_TOL), ("eigvecs", vec_err, EIGVEC_TOL)] + [
        (f"P({m})", abs(p(m, m + 1)[0, 0] - want_p), FLAT_TOL + STEP_TOL * angle * m)
        for m, want_p in zip(steps, probs)]


@pytest.mark.parametrize("kind", ["plain", "alpha1"])
@pytest.mark.parametrize("n", ANGLE_SIZES, ids=["1e6", "1e9", "1e12", "1e15", "1e18", "2^63-1"])
def test_from_angles_matches_reference(n, kind):
    """The library's angle input keeps the near-balanced phases' difference:
    phase_gap, the eigenphases and eigenvectors of eigensystem and P(m) up to
    1e7, of ReducedKernel.from_angles, within their bounds of 50 digits."""
    alpha1 = 1 / math.sqrt(n) if kind == "alpha1" else None
    bad = []
    for eps in ANGLE_EPS:
        draw = np.random.default_rng([ANGLE_SIZES.index(n), ANGLE_EPS.index(eps), kind == "plain"])
        for _ in range(ANGLE_DRAWS):
            bp = float(draw.uniform(-math.pi, math.pi))
            dp = bp + float(draw.choice([-1, 1])) * eps / math.sqrt(n)
            errors = angle_errors(bp, dp, None if alpha1 else n, alpha1, draw)
            bad += [(eps, bp, dp, name, err) for name, err, bound in errors if not err <= bound]
    assert not bad, f"{len(bad)} checks off, e.g. {bad[:3]}"


def spectrum_row(*args):
    """The cells of ``spectrum`` at one point, by column name."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["spectrum", *args]) == 0
    header, row = out.getvalue().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def spectrum_errors(row, n=None, alpha1=None):
    """The printed spectrum row's errors against 50 digits at its printed
    phases, as (column, error, bound) triples: phase_gap relative, the
    eigenphase pair on the circle (in the better order), det, trace and
    diag_gap within 1e-12 max(1, |value|), and m_exact exact unless pi/gap
    lies within GAP_RTOL, relative, of an integer (error 1 for a miss)."""
    want = spectrum(float(row["beta_phase"]), float(row["delta_phase"]), n, alpha1)
    cell = lambda name: complex(float(row[name + "_re"]), float(row[name + "_im"]))
    errors = [(name, abs(cell(name) - value) / max(1, abs(value)), GAP_RTOL)
              for name, value in [("det", want.det), ("trace", want.trace),
                                  ("diag_gap", want.diag_gap)] if value is not None]
    if row["degenerate"] == "1" or want.degenerate:
        return errors + [("degenerate", float(row["degenerate"] != str(int(want.degenerate))), 0)]
    got = float(row["eigphase1"]), float(row["eigphase2"])
    on_circle = [max(abs(math.remainder(g - w, 2 * math.pi)) for g, w in zip(got, pair))
                 for pair in (want.eigphases, want.eigphases[::-1])]
    near = abs(want.period - mp.nint(want.period)) <= GAP_RTOL * want.period
    return errors + [
        ("phase_gap", abs(float(row["phase_gap"]) - want.gap) / want.gap, GAP_RTOL),
        ("eigphases", min(on_circle), GAP_RTOL),
        ("m_exact", float(not near and int(row["m_exact"]) != want.steps), 0)]


def test_near_balanced_phase_gap_at_large_n():
    """ROADMAP's Known defect 1 reproduction, which printed phase_gap 9e-9
    relative off and m_exact 1336986488 for 1336986476: spectrum's cells
    within tolerance of 50 digits where bp and dp differ by 4.5e-10 at N
    near 2^61."""
    n, bp, dp = 2728383057332175872, -0.6196048970678825, -0.6196048966182851
    row = spectrum_row("--n", str(n), "--beta-phase", repr(bp), "--delta-phase", repr(dp))
    assert row["m_exact"] == "1336986476"
    assert all(err <= bound for _, err, bound in spectrum_errors(row, n))


def test_near_balanced_alpha1_phase_gap():
    """Known defect 1 in the --alpha1 kernel: ``spectrum --alpha1 1e-9
    --beta-phase 0.5 --delta-phase 0.500000001`` printed phase_gap
    4.002581693442262e-09 and m_exact 784891576, where 50 digits give
    4.0025817214194914e-09 and 784891570."""
    row = spectrum_row("--alpha1", "1e-09", "--beta-phase", "0.5", "--delta-phase", "0.500000001")
    assert row["m_exact"] == "784891570"
    assert all(err <= bound for _, err, bound in spectrum_errors(row, alpha1=1e-9))


# Near-balanced pairs: |bp - dp| = eps / sqrt(N), or eps alpha1 with --alpha1,
# about random bp, at every list size and overlap the kernels take.
ACCURACY_SIZES = (2, 10**3, 10**6, 10**9, 10**12, 10**15, 10**18, 2**63 - 1)
ACCURACY_OVERLAPS = (1e-9, 1e-6, 1e-3, 0.3)
ACCURACY_EPS = (0, 1e-4, 1e-2, 1, 1e2, 1e6)
ACCURACY_DRAWS = 4


@pytest.mark.parametrize("n, alpha1", [(n, None) for n in ACCURACY_SIZES]
                         + [(None, alpha1) for alpha1 in ACCURACY_OVERLAPS],
                         ids=[f"n={n}" for n in ACCURACY_SIZES]
                         + [f"alpha1={alpha1}" for alpha1 in ACCURACY_OVERLAPS])
def test_spectrum_matches_reference_near_balance(n, alpha1):
    """Every spectrum cell a kernel sets, within its bound of 50 digits
    (``spectrum_errors``), for phases from balanced to far apart."""
    rng = np.random.default_rng(n or int(1 / alpha1))
    scale = alpha1 if n is None else 1 / math.sqrt(n)
    size = ["--n", str(n)] if n is not None else ["--alpha1", repr(alpha1)]
    bad = []
    for eps in ACCURACY_EPS:
        for _ in range(ACCURACY_DRAWS):
            bp = rng.uniform(-math.pi, math.pi)
            dp = bp + float(rng.choice([-1, 1])) * eps * scale
            row = spectrum_row(*size, "--beta-phase", repr(bp), "--delta-phase", repr(dp))
            bad += [(eps, bp, dp, name, err) for name, err, bound in spectrum_errors(row, n, alpha1)
                    if not err <= bound]
    assert not bad, f"{len(bad)} cells off, e.g. {bad[:3]}"


# beta and delta near -1, where the kernel is near the identity and lam near
# pi: on one side of the cut at +-pi, and across it.
NEAR_MINUS_ONE = [(math.pi - 1e-7, math.pi - 3e-7), (-math.pi + 4e-6, -math.pi + 1e-11),
                  (math.pi - 2e-9, -math.pi + 5e-9), (-math.pi + 1e-5, math.pi - 1e-11),
                  (3.1415926535079017, -3.141592653583254)]


@pytest.mark.parametrize("n, alpha1", [(10**3, None), (10**9, None), (2**63 - 1, None),
                                       (None, 1e-3), (None, 0.3)])
def test_spectrum_near_minus_one(n, alpha1):
    """Every spectrum cell a kernel sets, within its bound of 50 digits, where
    the rotation is small and lam is near pi, so that its rounding would be
    all of sin(lam), and where bp - dp is near 2 pi."""
    size = ["--n", str(n)] if n is not None else ["--alpha1", repr(alpha1)]
    bad = []
    for bp, dp in NEAR_MINUS_ONE:
        row = spectrum_row(*size, "--beta-phase", repr(bp), "--delta-phase", repr(dp))
        bad += [(bp, dp, name, err) for name, err, bound in spectrum_errors(row, n, alpha1)
                if not err <= bound]
    assert not bad, f"{len(bad)} cells off, e.g. {bad[:3]}"


# The CLI's 41x41 manifold grid, anchored at pi/2.
MANIFOLD_GRID = [(math.pi / 2 + 2 * math.pi * i / 41) % (2 * math.pi) for i in range(41)]
MANIFOLD_TOL = 1e-14


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
            c = half_cos(phi)
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
