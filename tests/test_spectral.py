import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from groverlab import spectral
from groverlab.algebra import _atan2, _complex, unitarity_residual
from groverlab.errors import (
    DegenerateSubspaceError,
    DivergentPeriodError,
    InvalidSizeError,
    NormalizationError,
    ShapeError,
    SingularLimitError,
)
from groverlab.kernel import (ReducedKernel, extended_reduced_kernel, grover_operator,
                              reduced_kernel, reduced_kernels, unit_phases)
from groverlab.spectral import (
    AxisAngle,
    SpectralData,
    asymptotic_gaps,
    asymptotic_steps,
    eigensystem,
    eigensystems,
    asymptotic_eigvec,
    delta_omega_asymptotic,
    kernel_manifold_points,
    optimal_steps_asymptotic,
    optimal_steps_exact,
    stability_expansion,
    su2_decompose,
    su2_decompositions,
)

rng = np.random.default_rng(19)


def random_phase(r):
    t = r.uniform(-np.pi, np.pi)
    return complex(np.cos(t), np.sin(t))


def random_spec(r, n_max=10**6):
    b, d = random_phase(r), random_phase(r)
    n = int(r.integers(2, n_max))
    return reduced_kernel(b, d, n), b, d, n


def reconstruct(aa):
    """Matrix of an axis-angle decomposition (inverse of su2_decompose)."""
    rot = math.cos(aa.angle) * np.eye(2)
    if aa.axis is not None:
        nx, ny, nz = aa.axis
        axis = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
        rot = rot + 1j * math.sin(aa.angle) * axis
    return np.exp(1j * aa.global_phase) * rot


class TestEigensystem:
    def test_size_two_standard(self):
        s = eigensystem(reduced_kernel(1.0, 1.0, 2))
        assert s.eigval1 == pytest.approx(-1j, abs=1e-14)
        assert s.eigval2 == pytest.approx(1j, abs=1e-14)
        assert s.eigphase1 == pytest.approx(-np.pi / 2)
        assert s.eigphase2 == pytest.approx(np.pi / 2)
        assert s.phase_gap == pytest.approx(np.pi)
        assert s.eigphase2 - s.eigphase1 == pytest.approx(np.pi)
        assert_allclose(s.eigvec2, np.array([1j, 1]) / np.sqrt(2), atol=1e-14)
        assert_allclose(s.eigvec1, np.array([-1j, 1]) / np.sqrt(2), atol=1e-14)
        assert not s.degenerate

    def test_size_four_standard(self):
        s = eigensystem(reduced_kernel(1.0, 1.0, 4))
        assert s.eigval1 == pytest.approx(np.exp(-2j * np.pi / 3), abs=1e-14)
        assert s.eigval2 == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-14)
        assert s.phase_gap == pytest.approx(2 * np.pi / 3)

    def test_size_thousand_gap(self):
        s = eigensystem(reduced_kernel(1.0, 1.0, 1000))
        assert s.phase_gap == pytest.approx(0.12651219775028633, rel=1e-12)

    def test_degenerate_family_member(self):
        s = eigensystem(reduced_kernel(-1.0, -1.0, 8))
        assert s.degenerate
        assert s.phase_gap == 0.0
        assert s.eigval1 == pytest.approx(1.0)
        assert s.eigval2 == pytest.approx(1.0)

    def test_eigen_residuals_random(self):
        for _ in range(100):
            k, b, d, n = random_spec(rng)
            s = eigensystem(k)
            if s.degenerate:
                continue
            m = k.matrix
            r1 = np.linalg.norm(m @ s.eigvec1 - s.eigval1 * s.eigvec1)
            r2 = np.linalg.norm(m @ s.eigvec2 - s.eigval2 * s.eigvec2)
            assert max(r1, r2) <= 1e-10
            # distinct eigenvalues of a unitary give orthonormal vectors
            assert abs(np.vdot(s.eigvec1, s.eigvec2)) <= 1e-10
            assert abs(np.linalg.norm(s.eigvec1) - 1) <= 1e-12
            assert abs(abs(s.eigval1) - 1) <= 1e-12
            assert abs(abs(s.eigval2) - 1) <= 1e-12

    def test_det_trace_identities_random(self):
        for _ in range(100):
            k, b, d, n = random_spec(rng)
            s = eigensystem(k)
            assert abs(s.det - b * d) <= 1e-10
            assert abs(s.trace - ((1 + b) * (1 + d) / n - (b + d))) <= 1e-10
            assert abs(s.eigval1 * s.eigval2 - s.det) <= 1e-10
            assert abs(s.eigval1 + s.eigval2 - s.trace) <= 1e-10

    def test_diag_gap_formula(self):
        for _ in range(30):
            k, b, d, n = random_spec(rng, n_max=10**4)
            s = eigensystem(k)
            expected = (1 - b) * (1 + d) + (b - d) * n
            assert abs(s.diag_gap - expected) <= 1e-9

    def test_diag_gap_none_without_size(self):
        s = eigensystem(extended_reduced_kernel(1.0, 1j, 0.3))
        assert s.diag_gap is None

    def test_quadratic_formula_eigvec_directions(self):
        # (2N K01, -A +/- sqrt(A^2 + 4 N^2 K01 K10)) must align with the
        # two computed eigenvectors, one branch each
        for _ in range(60):
            k, b, d, n = random_spec(rng, n_max=10**4)
            s = eigensystem(k)
            if s.degenerate:
                continue
            m = k.matrix
            a = s.diag_gap
            root = np.sqrt(a * a + 4 * n * n * m[0, 1] * m[1, 0])
            hits = set()
            for sign in (1.0, -1.0):
                w = np.array([2 * n * m[0, 1], -a + sign * root])
                nw = np.linalg.norm(w)
                if nw < 1e-9:  # root cancels the diagonal term exactly
                    continue
                w = w / nw
                overlaps = [abs(np.vdot(w, s.eigvec1)), abs(np.vdot(w, s.eigvec2))]
                best = int(np.argmax(overlaps))
                assert overlaps[best] >= 1 - 1e-8
                hits.add(best)
            assert hits == {0, 1}

    def test_balanced_branch_matches_asymptotic_direction(self):
        # eigvec2 of the balanced family at huge N approaches
        # (i sqrt(delta), 1)/sqrt(2) component-by-component for every angle
        n = 10**6
        for j in range(16):
            phi = -np.pi + (j + 0.5) * 2 * np.pi / 16
            d = np.exp(1j * phi)
            s = eigensystem(reduced_kernel(d, d, n))
            target = asymptotic_eigvec(d, d, n)
            assert np.max(np.abs(s.eigvec2 - target)) <= 1e-2

    def test_marked_dominance_off_balance(self):
        n = 10**6
        s = eigensystem(reduced_kernel(1.0, 1j, n))
        assert abs(s.eigvec2[0]) >= 0.999
        assert abs(s.eigvec1[0]) <= 1e-3
        target = asymptotic_eigvec(1.0, 1j, n)
        assert abs(np.vdot(target, s.eigvec2)) >= 1 - 1e-8

    def test_accepts_plain_array(self):
        s = eigensystem(np.array([[0, -1], [1, 0]], dtype=complex))
        assert s.phase_gap == pytest.approx(np.pi)
        assert s.diag_gap is None

    def test_rejects_bad_arrays(self):
        with pytest.raises(NormalizationError):
            eigensystem(np.array([[1, 0], [0, 2]], dtype=complex))
        with pytest.raises(InvalidSizeError):
            eigensystem(np.eye(3))
        with pytest.raises(ShapeError):
            eigensystem(np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(ShapeError):
            su2_decompose(np.ones(2))


class TestAsymptoticEigvec:
    def test_textbook_direction(self):
        assert_allclose(asymptotic_eigvec(1.0, 1.0, 100),
                        np.array([1j, 1]) / np.sqrt(2), atol=1e-15)

    def test_principal_root_of_family_angle(self):
        v = asymptotic_eigvec(1j, 1j, 100)
        assert_allclose(v, np.array([1j * np.exp(1j * np.pi / 4), 1]) / np.sqrt(2),
                        atol=1e-15)

    def test_balanced_far_end_still_defined(self):
        v = asymptotic_eigvec(-1.0, -1.0, 100)
        assert_allclose(v, np.array([-1.0, 1.0]) / np.sqrt(2), atol=1e-15)

    def test_off_balance_singular_limit(self):
        with pytest.raises(SingularLimitError):
            asymptotic_eigvec(1.0, -1.0, 100)

    def test_unit_norm(self):
        v = asymptotic_eigvec(1.0, 1j, 400)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestGapAsymptotics:
    def test_textbook_value(self):
        assert delta_omega_asymptotic(1.0, 10**6) == pytest.approx(0.004, abs=1e-15)

    def test_quarter_turn_value(self):
        expected = 4 * math.cos(np.pi / 4) / math.sqrt(1000)
        assert delta_omega_asymptotic(1j, 1000) == pytest.approx(expected, rel=1e-14)

    def test_accuracy_against_exact_gap(self):
        n = 10**4
        s = eigensystem(reduced_kernel(1.0, 1.0, n))
        approx = delta_omega_asymptotic(1.0, n)
        assert abs(approx / s.phase_gap - 1) <= 0.02

    def test_far_end_diverges(self):
        with pytest.raises(DivergentPeriodError):
            delta_omega_asymptotic(-1.0, 1000)


class TestStepCounts:
    def test_exact_counts(self):
        assert optimal_steps_exact(eigensystem(reduced_kernel(1, 1, 2))) == 1
        assert optimal_steps_exact(eigensystem(reduced_kernel(1, 1, 4))) == 1
        assert optimal_steps_exact(eigensystem(reduced_kernel(1, 1, 1000))) == 24

    def test_exact_rejects_degenerate(self):
        with pytest.raises(DivergentPeriodError):
            optimal_steps_exact(eigensystem(reduced_kernel(-1, -1, 10)))

    def test_asymptotic_counts(self):
        assert optimal_steps_asymptotic(0.0, 1000) == 24
        assert optimal_steps_asymptotic(np.pi / 2, 1000) == 35
        assert optimal_steps_asymptotic(0.0, 10**6) == 785

    def test_asymptotic_monotone_in_angle(self):
        vals = [optimal_steps_asymptotic(phi, 10**4)
                for phi in np.linspace(0, 3.0, 20)]
        assert vals == sorted(vals)

    def test_extended_form_matches_uniform(self):
        for n in (4, 16, 64, 256, 1024):
            for phi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2,
                        3 * np.pi / 8, -3 * np.pi / 8):
                assert (optimal_steps_asymptotic(phi, n)
                        == optimal_steps_asymptotic(phi, n, alpha1=1 / math.sqrt(n)))

    def test_asymptotic_rejects_far_end(self):
        with pytest.raises(DivergentPeriodError):
            optimal_steps_asymptotic(np.pi, 1000)

    def test_asymptotic_rejects_bad_overlap(self):
        with pytest.raises(DegenerateSubspaceError):
            optimal_steps_asymptotic(0.0, 1000, alpha1=1.5)

    def test_asymptotic_rejects_bad_size(self):
        with pytest.raises(InvalidSizeError):
            optimal_steps_asymptotic(0.0, 1)


class TestStabilityExpansion:
    def test_textbook_baseline(self):
        # no detuning leaves the bare quarter-period pi sqrt(n) / 4
        assert stability_expansion(0.0, 10**6) == pytest.approx(250 * np.pi, rel=1e-15)

    def test_quadratic_correction(self):
        assert stability_expansion(0.1, 10**6) == pytest.approx(786.3799111016951, rel=1e-12)

    def test_tracks_exact_period(self):
        # within 1% of the continuous (unfloored) exact optimum
        dphi, n = 0.2, 10**4
        s = eigensystem(reduced_kernel(np.exp(1j * dphi), np.exp(1j * dphi), n))
        exact = np.pi / s.phase_gap
        assert abs(stability_expansion(dphi, n) / exact - 1) <= 0.01


class TestSu2:
    def test_size_two_kernel(self):
        aa = su2_decompose(np.array([[0, -1], [1, 0]], dtype=complex))
        assert aa.global_phase == pytest.approx(0.0, abs=1e-14)
        assert aa.angle == pytest.approx(np.pi / 2)
        assert_allclose(aa.axis, [0, -1, 0], atol=1e-14)

    def test_identity_has_no_axis(self):
        aa = su2_decompose(np.eye(2))
        assert aa.angle == pytest.approx(0.0)
        assert aa.axis is None

    def test_negative_identity(self):
        aa = su2_decompose(-np.eye(2))
        assert aa.angle == pytest.approx(np.pi)
        assert aa.axis is None
        assert_allclose(reconstruct(aa), -np.eye(2), atol=1e-14)

    def test_phase_times_identity(self):
        aa = su2_decompose(1j * np.eye(2))
        assert aa.global_phase == pytest.approx(np.pi / 2)
        assert aa.angle == pytest.approx(0.0)
        assert aa.axis is None

    def test_size_ten_kernel_frozen(self):
        aa = su2_decompose(reduced_kernel(1.0, 1.0, 10))
        assert aa.global_phase == pytest.approx(0.0, abs=1e-14)
        assert aa.angle == pytest.approx(math.acos(-0.8), rel=1e-12)
        assert_allclose(aa.axis, [0, -1, 0], atol=1e-12)

    def test_round_trip_random_kernels(self):
        for _ in range(50):
            k, *_ = random_spec(rng, n_max=10**4)
            aa = su2_decompose(k)
            assert np.max(np.abs(reconstruct(aa) - k.matrix)) <= 1e-10
            if aa.axis is not None:
                assert np.linalg.norm(aa.axis) == pytest.approx(1.0, abs=1e-12)


class TestBatches:
    # The identity member (degenerate), the textbook kernel, balanced and
    # unbalanced pairs, all in one batch.
    BP = [np.pi, 0.0, 0.7, 0.3, -2.0, 3.1, -3.0]
    DP = [np.pi, 0.0, 0.7, -1.1, 2.5, 3.1, 1.0]

    @pytest.mark.parametrize("n", [2, 1000, 10**9])
    def test_eigensystem_rows_do_not_depend_on_the_batch(self, n):
        stack = reduced_kernels(unit_phases(self.BP), unit_phases(self.DP), n)
        batch = eigensystems(stack, n)
        assert batch.degenerate.tolist() == [True] + [False] * 6
        for k in range(len(self.BP)):
            one = eigensystem(ReducedKernel(stack[k], n))
            for name in SpectralData.__dataclass_fields__:
                assert_array_equal(getattr(batch, name)[k], getattr(one, name))
        assert eigensystems(stack).diag_gap is None

    def test_su2_rows_do_not_depend_on_the_batch(self):
        stack = reduced_kernels(unit_phases(self.BP), unit_phases(self.DP), 10)
        batch = su2_decompositions(stack)
        for k in range(len(self.BP)):
            one = su2_decompose(stack[k])
            assert (batch.global_phase[k], batch.angle[k]) == (one.global_phase, one.angle)
            if one.axis is None:
                assert np.isnan(batch.axis[k]).all()
            else:
                assert_array_equal(batch.axis[k], one.axis)

    def test_batch_names_a_non_unitary_matrix(self):
        stack = np.array([np.eye(2), np.eye(2), [[1, 0], [0, 2]]], dtype=complex)
        with pytest.raises(NormalizationError, match=r"^matrix 2 is not unitary"):
            eigensystems(stack)

    def test_overflowing_asymptotic_period_diverges(self):
        with pytest.raises(DivergentPeriodError):
            optimal_steps_asymptotic(3.1415926535897927, 1000, alpha1=1e-300)

    def test_asymptotic_steps_are_elementwise(self):
        phi = np.linspace(-3, 3, 13)
        for alpha1 in (None, 0.1):
            steps = asymptotic_steps(phi, 1000, alpha1)
            assert steps.tolist() == [optimal_steps_asymptotic(p, 1000, alpha1) for p in phi]
        steps = asymptotic_steps([-np.pi, 0.0, np.pi, 3.1415926535897927], 1000, 1e-300)
        assert np.isnan(steps).tolist() == [True, False, True, True]

    @pytest.mark.parametrize("n", [2, 1000, 2**63 - 1])
    def test_asymptotic_gaps_are_elementwise(self, n):
        # The diagonal grid, angles on both sides of the vanishing gap near
        # +-pi (Re sqrt(delta) = cos(phi/2) crosses TOL_EXACT at pi - 2e-12),
        # and random ones; the phases are off the unit circle by rounding.
        edge = np.pi - np.array([1e-12, 1.9e-12, 2e-12, 2.1e-12, 3e-12, 1e-9])
        phi = np.concatenate([np.linspace(-np.pi, np.pi, 2001), edge, -edge,
                              rng.uniform(-np.pi, np.pi, 500)])
        delta = _complex(np.cos(phi), np.sin(phi))
        gaps = asymptotic_gaps(delta, n)
        for d, gap in zip(delta.tolist(), gaps.tolist()):
            try:
                expected = delta_omega_asymptotic(d, n)
            except DivergentPeriodError:
                assert math.isnan(gap), d
                continue
            assert gap == expected == scalar_gap(d, n), d
        assert 0 < np.isnan(gaps).sum() < len(gaps)

    def test_asymptotic_gaps_check_the_phases(self):
        with pytest.raises(NormalizationError, match=r"\|delta\|"):
            asymptotic_gaps([1.0, 1.1], 100)


def scalar_gap(delta, n):
    """The per-phase gap the array form replaced, on Python scalars."""
    r = abs(delta)
    re_root = float(np.sqrt(complex(delta.real / r, delta.imag / r)).real)
    if re_root <= 1e-12:
        raise DivergentPeriodError("gap vanishes")
    return 4.0 * re_root / math.sqrt(n)


def scalar_dephase(m):
    """The per-kernel SU(2) split the batched code replaced, on Python scalars."""
    (a, b), (c, d) = m.tolist()
    lam = cmath.phase(a * d - b * c) / 2
    u = cmath.exp(-1j * lam)
    a, b, c, d = a * u, b * u, c * u, d * u
    return lam, (a + d).real / 2, ((b + c).imag / 2, (b - c).real / 2, a.imag)


def scalar_eigvec(m, z):
    c1 = np.array([m[0, 1], z - m[0, 0]])
    c2 = np.array([z - m[1, 1], m[1, 0]])
    v = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
    v = v / np.linalg.norm(v)
    ref = v[1] if abs(v[1]) > 1e-14 else v[0]
    return v * (abs(ref) / ref)


def scalar_eigensystem(m):
    """(eigphase1, eigphase2, phase_gap, degenerate, eigvec2) by the replaced scalar code."""
    lam, c, sin_axis = scalar_dephase(m)
    s = math.hypot(*sin_axis)
    angle = math.atan2(s, c)
    za, zb = cmath.exp(1j * (lam - angle)), cmath.exp(1j * (lam + angle))
    if 2 * s <= 1e-12:
        return cmath.phase(za), cmath.phase(za), 0.0, True, np.array([0, 1.0 + 0j])
    va, vb = scalar_eigvec(m, za), scalar_eigvec(m, zb)
    ma, mb = abs(va[0]), abs(vb[0])
    swap = ma > mb if max(ma, mb) > 4 * min(ma, mb) else va[0].imag > vb[0].imag
    if swap:
        za, zb, vb = zb, za, va
    return cmath.phase(za), cmath.phase(zb), 2 * math.atan2(s, abs(c)), False, vb


EPS = np.finfo(float).eps


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


class TestScalarReference:
    """The batched code against the per-kernel loop it replaced: the same bits
    wherever the arithmetic is the same.  Eigenvector norms are now summed in
    another order, which can flip the choice between two equally good
    columns, so eigenvectors agree to their conditioning, 16 eps / |z1 - z2|."""

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**9, 10**18])
    def test_eigensystems(self, n):
        t = np.concatenate([rng.uniform(-np.pi, np.pi, (2, 200)),
                            [[np.pi, 0.0, 0.3, 1e-9], [np.pi, 0.0, 0.3, -1e-9]]], axis=1)
        t[1, :100] = t[0, :100]
        stack = reduced_kernels(unit_phases(t[0]), unit_phases(t[1]), n)
        batch = eigensystems(stack, n)
        for k, m in enumerate(stack):
            e1, e2, gap, degenerate, v2 = scalar_eigensystem(m)
            got = (batch.eigphase1[k], batch.eigphase2[k], batch.phase_gap[k])
            assert bits(got) == bits((e1, e2, gap)) and batch.degenerate[k] == degenerate
            det, tr = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], m[0, 0] + m[1, 1]
            assert bits([batch.det[k].real, batch.det[k].imag, batch.trace[k].real,
                         batch.trace[k].imag]) == bits([det.real, det.imag, tr.real, tr.imag])
            sep = abs(batch.eigval1[k] - batch.eigval2[k])
            assert np.max(np.abs(batch.eigvec2[k] - v2)) <= (0 if degenerate else 16 * EPS / sep)

    @pytest.mark.parametrize("n", [4, 10, 10**6])
    def test_manifold(self, n):
        marked = np.array([1.0 + 0j, 0.0])
        u = np.array([1 / np.sqrt(n), np.sqrt((n - 1) / n)], dtype=complex)
        axes = []
        for g in (grover_operator(marked, -1.0, 1.0), grover_operator(u, -1.0, 1.0)):
            _, _, sin_axis = scalar_dephase(1j * g)
            axes.append(np.array(sin_axis) / math.hypot(*sin_axis))

        def rotation(t, axis):
            nx, ny, nz = axis
            return math.cos(t) * np.eye(2) + 1j * math.sin(t) * np.array(
                [[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])

        def product(a, b):
            # In Python complex arithmetic: numpy's matmul follows the BLAS kernel.
            a, b = a.tolist(), b.tolist()
            return np.array([[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                             for i in range(2)])

        g1 = [(np.pi / 2 + 2 * np.pi * i / 9) % (2 * np.pi) for i in range(9)]
        g2 = [(np.pi / 2 + 2 * np.pi * j / 8) % (2 * np.pi) for j in range(8)]
        aa = kernel_manifold_points(np.array(g1)[:, None], g2, n)
        for k, (t1, t2) in enumerate((t1, t2) for t1 in g1 for t2 in g2):
            lam, c, sin_axis = scalar_dephase(-product(rotation(t2, axes[1]),
                                                       rotation(t1, axes[0])))
            s = math.hypot(*sin_axis)
            assert bits([aa.global_phase[k], aa.angle[k]]) == bits([lam, math.atan2(s, c)])
            if s < 1e-9:
                assert np.isnan(aa.axis[k]).all()
            else:
                assert bits(aa.axis[k]) == bits(np.array(sin_axis) / s)


def gap_reference(stack):
    """phase_gap as 2 atan2(sin(angle), |cos(angle)|) at every kernel, from
    the parts ``_dephase`` gives, and 0 where the levels are one."""
    _, _, c, s, _ = spectral._dephase(stack)
    return np.where(2 * s <= spectral.DEGENERACY_TOL, 0.0, 2 * _atan2(s, np.abs(c)))


class TestPhaseGap:
    """eigensystems reuses its atan2(s, c) for the gap wherever c is not
    sign-negative, and calls atan2(s, |c|) only on the rest: the same bits."""

    def test_signed_zero_cos_and_degenerate_kernels(self):
        stack = np.array([
            [[1j, 0], [0, -1j]],  # cos(angle) = +0.0
            [[complex(-0.0, 0.0), 0.6 + 0.8j], [0.6 + 0.8j, complex(-0.0, 0.0)]],  # -0.0
            np.eye(2), -np.eye(2), np.exp(0.3j) * np.eye(2),  # degenerate
            [[0.6, 0.8j], [0.8j, 0.6]], [[-0.6, 0.8j], [0.8j, -0.6]],  # c > 0, c < 0
        ], dtype=complex)
        _, _, c, _, _ = spectral._dephase(stack)
        assert bits(c[:2]) == bits([0.0, -0.0])
        batch = eigensystems(stack)
        assert batch.degenerate.tolist() == [False, False, True, True, True, False, False]
        assert bits(batch.phase_gap) == bits(gap_reference(stack))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
                    min_size=1, max_size=40), st.integers(2, 10**12))
    def test_random_kernels(self, angles, n):
        bp, dp = np.array(angles).T
        stack = reduced_kernels(unit_phases(bp), unit_phases(dp), n)
        assert bits(eigensystems(stack, n).phase_gap) == bits(gap_reference(stack))


def point(aa, i):
    """Row i of a batch of decompositions as one AxisAngle."""
    axis = aa.axis[i]
    return AxisAngle(aa.global_phase[i], aa.angle[i], None if np.isnan(axis[0]) else axis)


class TestManifold:
    def test_central_point_reproduces_kernel(self):
        pt = point(kernel_manifold_points([np.pi / 2], [np.pi / 2], n=10), 0)
        assert np.max(np.abs(reconstruct(pt) - reduced_kernel(1.0, 1.0, 10).matrix)) <= 1e-12
        assert pt.angle == pytest.approx(math.acos(-0.8), rel=1e-10)
        assert_allclose(pt.axis, [0, -1, 0], atol=1e-10)

    def test_zero_angles_give_negative_identity(self):
        pt = point(kernel_manifold_points([0.0], [0.0], n=10), 0)
        assert pt.angle == pytest.approx(np.pi)
        assert pt.axis is None

    def test_row_major_ordering(self):
        # A column of angle1 against a row of angle2 is the grid, angle1 outer.
        grid = kernel_manifold_points(np.array([[0.0], [1.0]]), [0.0, 2.0], n=4)
        for i, (t1, t2) in enumerate([(0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.0, 2.0)]):
            one = kernel_manifold_points([t1], [t2], n=4)
            assert (grid.angle[i], grid.global_phase[i]) == (one.angle[0], one.global_phase[0])
            assert_array_equal(grid.axis[i], one.axis[0])

    def test_grid_decompositions_reconstruct(self):
        g1 = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        g2 = np.linspace(0, 2 * np.pi, 5, endpoint=False)
        aa = kernel_manifold_points(g1[:, None], g2, n=10)
        assert aa.angle.shape == (35,) and aa.axis.shape == (35, 3)
        for i in range(35):
            pt = point(aa, i)
            assert unitarity_residual(reconstruct(pt)) <= 1e-12
            if pt.axis is not None:
                assert np.linalg.norm(pt.axis) == pytest.approx(1.0, abs=1e-12)

    def test_empty_grid(self):
        aa = kernel_manifold_points([], [1.0], n=4)
        assert aa.angle.shape == (0,) and aa.axis.shape == (0, 3)

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidSizeError):
            kernel_manifold_points([0.0], [0.0], n=1)

    def test_reflections_built_once_per_size(self, monkeypatch):
        """The two reflections are built and split once per n, not once per
        call, and the axes kept for n are read-only."""
        built, build = [], spectral.grover_operator
        monkeypatch.setattr(spectral, "grover_operator", lambda *a: built.append(a) or build(*a))
        spectral._reflection_axes.cache_clear()
        first = kernel_manifold_points([0.1, 2.0], [0.3, -1.0], n=37)
        again = kernel_manifold_points([0.1, 2.0], [0.3, -1.0], n=37)
        spectral._reflection_axes.cache_clear()  # drop the entry built under the patch
        assert len(built) == 2
        assert (first.angle.tobytes(), first.axis.tobytes()) == (again.angle.tobytes(),
                                                                 again.axis.tobytes())
        assert not any(axis.flags.writeable for axis in spectral._reflection_axes(37))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.integers(2, 10**5))
@example(bp=3.1415926535897927, dp=3.1415926535897927, n=389)
def test_su2_round_trip_property(bp, dp, n):
    k = reduced_kernel(np.exp(1j * bp), np.exp(1j * dp), n)
    assert np.max(np.abs(reconstruct(su2_decompose(k)) - k.matrix)) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.integers(2, 10**5))
def test_eigensystem_reconstruction_property(bp, dp, n):
    k = reduced_kernel(np.exp(1j * bp), np.exp(1j * dp), n)
    s = eigensystem(k)
    if s.degenerate:
        assert abs(s.eigval1 - s.eigval2) <= 1e-10
        return
    v = np.column_stack([s.eigvec1, s.eigvec2])
    rebuilt = v @ np.diag([s.eigval1, s.eigval2]) @ v.conj().T
    assert np.max(np.abs(rebuilt - k.matrix)) <= 1e-8
