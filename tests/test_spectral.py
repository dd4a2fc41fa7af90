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
from groverlab.kernel import (ReducedKernel, _dephase, extended_reduced_kernel, grover_operator,
                              reduced_kernel, unit_phases)
from groverlab.spectral import (
    AxisAngle,
    _spectra,
    asymptotic_gaps,
    asymptotic_steps,
    eigensystem,
    asymptotic_eigvec,
    delta_omega_asymptotic,
    kernel_manifold_points,
    optimal_steps_asymptotic,
    optimal_steps_exact,
    phase_spectra,
    stability_expansion,
    su2_decompose,
)

rng = np.random.default_rng(19)


def random_phase(r):
    t = r.uniform(-np.pi, np.pi)
    return complex(np.cos(t), np.sin(t))


def random_spec(r, n_max=10**6):
    b, d = random_phase(r), random_phase(r)
    n = int(r.integers(2, n_max))
    return reduced_kernel(b, d, n), b, d, n


def kernel_stack(bp, dp, n):
    """``reduced_kernel``'s formula over arrays of phase angles bp and dp, as
    one (K, 2, 2) stack of kernel matrices."""
    beta, delta = unit_phases(bp), unit_phases(dp)
    s = math.sqrt(n - 1)
    entries = [1 + delta * (1 - n), -beta * (1 + delta) * s, (1 + delta) * s,
               beta * (1 + delta - n)]
    return np.stack(entries, axis=-1).reshape(-1, 2, 2) / n


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
    def test_phase_spectra_rows_are_eigensystems_of_the_angles(self, n):
        """Each row of ``phase_spectra`` has the bits of ``eigensystem`` of
        ``ReducedKernel.from_angles`` at its phases: both are the one step of
        the same SU(2) form."""
        batch = phase_spectra(self.BP, self.DP, n)
        assert batch.degenerate.tolist() == [True] + [False] * 6
        assert batch.eigval1 is batch.eigvec1 is None
        for k, (bp, dp) in enumerate(zip(self.BP, self.DP)):
            one = eigensystem(ReducedKernel.from_angles(bp, dp, n))
            for name in ("det", "trace", "eigphase1", "eigphase2", "phase_gap", "diag_gap",
                         "degenerate"):
                assert_array_equal(getattr(batch, name)[k], getattr(one, name))
        assert phase_spectra(self.BP, self.DP, alpha1=0.3).diag_gap is None

    def test_su2_of_angles_is_the_kernel(self):
        """``su2_decompose`` of a kernel from its angles rebuilds that kernel
        and ``reduced_kernel``'s, to rounding."""
        for bp, dp in zip(self.BP, self.DP):
            k = ReducedKernel.from_angles(bp, dp, 10)
            want = reduced_kernel(*unit_phases([bp, dp]), 10).matrix
            assert np.abs(reconstruct(su2_decompose(k)) - k.matrix).max() <= 4 * EPS
            assert np.abs(k.matrix - want).max() <= 4 * EPS

    @pytest.mark.parametrize("bp, dp", [(2.5, 2.5), (-2.5, -2.4), (3.0, -3.0), (1e6, 1e6),
                                        (1e6, 1e6 + 1e-3), (0.3, -1.1)])
    def test_su2_of_angles_is_the_matrix_decomposition(self, bp, dp):
        """A kernel from its angles decomposes as its matrix does: the global
        phase in (-pi/2, pi/2], and the angle and axis with it."""
        k = ReducedKernel.from_angles(bp, dp, 10)
        got, want = su2_decompose(k), su2_decompose(k.matrix)
        assert -np.pi / 2 < got.global_phase <= np.pi / 2
        assert abs(got.global_phase - want.global_phase) <= 8 * EPS
        assert abs(got.angle - want.angle) <= 8 * EPS
        assert np.abs(got.axis - want.axis).max() <= 8 * EPS

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

    def test_asymptotic_steps_check_size_and_overlap(self):
        with pytest.raises(DegenerateSubspaceError):
            asymptotic_steps(0.1, 10, alpha1=-0.5)
        with pytest.raises(InvalidSizeError):
            asymptotic_steps(0.1, 1)

    def test_asymptotic_gaps_check_the_size(self):
        with pytest.raises(InvalidSizeError):
            asymptotic_gaps(1, -4)

    def test_stability_expansion_checks_the_size(self):
        with pytest.raises(InvalidSizeError):
            stability_expansion(0.1, -3)

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


def scalar_phase_spectrum(bp, dp, n, alpha1):
    """(det, trace, eigphase1, eigphase2, phase_gap, degenerate, diag_gap) of
    ``phase_spectra``'s closed form, in Python math, one kernel at a time."""
    bp, dp = float(bp), float(dp)
    if alpha1 is None:
        w, rest, r = 1 / n, (n - 1) / n, math.sqrt(n - 1) / n
    else:
        w, rest = alpha1 * alpha1, 1 - alpha1 * alpha1
        r = alpha1 * math.sqrt(rest)
    d, scale = dp - bp, -2 * r
    if abs(d) > math.pi:  # across the cut: 2 pi from the difference, and the sign turned
        side = math.copysign(1.0, dp)
        d, scale = (dp - side * 2 * math.pi) - bp - side * 2.4492935982947064e-16, 2 * r
    h = d / 2
    lam = bp + h
    cos_lam = math.cos(bp) * math.cos(h) - math.sin(bp) * math.sin(h)
    sin_lam = math.sin(bp) * math.cos(h) + math.cos(bp) * math.sin(h)
    cos = w * cos_lam - rest * math.cos(h)
    x = scale * math.cos(dp / 2) * math.sin(bp / 2)
    y = scale * math.cos(dp / 2) * math.cos(bp / 2)
    z = -(w * sin_lam + rest * math.sin(h))
    sin = math.sqrt(x * x + y * y + z * z)
    folded = math.atan2(sin, abs(cos))
    angle = math.pi - folded if cos < 0 else folded
    degenerate = 2 * sin <= 1e-12
    plus_first = not degenerate and ((z < 0) if abs(z) > 15 / 17 * sin else (y > 0))
    minus, plus = (math.remainder(lam - angle, 2 * math.pi),
                   math.remainder(lam + angle, 2 * math.pi))
    minus, plus = (math.pi if t == -math.pi else t for t in (minus, plus))
    e1, e2 = (plus, minus) if plus_first else (minus, minus if degenerate else plus)
    twice_n = 2.0 * n if alpha1 is None else None
    diag_gap = None if alpha1 else complex(-twice_n * z * sin_lam, twice_n * z * cos_lam)
    return (complex(math.cos(bp + dp), math.sin(bp + dp)),
            complex(2 * cos * cos_lam, 2 * cos * sin_lam), e1, e2,
            0.0 if degenerate else 2 * folded, degenerate, diag_gap)


def scalar_manifold_point(t1, t2, n):
    """(angle, axis) of ``kernel_manifold_points``' quaternion product, in
    Python math, from the reflection axes read off ``grover_operator``."""
    u = np.array([1 / math.sqrt(n), math.sqrt((n - 1) / n)], dtype=complex)
    b, a = grover_operator(u, -1.0, 1.0)[0].real.tolist()
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    cos = -(c1 * c2 + s1 * s2 * b)
    sin_axis = [-a * (c1 * s2), a * s1 * s2, c2 * s1 - b * (c1 * s2)]
    sin = math.sqrt(sin_axis[0] ** 2 + sin_axis[1] ** 2 + sin_axis[2] ** 2)
    folded = math.atan2(sin, abs(cos))
    axis = [x / sin if sin >= 1e-9 else math.nan for x in sin_axis]
    return (math.pi - folded if cos < 0 else folded), axis


def complex_bits(x):
    """The bits of a float, a complex number's parts or a bool; None stays None."""
    if x is None or isinstance(x, (bool, np.bool_)):
        return x
    return bits([complex(x).real, complex(x).imag])


EPS = np.finfo(float).eps


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


class TestScalarReference:
    """The array code against per-kernel Python: the one spectral step of a
    matrix's SU(2) form against the scalar loop and eigenvector rule it
    replaced, and the closed forms of ``phase_spectra`` and
    ``kernel_manifold_points`` against their twins in ``math``.  The same
    bits wherever the arithmetic is the same.  The step takes the angle from
    the root of the sum of squares, and pi less the folded angle where cos <
    0, so the eigenphases and the gap agree to rounding; the eigenvectors
    come from the axis, not from the matrix's columns, and agree component
    by component to their conditioning, 16 eps / |z1 - z2| for the
    direction and eps / |ref| more for the phase that the component ref
    turned real fixes."""

    @pytest.mark.parametrize("n", [2, 10, 1000, 10**9, 10**18])
    def test_eigensystems(self, n):
        t = np.concatenate([rng.uniform(-np.pi, np.pi, (2, 300)),
                            [[np.pi, 0.0, 0.3, 1e-9], [np.pi, 0.0, 0.3, -1e-9]]], axis=1)
        t[1, :100] = t[0, :100]  # balanced
        t[1, 100:200] = t[0, 100:200] + rng.normal(0, 1 / math.sqrt(n), 100)  # near-balanced
        stack = kernel_stack(t[0], t[1], n)
        batch, *_ = _spectra(_dephase(stack), n)
        for k, m in enumerate(stack):
            e1, e2, gap, degenerate, v2 = scalar_eigensystem(m)
            assert batch.degenerate[k] == degenerate, k
            got, gap_k = (batch.eigphase1[k], batch.eigphase2[k]), batch.phase_gap[k]
            on_circle = [abs(math.remainder(g - w, 2 * np.pi)) for g, w in zip(got, (e1, e2))]
            assert max(on_circle) <= 8 * EPS and abs(gap_k - gap) <= 4 * EPS * gap, k
            det, tr = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], m[0, 0] + m[1, 1]
            assert complex_bits(batch.det[k]) == complex_bits(det)
            assert abs(batch.trace[k] - tr) <= 4 * EPS
            one = eigensystem(ReducedKernel(m, n))
            assert bits([one.eigphase1, one.eigphase2, one.phase_gap]) == bits([*got, gap_k])
            if degenerate:
                assert np.array_equal(one.eigvec2, v2)
                continue
            # The direction, with v2's phase turned to the new one's, to its
            # conditioning; and every component, to that and the phase
            # convention's: the component turned real, ref, sets the phase
            # to within eps / |ref|, which the old vector takes from the float
            # matrix's column and the new one from the unitary form.  Where
            # |ref| >= 1/2, as in every balanced kernel, the componentwise
            # bound is 16 eps / |z1 - z2| or less.
            sep, overlap = abs(one.eigval1 - one.eigval2), np.vdot(v2, one.eigvec2)
            turned = v2 * (overlap / abs(overlap))
            assert np.max(np.abs(one.eigvec2 - turned)) <= 16 * EPS / sep, k
            ref = abs(v2[1]) if abs(v2[1]) > 1e-14 else abs(v2[0])
            assert np.max(np.abs(one.eigvec2 - v2)) <= 8 * EPS / (sep * ref), k

    @pytest.mark.parametrize("n", [4, 10, 10**6])
    def test_manifold(self, n):
        g1 = [(np.pi / 2 + 2 * np.pi * i / 9) % (2 * np.pi) for i in range(9)]
        g2 = [(np.pi / 2 + 2 * np.pi * j / 8) % (2 * np.pi) for j in range(8)]
        aa = kernel_manifold_points(np.array(g1)[:, None], g2, n)
        assert bits(aa.global_phase) == bits(np.zeros(72))
        for k, (t1, t2) in enumerate((t1, t2) for t1 in g1 for t2 in g2):
            angle, axis = scalar_manifold_point(t1, t2, n)
            assert bits(aa.angle[k]) == bits(angle)
            assert bits(aa.axis[k]) == bits(axis)

    @pytest.mark.parametrize("n, alpha1", [(2, None), (10, None), (1000, None), (10**9, None),
                                           (2**63 - 1, None), (None, 0.3), (None, 1e-9)])
    def test_phase_spectra(self, n, alpha1):
        bp, dp = rng.uniform(-np.pi, np.pi, (2, 300))
        dp[:100] = bp[:100]  # balanced
        dp[100:200] = bp[100:200] + rng.normal(0, 1e-6, 100)  # near-balanced
        dp[:4] = bp[:4] = [np.pi, -np.pi, 0.0, 3.0]
        bp[200:204], dp[200:204] = [np.pi, -np.pi, 3.14, -3.14], [-3.1415, 3.1415, -3.14, 3.14]
        batch = phase_spectra(bp, dp, n, alpha1)
        for k in range(len(bp)):
            want = scalar_phase_spectrum(bp[k], dp[k], n, alpha1)
            got = [batch.det[k], batch.trace[k], batch.eigphase1[k], batch.eigphase2[k],
                   batch.phase_gap[k], batch.degenerate[k],
                   None if alpha1 else batch.diag_gap[k]]
            assert [complex_bits(x) for x in got] == [complex_bits(x) for x in want], k

    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 10**6, 10**9])
    def test_phase_spectra_order(self, n):
        """phase_spectra orders the eigenphases from the angles' axis as the
        step orders a kernel matrix's (``_dephase``'s axis), which
        test_eigensystems holds to the old |v0| rule, on 20000 random
        non-degenerate kernels per size."""
        r = np.random.default_rng(n)
        bp, dp = r.uniform(-np.pi, np.pi, (2, 20000))
        dp[:5000] = bp[:5000]
        dp[5000:10000] = bp[5000:10000] + r.normal(0, 1 / math.sqrt(n), 5000)
        old, *_ = _spectra(_dephase(kernel_stack(bp, dp, n)), n)
        new = phase_spectra(bp, dp, n)
        assert (new.degenerate == old.degenerate).all()
        live = ~old.degenerate & (old.phase_gap > 1e-8)
        assert live.sum() > 19000
        distance = np.abs(np.remainder(new.eigphase1 - old.eigphase1 + np.pi, 2 * np.pi) - np.pi)
        assert distance[live].max() <= 1e-9


def gap_reference(stack):
    """phase_gap as 2 atan2(sin(angle), |cos(angle)|) at every kernel, from
    the parts ``_dephase`` gives, and 0 where the levels are one."""
    *_, c, (x, y, z) = _dephase(stack)
    s = np.sqrt(x * x + y * y + z * z)
    return np.where(2 * s <= spectral.DEGENERACY_TOL, 0.0, 2 * _atan2(s, np.abs(c)))


class TestPhaseGap:
    """The step's phase_gap is 2 atan2(sin, |cos|) at every kernel, bit for
    bit, signed zeros of cos and degenerate kernels included."""

    def test_signed_zero_cos_and_degenerate_kernels(self):
        stack = np.array([
            [[1j, 0], [0, -1j]],  # cos(angle) = +0.0
            [[complex(-0.0, 0.0), 0.6 + 0.8j], [0.6 + 0.8j, complex(-0.0, 0.0)]],  # -0.0
            np.eye(2), -np.eye(2), np.exp(0.3j) * np.eye(2),  # degenerate
            [[0.6, 0.8j], [0.8j, 0.6]], [[-0.6, 0.8j], [0.8j, -0.6]],  # c > 0, c < 0
        ], dtype=complex)
        c = _dephase(stack)[4]
        assert bits(c[:2]) == bits([0.0, -0.0])
        batch, *_ = _spectra(_dephase(stack), None)
        assert batch.degenerate.tolist() == [False, False, True, True, True, False, False]
        assert bits(batch.phase_gap) == bits(gap_reference(stack))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
                    min_size=1, max_size=40), st.integers(2, 10**12))
    def test_random_kernels(self, angles, n):
        stack = kernel_stack(*np.array(angles).T, n)
        assert bits(_spectra(_dephase(stack), n)[0].phase_gap) == bits(gap_reference(stack))


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
