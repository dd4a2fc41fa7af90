import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from groverlab.algebra import dft_matrix, outer, unitarity_residual
from groverlab.errors import (
    DegenerateSubspaceError,
    InvalidSizeError,
    NormalizationError,
    ResourceLimitError,
)
from groverlab.kernel import (
    FullSpaceConfig,
    GroverPhases,
    ReducedKernel,
    _phase_rotations,
    dft_conjugate,
    extended_reduced_kernel,
    full_kernel,
    grover_operator,
    momentum_projector,
    reduced_kernel,
    unit_phases,
)

rng = np.random.default_rng(7)


def random_phase(r):
    t = r.uniform(-np.pi, np.pi)
    return complex(np.cos(t), np.sin(t))


class TestGroverPhases:
    def test_defaults_fix_reflection_signs(self):
        ph = GroverPhases(beta=1.0, delta=1j)
        assert ph.alpha == -1.0
        assert ph.gamma == -1.0

    def test_from_angles(self):
        ph = GroverPhases.from_angles(0.0, np.pi / 2)
        assert_allclose(ph.beta, 1.0, atol=1e-15)
        assert_allclose(ph.delta, 1j, atol=1e-15)
        assert_allclose(ph.phi, np.pi / 2, atol=1e-15)

    def test_phi_is_principal(self):
        assert GroverPhases(1.0, -1.0).phi == pytest.approx(np.pi)
        assert GroverPhases(1.0, np.exp(-1j)).phi == pytest.approx(-1.0)

    def test_snaps_near_unit_values(self):
        ph = GroverPhases(beta=1.0 + 1e-10, delta=1.0)
        assert abs(ph.beta) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_unit_modulus(self):
        with pytest.raises(NormalizationError):
            GroverPhases(beta=1.1, delta=1.0)
        with pytest.raises(NormalizationError):
            GroverPhases(complex("nan"), 1)


class TestGroverOperator:
    def test_marked_state_reflection(self):
        e0 = np.array([1.0, 0.0])
        assert_allclose(grover_operator(e0, -1, 1), np.diag([-1.0, 1.0]), atol=1e-15)

    def test_trivial_eigenvalues_give_identity(self):
        v = np.array([0.6, 0.8])
        assert_allclose(grover_operator(v, 1, 1), np.eye(2), atol=1e-15)

    def test_uniform_direction_two_dim(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert_allclose(grover_operator(v, -1, 1), [[0, -1], [-1, 0]], atol=1e-15)

    def test_reflection_is_involutive(self):
        r = np.random.default_rng(3)
        v = r.normal(size=5) + 1j * r.normal(size=5)
        v /= np.linalg.norm(v)
        g = grover_operator(v, -1, 1)
        assert_allclose(g @ g, np.eye(5), atol=1e-12)

    def test_rejects_unnormalized_direction(self):
        with pytest.raises(NormalizationError):
            grover_operator(np.array([1.0, 1.0]), -1, 1)

    def test_rejects_non_unit_eigenvalue(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(NormalizationError):
            grover_operator(v, 0.5, 1)


class TestReducedKernel:
    def test_size_two_standard(self):
        k = reduced_kernel(1.0, 1.0, 2)
        assert_allclose(k.matrix, [[0, -1], [1, 0]], atol=1e-15)
        assert k.size == 2

    def test_size_four_standard(self):
        k = reduced_kernel(1.0, 1.0, 4)
        s3 = np.sqrt(3)
        expected = np.array([[-1, -s3], [s3, -1]]) / 2
        assert_allclose(k.matrix, expected, atol=1e-15)

    def test_trivial_family_member_is_identity(self):
        k = reduced_kernel(-1.0, -1.0, 17)
        assert_allclose(k.matrix, np.eye(2), atol=1e-15)

    def test_determinant_is_phase_product(self):
        for _ in range(50):
            b, d = random_phase(rng), random_phase(rng)
            n = int(rng.integers(2, 2000))
            k = reduced_kernel(b, d, n)
            assert abs(np.linalg.det(k.matrix) - b * d) <= 1e-12

    def test_unitary_over_random_draws(self):
        for _ in range(50):
            k = reduced_kernel(random_phase(rng), random_phase(rng),
                               int(rng.integers(2, 10**6)))
            assert unitarity_residual(k.matrix) <= 1e-12

    def test_rejects_undersized_list(self):
        with pytest.raises(InvalidSizeError):
            reduced_kernel(1.0, 1.0, 1)

    def test_matrix_is_write_locked_and_detached(self):
        src = np.array([[0, -1], [1, 0]], dtype=complex)
        k = ReducedKernel(src, size=2)
        with pytest.raises(ValueError):
            k.matrix[0, 0] = 5
        src[0, 0] = 5  # caller's buffer must stay writable
        assert k.matrix[0, 0] == 0
        for kernel in (k, ReducedKernel.from_angles(0.3, -1.1, 2)):
            with pytest.raises(ValueError):
                kernel.form[5][0, 0] = 5

    def test_rejects_non_unitary_block(self):
        with pytest.raises(NormalizationError):
            ReducedKernel(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidSizeError):
            ReducedKernel(np.eye(3))


class TestExtendedKernel:
    def test_matches_uniform_reduction(self):
        for n in (4, 16, 64, 256, 1024):
            b, d = random_phase(rng), random_phase(rng)
            ext = extended_reduced_kernel(b, d, 1 / np.sqrt(n))
            std = reduced_kernel(b, d, n)
            assert np.max(np.abs(ext.matrix - std.matrix)) <= 1e-12
            assert ext.size is None

    def test_half_overlap_equals_size_four(self):
        ext = extended_reduced_kernel(1.0, 1.0, 0.5)
        std = reduced_kernel(1.0, 1.0, 4)
        assert_allclose(ext.matrix, std.matrix, atol=1e-15)

    def test_unitary_and_determinant(self):
        for _ in range(30):
            b, d = random_phase(rng), random_phase(rng)
            a1 = rng.uniform(0.05, 0.95)
            k = extended_reduced_kernel(b, d, a1)
            assert unitarity_residual(k.matrix) <= 1e-12
            assert abs(np.linalg.det(k.matrix) - b * d) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_collapsed_plane(self, bad):
        with pytest.raises(DegenerateSubspaceError):
            extended_reduced_kernel(1.0, 1.0, bad)


class TestKernelFormulas:
    """The kernels carry the bits of their formulas, written here with Python
    complex arithmetic."""

    ANGLES = np.concatenate([rng.uniform(-np.pi, np.pi, 60), [0.0, -0.0, np.pi, -np.pi]])

    def test_unit_phases_match_grover_phases(self):
        z = unit_phases(self.ANGLES)
        snapped = [complex(np.cos(t), np.sin(t)) for t in self.ANGLES]
        want = np.array([w / abs(w) for w in snapped])
        assert_array_equal(z.view(np.uint64), want.view(np.uint64))
        beta = np.array([GroverPhases.from_angles(t, 0.0).beta for t in self.ANGLES])
        assert_array_equal(beta.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 1000, 10**9, 2**63 - 1])
    def test_reduced_kernel_is_the_formula(self, n):
        beta, delta = unit_phases(self.ANGLES), unit_phases(self.ANGLES[::-1])
        for b, d in zip(beta.tolist(), delta.tolist()):
            s = np.sqrt(n - 1)
            m = np.array([[1 + d * (1 - n), -b * (1 + d) * s],
                          [(1 + d) * s, b * (1 + d - n)]]) / n
            assert_array_equal(reduced_kernel(b, d, n).matrix.view(np.uint64), m.view(np.uint64))

    def test_extended_kernel_is_the_formula(self):
        beta, delta = unit_phases(self.ANGLES), unit_phases(self.ANGLES[::-1])
        a1 = 0.3
        for b, d in zip(beta.tolist(), delta.tolist()):
            big_d, c = 1 + d, np.sqrt(1 - a1 * a1)
            m = np.array([[-d + big_d * a1**2, -b * big_d * a1 * c],
                          [big_d * a1 * c, b * (big_d * a1**2 - 1)]])
            got = extended_reduced_kernel(b, d, a1).matrix
            assert_array_equal(got.view(np.uint64), m.view(np.uint64))

    def test_refuses_a_phase_off_the_circle(self):
        with pytest.raises(NormalizationError, match=r"\|beta\| is 2"):
            reduced_kernel(2.0, 1.0, 10)
        with pytest.raises(InvalidSizeError):
            reduced_kernel(1.0, 1.0, 1)


class TestFromAngles:
    """ReducedKernel.from_angles: the kernel of the phase angles, with its
    SU(2) form in closed form (its 50-digit accuracy is in
    test_spectral_reference.py)."""

    ANGLES = rng.uniform(-np.pi, np.pi, (2, 20)).T.tolist() + [(np.pi, -np.pi), (3.0, -3.0)]

    @pytest.mark.parametrize("n", [2, 1000, 10**9])
    def test_matrix_is_the_units_kernel(self, n):
        for bp, dp in self.ANGLES:
            k = ReducedKernel.from_angles(bp, dp, n)
            want = reduced_kernel(*unit_phases([bp, dp]), n)
            assert k.size == n and np.abs(k.matrix - want.matrix).max() <= 2e-15
            ext = ReducedKernel.from_angles(bp, dp, alpha1=1 / np.sqrt(n))
            assert ext.size is None and np.abs(ext.matrix - want.matrix).max() <= 2e-15

    def test_phases_taken_less_their_turns(self):
        k = ReducedKernel.from_angles(0.3 + 4 * np.pi, -1.1, 100)
        want = ReducedKernel.from_angles(0.3, -1.1, 100)
        assert np.abs(k.matrix - want.matrix).max() <= 1e-14

    def test_form_is_kept(self):
        """The kernel carries _phase_rotations' form of its angles, bit for bit,
        not the form of its rounded matrix."""
        k = ReducedKernel.from_angles(0.5, 0.500001, 10**12)
        want = _phase_rotations(np.array([0.5]), np.array([0.500001]), 10**12)
        for got, part in zip(k.form, want):
            assert_array_equal(got.view(np.uint64), part.view(np.uint64))
        assert ReducedKernel(k.matrix, k.size).form[5][2] != want[5][2]

    def test_form_is_not_a_constructor_argument(self):
        """A caller cannot pair a matrix with another kernel's form."""
        k = ReducedKernel.from_angles(0.3, -1.1, 10)
        with pytest.raises(TypeError):
            ReducedKernel(k.matrix, k.size, form=k.form)

    def test_refusals(self):
        with pytest.raises(InvalidSizeError):
            ReducedKernel.from_angles(0.0, 0.0)
        with pytest.raises(InvalidSizeError):
            ReducedKernel.from_angles(0.0, 0.0, 1)
        with pytest.raises(DegenerateSubspaceError):
            ReducedKernel.from_angles(0.0, 0.0, alpha1=1.0)


class TestMomentumProjector:
    def test_zero_wavenumber_is_uniform(self):
        assert_allclose(momentum_projector(0, 3), np.full((3, 3), 1 / 3), atol=1e-15)

    def test_alternating_size_two(self):
        assert_allclose(momentum_projector(1, 2),
                        [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_projector_identities(self):
        for y0, n in [(1, 4), (3, 7), (5, 16)]:
            p = momentum_projector(y0, n)
            assert_allclose(p, p.conj().T, atol=1e-14)
            assert_allclose(p @ p, p, atol=1e-14)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)

    def test_matches_transformed_coordinate_projector(self):
        # the forward transform of |y0><y0| must land exactly here
        for y0, n in [(0, 2), (1, 2), (1, 4), (2, 5), (7, 16)]:
            e = np.zeros(n, dtype=complex)
            e[y0] = 1.0
            assert np.max(np.abs(momentum_projector(y0, n)
                                 - dft_conjugate(outer(e, e)))) <= 1e-12

    def test_rejects_out_of_range_wavenumber(self):
        with pytest.raises(IndexError):
            momentum_projector(4, 4)
        with pytest.raises(IndexError):
            momentum_projector(-1, 4)


class TestFullKernel:
    def test_size_two_standard(self):
        cfg = FullSpaceConfig(size=2, marked=0, k0=np.full(2, 1 / np.sqrt(2)))
        assert_allclose(full_kernel(cfg), [[0, -1], [1, 0]], atol=1e-15)

    def test_trivial_phases_give_identity(self):
        ph = GroverPhases(beta=1.0, delta=1.0, alpha=1.0, gamma=1.0)
        cfg = FullSpaceConfig(size=5, marked=2, k0=np.full(5, 1 / np.sqrt(5)),
                              phases=ph)
        assert_allclose(full_kernel(cfg), np.eye(5), atol=1e-14)

    def test_matches_operator_product(self):
        r = np.random.default_rng(11)
        for _ in range(20):
            n = int(r.integers(2, 40))
            marked = int(r.integers(0, n))
            k0 = r.normal(size=n) + 1j * r.normal(size=n)
            k0 /= np.linalg.norm(k0)
            ph = GroverPhases(beta=random_phase(r), delta=random_phase(r))
            cfg = FullSpaceConfig(size=n, marked=marked, k0=k0, phases=ph)
            e = np.zeros(n, dtype=complex)
            e[marked] = 1.0
            g1 = grover_operator(e, ph.alpha, ph.beta)
            g2 = grover_operator(k0, ph.gamma, ph.delta)
            assert np.max(np.abs(full_kernel(cfg) - g2 @ g1)) <= 1e-12

    def test_restriction_to_search_plane(self):
        # columns of the embedded plane basis reproduce the 2x2 block
        n, marked = 8, 3
        b, d = np.exp(0.3j), np.exp(-1.1j)
        cfg = FullSpaceConfig(size=n, marked=marked, k0=np.full(n, 1 / np.sqrt(n)),
                              phases=GroverPhases(beta=b, delta=d))
        big = full_kernel(cfg)
        x0 = np.zeros(n, dtype=complex)
        x0[marked] = 1.0
        xp = np.full(n, 1 / np.sqrt(n - 1), dtype=complex)
        xp[marked] = 0.0
        basis = np.column_stack([x0, xp])
        block = basis.conj().T @ big @ basis
        assert np.max(np.abs(block - reduced_kernel(b, d, n).matrix)) <= 1e-12

    def test_unitary_with_momentum_direction(self):
        n = 16
        k0 = dft_matrix(n)[:, 5]
        cfg = FullSpaceConfig(size=n, marked=0, k0=k0,
                              phases=GroverPhases(beta=1j, delta=np.exp(0.7j)))
        assert unitarity_residual(full_kernel(cfg)) <= 1e-12

    def test_momentum_conjugation_identity(self):
        # conjugating the coordinate-basis second factor into momentum space
        # reproduces the kernel built directly from the momentum direction
        n, y0 = 8, 2
        ph = GroverPhases(beta=np.exp(0.4j), delta=np.exp(-0.9j))
        e_marked = np.zeros(n, dtype=complex)
        e_marked[0] = 1.0
        e_y = np.zeros(n, dtype=complex)
        e_y[y0] = 1.0
        g1 = grover_operator(e_marked, ph.alpha, ph.beta)
        g2_coord = grover_operator(e_y, ph.gamma, ph.delta)
        cfg = FullSpaceConfig(size=n, marked=0, k0=dft_matrix(n)[:, y0], phases=ph)
        assert np.max(np.abs(full_kernel(cfg) - dft_conjugate(g2_coord) @ g1)) <= 1e-12

    def test_resource_limit(self):
        n = 8192
        with pytest.raises(ResourceLimitError):
            full_kernel(FullSpaceConfig(size=n, marked=0,
                                        k0=np.full(n, 1 / np.sqrt(n))))

    def test_config_validation(self):
        with pytest.raises(IndexError):
            FullSpaceConfig(size=4, marked=4, k0=np.full(4, 0.5))
        with pytest.raises(NormalizationError):
            FullSpaceConfig(size=4, marked=0, k0=np.ones(4))
        with pytest.raises(InvalidSizeError):
            FullSpaceConfig(size=4, marked=0, k0=np.full(5, 1 / np.sqrt(5)))
        with pytest.raises(InvalidSizeError):
            FullSpaceConfig(size=1, marked=0, k0=np.array([1.0]))


class TestDftConjugate:
    def test_identity_fixed(self):
        assert_allclose(dft_conjugate(np.eye(3)), np.eye(3), atol=1e-14)

    def test_coordinate_projector_spreads(self):
        e = np.zeros(4, dtype=complex)
        e[0] = 1.0
        assert_allclose(dft_conjugate(outer(e, e)), np.full((4, 4), 0.25), atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidSizeError):
            dft_conjugate(np.ones((2, 3)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.integers(2, 10**6))
def test_reduced_kernel_always_unitary(bp, dp, n):
    k = reduced_kernel(np.exp(1j * bp), np.exp(1j * dp), n)
    assert unitarity_residual(k.matrix) <= 1e-12
