import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groverlab.algebra import (
    TOL_EXACT,
    as_matrix,
    as_vector,
    dft_matrix,
    outer,
    require_unitary,
    unitarity_residual,
)
from groverlab.errors import InvalidSizeError, NormalizationError, ShapeError
from groverlab.evolution import InitialState
from groverlab.kernel import FullSpaceConfig, ReducedKernel, reduced_kernel
from groverlab.spectral import (asymptotic_eigvec, asymptotic_gaps, asymptotic_steps,
                                delta_omega_asymptotic, kernel_manifold_points,
                                optimal_steps_asymptotic, stability_expansion)

rng = np.random.default_rng(42)


def test_dft_size_one_is_identity():
    assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)


def test_dft_size_two():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_size_four_second_column():
    # column x=1 carries one full winding: (1, i, -1, -i)/2
    col = dft_matrix(4)[:, 1]
    assert_allclose(col, np.array([1, 1j, -1, -1j]) / 2, atol=1e-15)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_dft_unitary(n):
    assert unitarity_residual(dft_matrix(n)) <= TOL_EXACT


def test_dft_rejects_size_zero():
    with pytest.raises(InvalidSizeError):
        dft_matrix(0)


def test_is_unitary_identity():
    assert unitarity_residual(as_matrix(np.eye(3))) <= 1e-12


def test_is_unitary_rejects_scaling():
    assert not unitarity_residual(as_matrix([[1, 0], [0, 2]])) <= 1e-12


def test_unitarity_residual_of_a_stack():
    stack = np.array([np.eye(2), 2 * np.eye(2), dft_matrix(2)], dtype=complex)
    resid = unitarity_residual(stack)
    assert resid.shape == (3,)
    assert resid[0] == 0.0 and resid[1] == 3.0 and resid[2] <= 1e-15
    assert unitarity_residual(stack[1]) == 3.0

    # Each matrix of a stack gets its own residual, the matrix product's,
    # NaN included.
    def by_product(a):
        return np.abs(np.swapaxes(a.conj(), -1, -2) @ a - np.eye(2)).max(axis=(-2, -1))
    draw = np.random.default_rng(3)
    z = draw.normal(size=(200, 2, 2)) + 1j * draw.normal(size=(200, 2, 2))
    unitary = np.linalg.qr(z)[0]
    with_nan = unitary[:4].copy()
    with_nan[2, 1, 0] = np.nan
    for a in (unitary, unitary + 1e-6 * z, z, 2 * np.eye(2, dtype=complex)[None],
              with_nan, np.empty((0, 2, 2), complex)):
        resid = unitarity_residual(a)
        assert resid.shape == (len(a),)
        assert_allclose(resid, by_product(a), rtol=1e-14, atol=1e-15)
    assert np.isnan(unitarity_residual(with_nan)).tolist() == [False, False, True, False]


def test_require_unitary_names_the_worst_matrix():
    stack = np.array([np.eye(2), 1.5 * np.eye(2), 2 * np.eye(2), np.eye(2)], dtype=complex)
    with pytest.raises(NormalizationError,
                       match=r"^kernel 2 is not unitary \(residual 3\.000e\+00\)"):
        require_unitary(stack, TOL_EXACT, "kernel")
    with pytest.raises(NormalizationError, match=r"^kernel is not unitary"):
        require_unitary(stack[1], TOL_EXACT, "kernel")
    stack[3, 0, 0] = np.nan
    with pytest.raises(NormalizationError, match=r"^kernel 3 "):
        require_unitary(stack, TOL_EXACT, "kernel")
    require_unitary(stack[:1], TOL_EXACT, "kernel")
    require_unitary(stack[:0], TOL_EXACT, "kernel")


def test_outer_projector():
    e0 = np.array([1.0, 0.0])
    assert_allclose(outer(e0, e0), [[1, 0], [0, 0]], atol=1e-15)


def test_adjoint_inverts_dft():
    u = dft_matrix(4)
    assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_adjoint_involution_exact():
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(m.conj().T.conj().T, m)


def test_shape_mismatches_raise():
    with pytest.raises(ShapeError):
        as_vector(np.eye(2))
    with pytest.raises(ShapeError):
        as_matrix(np.ones(3))


def test_non_finite_entries_rejected():
    with pytest.raises(ShapeError):
        as_vector(np.array([np.nan, 0.0]))
    with pytest.raises(ShapeError):
        as_matrix(np.array([[np.inf, 0], [0, 1.0]]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 16), st.integers(0, 2**31 - 1))
def test_outer_with_unit_vector_is_idempotent(dim, seed):
    r = np.random.default_rng(seed)
    v = r.normal(size=dim) + 1j * r.normal(size=dim)
    v = v / np.linalg.norm(v)
    p = outer(v, v)
    assert np.max(np.abs(p @ p - p)) <= 1e-12


@pytest.mark.parametrize("n, message", [
    (1, "list size must be >= 2, got 1"),
    (10.5, "list size must be an integer, got 10.5"),
    (7.0, "list size must be an integer, got 7.0"),
    ("10", "list size must be an integer, got '10'"),
], ids=["1", "10.5", "7.0", "str"])
@pytest.mark.parametrize("refuse", [
    lambda n: InitialState(1.0, 1.0, n),
    lambda n: FullSpaceConfig(n, 0, [1.0]),
    lambda n: reduced_kernel(1.0, 1.0, n),
    lambda n: ReducedKernel.from_angles(0.0, 0.0, n),
    lambda n: asymptotic_eigvec(1.0, 1.0, n),
    lambda n: delta_omega_asymptotic(1.0, n),
    lambda n: asymptotic_gaps([1.0], n),
    lambda n: kernel_manifold_points([0.0], [0.0], n),
    lambda n: optimal_steps_asymptotic(0.0, n),
    lambda n: asymptotic_steps([0.0], n),
    lambda n: stability_expansion(0.1, n),
], ids=["InitialState", "FullSpaceConfig", "reduced_kernel", "from_angles", "asymptotic_eigvec",
        "delta_omega_asymptotic", "asymptotic_gaps", "kernel_manifold_points",
        "optimal_steps_asymptotic", "asymptotic_steps", "stability_expansion"])
def test_every_list_size_refusal_has_one_message(refuse, n, message):
    with pytest.raises(InvalidSizeError) as exc:
        refuse(n)
    assert str(exc.value) == message
