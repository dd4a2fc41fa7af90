"""Dense complex linear algebra primitives.

Vectors and matrices are plain numpy ``complex128`` arrays in row-major
layout; everything in the library stays at desk scale (N up to a few
thousand), so dense storage and O(N^2) transforms are deliberate.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSizeError, NormalizationError, ShapeError

__all__ = [
    "TOL_EXACT",
    "TOL_PIPELINE",
    "require_unit",
    "unitarity_residual",
    "momentum_state",
    "dft_matrix",
    "is_unitary",
    "adjoint",
    "outer",
    "as_vector",
    "as_matrix",
]

# Exact single identities hold to TOL_EXACT; quantities composed from
# several matrix products are only promised to TOL_PIPELINE.
TOL_EXACT = 1e-12
TOL_PIPELINE = 1e-10


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ShapeError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("vector has non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix has non-finite entries")
    return a


def require_unit(x: float, tol: float, what: str, error=NormalizationError) -> None:
    """Raise ``error`` unless |x - 1| <= tol; NaN never passes.

    The one test behind every unit-norm and unit-modulus check.
    """
    if not abs(x - 1.0) <= tol:
        raise error(f"{what} is {x}; expected 1 within {tol:g}")


def unitarity_residual(a: np.ndarray) -> float:
    """max|M^dagger M - I| of a square array already coerced by as_matrix."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def momentum_state(y0, n: int) -> np.ndarray:
    """Momentum basis state with wavenumber y0: entry x is exp(2*pi*i*x*y0/n)/sqrt(n).

    ``y0`` may also be a column of wavenumbers, giving one state per row.
    """
    if n < 1:
        raise InvalidSizeError(f"size must be >= 1, got {n}")
    if not np.all((0 <= y0) & (y0 < n)):
        raise IndexError(f"wavenumber {y0} outside [0, {n})")
    return np.exp(2j * np.pi * np.arange(n) * y0 / n) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier transform on ``n`` points.

    Entry (y, x) is exp(+2*pi*i*x*y/n)/sqrt(n); the forward sign convention
    is fixed so that column x holds the momentum state with wavenumber x.
    The matrix is symmetric, so row y is that state as well.  The inverse
    transform is the adjoint.
    """
    return momentum_state(np.arange(n)[:, None], n)


def is_unitary(m, tol: float = TOL_EXACT) -> bool:
    """True iff ``m`` is square and max|M^dagger M - I| <= tol."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitarity test needs a square matrix, got {a.shape}")
    if not tol > 0:
        raise ShapeError("tolerance must be positive")
    return unitarity_residual(a) <= tol


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def outer(u, v) -> np.ndarray:
    """Outer product u v^dagger (so outer(v, v) is the projector onto v)."""
    a, b = as_vector(u), as_vector(v)
    return np.outer(a, b.conj())
