"""Dense complex linear algebra primitives.

Vectors and matrices are plain numpy ``complex128`` arrays in row-major
layout; everything in the library stays at desk scale (N up to a few
thousand), so dense storage and O(N^2) transforms are deliberate.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (DegenerateSubspaceError, IndexRangeError, InvalidSizeError,
                     NormalizationError, ShapeError)

__all__ = [
    "TOL_EXACT",
    "TOL_PIPELINE",
    "require_unit",
    "require_unitary",
    "unitarity_residual",
    "momentum_state",
    "dft_matrix",
    "outer",
    "as_vector",
    "as_matrix",
]

# Exact single identities hold to TOL_EXACT; quantities composed from
# several matrix products are only promised to TOL_PIPELINE.
TOL_EXACT = 1e-12
TOL_PIPELINE = 1e-10
TAU = 2 * math.pi
# 2 pi less TAU, to the double nearest it.
_TAU_LO = 2.4492935982947064e-16


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


def _require_list_size(n: int) -> None:
    """Raise InvalidSizeError unless n is an integer (one that
    ``operator.index`` takes) >= 2: the search plane needs the marked element
    and at least one other.

    The one test behind every list-size check.
    """
    try:
        operator.index(n)
    except TypeError:
        raise InvalidSizeError(f"list size must be an integer, got {n!r}") from None
    if n < 2:
        raise InvalidSizeError(f"list size must be >= 2, got {n}")


def _require_overlap(alpha1: float) -> None:
    """Raise DegenerateSubspaceError unless 0 < alpha1 < 1: a marked-state
    overlap of 0 or 1 collapses the search plane."""
    if not 0.0 < alpha1 < 1.0:
        raise DegenerateSubspaceError(f"overlap must lie strictly between 0 and 1, got {alpha1}")


def unitarity_residual(a: np.ndarray):
    """max|M^dagger M - I| of a square array already coerced by as_matrix,
    or one such residual per matrix of a stack of shape (K, n, n)."""
    resid = np.abs(np.swapaxes(a.conj(), -1, -2) @ a - np.eye(a.shape[-1])).max(axis=(-2, -1))
    return float(resid) if resid.ndim == 0 else resid


def require_unitary(m: np.ndarray, tol: float, what: str) -> None:
    """Raise NormalizationError unless the matrix m, or every matrix of the
    stack m, is unitary within ``tol``; NaN never passes.

    The one unitarity test; for a stack the message names the worst index.
    """
    resid = np.reshape(unitarity_residual(m), -1)
    if resid.size and not resid.max() <= tol:
        worst = int(np.argmax(resid))
        at = f" {worst}" if m.ndim > 2 else ""
        raise NormalizationError(f"{what}{at} is not unitary (residual {resid[worst]:.3e})")


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts, signed zeros included."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _expi(t) -> np.ndarray:
    """e^{it}, elementwise, as cmath.exp(1j * t) computes it."""
    return _complex(np.cos(t), np.sin(t))


def _abs(z: np.ndarray) -> np.ndarray:
    """Elementwise |z| as Python computes it; numpy's complex abs may differ in the last bit."""
    return np.hypot(z.real, z.imag)


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise math.atan2 of 1-D arrays: numpy's arctan2 may differ in the last bit."""
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(y))


def wrap_angle(t) -> np.ndarray:
    """Principal value in (-pi, pi], elementwise, exact (fmod and a shift by TAU)."""
    w = np.fmod(t, TAU)
    return np.where(w > math.pi, w - TAU, np.where(w <= -math.pi, w + TAU, w))


def reduce_angle(t) -> np.ndarray:
    """t less its turns of 2 pi, to full precision: wrap_angle's, each _TAU_LO
    short, or, from 2^50 on (where those shortfalls add up to more than a
    rounding, and doubles lie 1/4 or more apart), the angle of cos t, sin t."""
    w = wrap_angle(t)
    return np.where(np.abs(t) < 2.0**50, w - np.rint((t - w) / TAU) * _TAU_LO,
                    np.arctan2(np.sin(t), np.cos(t)))


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a * b with the rounding of a Python complex product.

    numpy's complex product may fuse a multiply and an add, which changes
    the last bit, so batched code that must match a scalar formula
    bit for bit multiplies part by part.
    """
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _require_wavenumber(y0, n: int) -> None:
    """Raise IndexRangeError unless every wavenumber in y0 lies in [0, n)."""
    if not np.all((0 <= y0) & (y0 < n)):
        raise IndexRangeError(f"wavenumber {y0} outside [0, {n})")


def momentum_state(y0, n: int) -> np.ndarray:
    """Momentum basis state with wavenumber y0: entry x is exp(2*pi*i*x*y0/n)/sqrt(n).

    ``y0`` may also be a column of wavenumbers, giving one state per row.
    """
    if n < 1:
        raise InvalidSizeError(f"size must be >= 1, got {n}")
    _require_wavenumber(y0, n)
    return np.exp(2j * np.pi * np.arange(n) * y0 / n) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier transform on ``n`` points.

    Entry (y, x) is exp(+2*pi*i*x*y/n)/sqrt(n); the forward sign convention
    is fixed so that column x holds the momentum state with wavenumber x.
    The matrix is symmetric, so row y is that state as well.  The inverse
    transform is the adjoint.
    """
    return momentum_state(np.arange(n)[:, None], n)


def outer(u, v) -> np.ndarray:
    """Outer product u v^dagger (so outer(v, v) is the projector onto v)."""
    a, b = as_vector(u), as_vector(v)
    return np.outer(a, b.conj())
