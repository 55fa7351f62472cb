"""Dense complex matrix primitives: induced norms, inverses, eigenvalues.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``.  Every public
entry point validates its input through :func:`as_matrix`, which rejects
non-finite entries, so downstream code can assume clean data.  The 2-norm
is the largest singular value from LAPACK's SVD: a 2-norm bound is sound
only if the norm is never underestimated, which rules out iterations that
can stop at a smaller singular value.
"""

from __future__ import annotations

import enum
import warnings

import numpy as np
import scipy.linalg

# Pivot threshold is relative to the infinity norm so the singularity test
# is invariant under uniform scaling of the matrix.
SINGULARITY_RTOL = 1e-13

EIGEN_DIM_CAP = 2000


class SingularMatrixError(Exception):
    """Matrix is numerically singular (an LU pivot fell below threshold)."""


class NoConvergenceError(Exception):
    """Dense eigenvalue iteration failed to converge."""


class NormKind(enum.Enum):
    """Selector for the induced matrix norm: max column sum, max row sum,
    or largest singular value."""

    ONE = "one"
    INF = "inf"
    TWO = "two"

    @classmethod
    def coerce(cls, value) -> "NormKind":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


def as_matrix(a) -> np.ndarray:
    """Validate and normalize input to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def identity(m: int) -> np.ndarray:
    return np.eye(m, dtype=np.complex128)


def norm(a, kind) -> float:
    """Induced matrix norm of the requested kind."""
    arr = as_matrix(a)
    kind = NormKind.coerce(kind)
    if kind is NormKind.ONE:
        return float(np.abs(arr).sum(axis=0).max())
    if kind is NormKind.INF:
        return float(np.abs(arr).sum(axis=1).max())
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _lu_factor_checked(a: np.ndarray):
    """Pivoted LU factorization, raising SingularMatrixError on a small pivot."""
    scale = float(np.abs(a).sum(axis=1).max())
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if np.abs(np.diag(lu)).min() < SINGULARITY_RTOL * scale:
        raise SingularMatrixError("matrix is numerically singular")
    return lu, piv


def inverse(a) -> np.ndarray:
    """Explicit inverse from the pivoted LU factorization."""
    arr = as_matrix(a)
    _require_square(arr)
    lu, piv = _lu_factor_checked(arr)
    return scipy.linalg.lu_solve((lu, piv), identity(arr.shape[0]), check_finite=False)


def inv_norm_inv(a, kind) -> float:
    """1 / ||a^-1|| for the requested norm kind.

    This is the coefficient that takes the place of |a_k| when a scalar
    Pellet/Cauchy radial polynomial is generalized to matrix coefficients.
    Raises SingularMatrixError when ``a`` is numerically singular, in which
    case the corresponding bound is inapplicable.
    """
    return 1.0 / norm(inverse(a), kind)


def left_solve(a, b) -> np.ndarray:
    """Solve a @ x = b for x (i.e. x = a^-1 b) via pivoted LU."""
    arr = as_matrix(a)
    _require_square(arr)
    brr = as_matrix(b)
    if brr.shape[0] != arr.shape[0]:
        raise ValueError(f"shapes not conformable: {arr.shape} vs {brr.shape}")
    lu, piv = _lu_factor_checked(arr)
    return scipy.linalg.lu_solve((lu, piv), brr, check_finite=False)


def eigenvalues(a, cap: int = EIGEN_DIM_CAP) -> np.ndarray:
    """All eigenvalues of a dense square matrix, with multiplicity, unordered.

    Delegates to LAPACK's nonsymmetric eigensolver; the ``cap`` guards
    against accidentally feeding it huge companion matrices.
    """
    arr = as_matrix(a)
    _require_square(arr)
    if arr.shape[0] > cap:
        raise ValueError(f"matrix dimension {arr.shape[0]} exceeds cap {cap}")
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
