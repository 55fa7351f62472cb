"""Dense complex matrix primitives: induced norms, inverses, eigenvalues.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``; ``norm`` and the
right-hand side of ``left_solve`` also take a 3-D stack of such matrices,
which is how a matrix polynomial's coefficients travel.  Every public entry
point validates its input and rejects non-finite entries, so downstream
code can assume clean data.  The 2-norm is the largest singular value from
LAPACK's SVD: a 2-norm bound is sound only if the norm is never
underestimated, which rules out iterations that can stop at a smaller
singular value.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.linalg import lapack

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


def _as_finite(a, ndims) -> np.ndarray:
    """``a`` as a complex128 array with a dimension count in ``ndims``, no
    empty axis and only finite entries; ValueError otherwise."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim not in ndims or 0 in arr.shape:
        raise ValueError(f"expected a {' or '.join(map(str, ndims))}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Validate and normalize input to a finite 2-D complex128 array."""
    return _as_finite(a, (2,))


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def identity(m: int) -> np.ndarray:
    return np.eye(m, dtype=np.complex128)


def norm(a, kind):
    """Induced matrix norm of the requested kind.

    For a 2-D matrix this is a float; for a stack of shape (k, m, m) it is
    the array of the k norms, taken in one reduction (one batched SVD for
    the 2-norm).
    """
    arr = _as_finite(a, (2, 3))
    norms = _norms(arr, NormKind.coerce(kind))
    return float(norms) if arr.ndim == 2 else norms


def _norms(arr: np.ndarray, kind: NormKind):
    """Norms over the last two axes of a validated array."""
    if kind is NormKind.ONE:
        return np.abs(arr).sum(axis=-2).max(axis=-1)
    if kind is NormKind.INF:
        return np.abs(arr).sum(axis=-1).max(axis=-1)
    return np.linalg.svd(arr, compute_uv=False)[..., 0]


def _lu_factor_checked(a: np.ndarray):
    """Pivoted LU factorization (LAPACK getrf of a validated complex128
    matrix), raising SingularMatrixError on a small pivot."""
    scale = float(np.abs(a).sum(axis=1).max())
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    lu, piv, _ = lapack.zgetrf(a)
    if np.abs(np.diag(lu)).min() < SINGULARITY_RTOL * scale:
        raise SingularMatrixError("matrix is numerically singular")
    return lu, piv


def _lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b, given ``factors = _lu_factor_checked(a)``."""
    return lapack.zgetrs(*factors, b)[0]


def inverse(a) -> np.ndarray:
    """Explicit inverse from the pivoted LU factorization."""
    arr = as_matrix(a)
    _require_square(arr)
    return _lu_solve(_lu_factor_checked(arr), identity(arr.shape[0]))


def inv_norm_inv(a, kind) -> float:
    """1 / ||a^-1|| for the requested norm kind.

    This is the coefficient that takes the place of |a_k| when a scalar
    Pellet/Cauchy radial polynomial is generalized to matrix coefficients.
    The norm is taken of the explicit inverse from the pivoted LU factors,
    also for the 2-norm: sigma_min from an SVD of ``a`` carries an absolute
    error of order eps * sigma_max and overestimates 1/||a^-1|| on
    ill-conditioned matrices, which would tighten a bound past the
    spectrum.  Raises SingularMatrixError when ``a`` is numerically singular
    (the LU pivot test), in which case the corresponding bound is
    inapplicable.
    """
    arr = as_matrix(a)
    _require_square(arr)
    inv = _lu_solve(_lu_factor_checked(arr), identity(arr.shape[0]))
    return 1.0 / float(_norms(inv, NormKind.coerce(kind)))


def left_solve(a, b) -> np.ndarray:
    """Solve a @ x = b for x (i.e. x = a^-1 b) via pivoted LU.

    ``b`` may be a matrix or a stack of shape (k, m, p); a stack is solved
    with one factorization of ``a`` and one solve of the (m, k*p)
    concatenation of its matrices, and returned as a stack.
    """
    arr = as_matrix(a)
    _require_square(arr)
    brr = _as_finite(b, (2, 3))
    if brr.shape[-2] != arr.shape[0]:
        raise ValueError(f"shapes not conformable: {arr.shape} vs {brr.shape}")
    factors = _lu_factor_checked(arr)
    if brr.ndim == 2:
        return _lu_solve(factors, brr)
    k, m, p = brr.shape
    x = _lu_solve(factors, brr.transpose(1, 0, 2).reshape(m, k * p))
    return x.reshape(m, k, p).transpose(1, 0, 2)


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
