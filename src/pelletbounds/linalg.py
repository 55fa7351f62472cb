"""Dense complex matrix primitives: induced norms, LU solves, eigenvalues.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``; ``norm`` and the
right-hand side of ``left_solve`` also take a 3-D stack of such matrices,
which is how a matrix polynomial's coefficients travel.  Every public entry
point validates its input and rejects non-finite entries, so downstream
code can assume clean data.  The 2-norm is the largest singular value from
LAPACK's SVD: a 2-norm bound is sound only if the norm is never
underestimated, which rules out iterations that can stop at a smaller
singular value.

At import the module sets the thread pool of each OpenBLAS that numpy and
scipy load to one thread, unless the caller has set one of the variables
OpenBLAS reads for its thread count (``_limit_blas_threads``).
"""

from __future__ import annotations

import ctypes
import enum
import glob
import math
import os

import numpy as np
import scipy
from scipy.linalg import lapack

# Pivot threshold is relative to the infinity norm so the singularity test
# is invariant under uniform scaling of the matrix.
SINGULARITY_RTOL = 1e-13

EIGEN_DIM_CAP = 2000

# The variables OpenBLAS reads for its thread count when it loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# (package, its OpenBLAS in ``<package>.libs``, that library's setter) for
# the OpenBLAS bundled with the numpy and scipy wheels.
_OPENBLAS_POOLS = (
    (np, "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)


class SingularMatrixError(Exception):
    """Matrix is numerically singular: a small LU pivot, or a solve overflows."""


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


def inv_norm_inv(a, kind) -> float:
    """1 / ||a^-1|| for the requested norm kind.

    This is the coefficient that takes the place of |a_k| when a scalar
    Pellet/Cauchy radial polynomial is generalized to matrix coefficients.
    The norm is taken of the explicit inverse from the pivoted LU factors,
    also for the 2-norm: sigma_min from an SVD of ``a`` carries an absolute
    error of order eps * sigma_max and overestimates 1/||a^-1|| on
    ill-conditioned matrices, which would tighten a bound past the
    spectrum.  Raises SingularMatrixError when ``a`` is numerically singular
    (the LU pivot test) or its inverse overflows (the result is not a
    positive float), in which case the corresponding bound is inapplicable.
    """
    arr = as_matrix(a)
    _require_square(arr)
    inv = _lu_solve(_lu_factor_checked(arr), identity(arr.shape[0]))
    try:
        nu = 1.0 / float(_norms(inv, NormKind.coerce(kind)))
    except np.linalg.LinAlgError:
        # the SVD rejects a NaN entry, which an overflowing inverse has
        if np.isfinite(inv).all():
            raise
        nu = math.nan
    if not nu > 0.0:
        raise SingularMatrixError("inverse is not finite")
    return nu


def left_solve(a, b) -> np.ndarray:
    """Solve a @ x = b for x (i.e. x = a^-1 b) via pivoted LU.

    ``b`` may be a matrix or a stack of shape (k, m, p); a stack is solved
    with one factorization of ``a`` and one solve of the (m, k*p)
    concatenation of its matrices, and returned as a stack.  Raises
    SingularMatrixError when ``a`` fails the LU pivot test or x is not
    finite (the solve overflowed).
    """
    arr = as_matrix(a)
    _require_square(arr)
    brr = _as_finite(b, (2, 3))
    if brr.shape[-2] != arr.shape[0]:
        raise ValueError(f"shapes not conformable: {arr.shape} vs {brr.shape}")
    factors = _lu_factor_checked(arr)
    if brr.ndim == 2:
        x = _lu_solve(factors, brr)
    else:
        k, m, p = brr.shape
        x = _lu_solve(factors, brr.transpose(1, 0, 2).reshape(m, k * p))
        x = x.reshape(m, k, p).transpose(1, 0, 2)
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution is not finite")
    return x


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


def _limit_blas_threads() -> tuple[str, ...]:
    """Set the OpenBLAS pool of each package in ``_OPENBLAS_POOLS`` to one
    thread; return the paths of the libraries that were set.

    On two cores the dense eigensolve of the oracle runs faster on one
    thread than on two, and idle pool threads no longer burn CPU.  Nothing
    is set when the caller has set a variable of ``_BLAS_THREAD_VARS``, and
    ``os.environ`` is never written, so subprocesses inherit the caller's
    environment unchanged.  A library or symbol that is not there (a numpy
    built against another BLAS) is skipped.  ``ctypes.CDLL`` of a library
    that is already loaded returns that library, so the setter reaches the
    pool the package uses.
    """
    if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        return ()
    limited = []
    for package, pattern, setter in _OPENBLAS_POOLS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = os.path.join(site, package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                set_threads = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            limited.append(path)
    return tuple(limited)


_BLAS_POOLS_LIMITED = _limit_blas_threads()
