"""Dense complex matrix primitives: induced norms, LU solves, eigenvalues.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``; ``norm`` and the
right-hand side of ``left_solve`` also take a 3-D stack of such matrices,
which is how a matrix polynomial's coefficients travel.  Every public entry
point validates its input and rejects non-finite entries, so downstream
code can assume clean data.  The 2-norm is the largest singular value from
LAPACK's SVD: a 2-norm bound is sound only if the norm is never
underestimated, which rules out iterations that can stop at a smaller
singular value.

One function, ``_factor``, decides when a pivot is unusable: a zero
matrix, an infinity norm beyond the double range, or an LU pivot below
``SINGULARITY_RTOL`` times that norm, raises ``SingularMatrixError``, and
the theorem that needed the pivot does not apply.  ``_solve`` solves from
such a factorization and raises the same error when the solution is not
finite.  ``left_solve`` and ``inv_norm_inv`` validate, factor and solve on
every call; ``matpoly`` keeps one factorization per coefficient of a
polynomial, taken with the coefficient's kept infinity norm as its scale
(summed without numpy's overflow warning), and solves from it through the
same two functions.

``identity(m)`` is one read-only complex identity per size, built on first
use and shared: callers copy from it or pass it to ``zgetrs``, which copies
its right-hand side.  ``matpoly`` tests a pivot against it and skips the
LU of an exact identity, whose factors, inverse and every norm (the SVD's
included) are exactly I and 1.0.

The two LAPACK routines the LU solves use, ``zgetrf`` and ``zgetrs``, come
from scipy's f2py extension ``scipy.linalg._flapack``, loaded from its file
under its own name without importing ``scipy`` or ``scipy.linalg``
(``_load_flapack``): their imports cost several times what numpy does, and
none of it is LAPACK.  A later ``import scipy.linalg`` reuses the same
module.

At import the module sets the thread pool of each OpenBLAS that numpy and
scipy bundle to one thread, unless the caller has set one of the variables
OpenBLAS reads for its thread count (``_limit_blas_threads``).
"""

from __future__ import annotations

import ctypes
import enum
import functools
import glob
import importlib.machinery
import importlib.util
import os

import numpy as np

from . import _BLAS_THREAD_VARS

# Pivot threshold is relative to the infinity norm so the singularity test
# is invariant under uniform scaling of the matrix.
SINGULARITY_RTOL = 1e-13

EIGEN_DIM_CAP = 2000

# (package, its OpenBLAS in ``<package>.libs``, that library's setter) for
# the OpenBLAS bundled with the numpy and scipy wheels.
_OPENBLAS_POOLS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
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


@functools.cache
def identity(m: int) -> np.ndarray:
    """The m-by-m complex identity: one read-only array per size, built on
    first use and shared by every caller (who copy from it)."""
    eye = np.eye(m, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


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


def _factor(a: np.ndarray, scale: float | None = None) -> tuple:
    """The LU factorization (lu, piv) of a validated square ``a`` under the
    pivot rule of the module docstring (a zero ``a`` included); ``scale`` is
    the infinity norm of ``a`` when the caller has it already."""
    if scale is None:
        scale = float(np.abs(a).sum(axis=1).max())
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    if scale == np.inf:
        raise SingularMatrixError("the pivot's infinity norm overflows the double range")
    lu, piv, _ = lapack.zgetrf(a)
    if np.abs(lu.diagonal()).min() < SINGULARITY_RTOL * scale:
        raise SingularMatrixError("matrix is numerically singular")
    return lu, piv


def _solve(factor: tuple, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b from the ``_factor`` of ``a``, for a finite ``b``
    with as many rows; a stack b of shape (k, m, p) is solved as the
    (m, k*p) concatenation of its matrices and returned as a stack.
    Raises SingularMatrixError when x is not finite."""
    if b.ndim == 3:
        k, m, p = b.shape
        x = _solve(factor, b.transpose(1, 0, 2).reshape(m, k * p))
        return x.reshape(m, k, p).transpose(1, 0, 2)
    x = lapack.zgetrs(*factor, b)[0]
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution is not finite")
    return x


def _inv_norm_inv(factor: tuple, kind: NormKind) -> float:
    """1 / ||a^-1|| from the ``_factor`` of ``a``; raises
    SingularMatrixError when the norm of the inverse overflows."""
    nu = 1.0 / float(_norms(_solve(factor, identity(factor[0].shape[0])), kind))
    if not nu > 0.0:
        raise SingularMatrixError("the norm of the inverse overflows")
    return nu


def inv_norm_inv(a, kind) -> float:
    """1 / ||a^-1|| for the requested norm kind.

    This is the coefficient that takes the place of |a_k| when a scalar
    Pellet/Cauchy radial polynomial is generalized to matrix coefficients.
    The norm is taken of the explicit inverse from the pivoted LU factors,
    also for the 2-norm: sigma_min from an SVD of ``a`` carries an absolute
    error of order eps * sigma_max and overestimates 1/||a^-1|| on
    ill-conditioned matrices, which would tighten a bound past the
    spectrum.  Raises SingularMatrixError when ``a`` fails the pivot rule
    of ``_factor`` or the norm of its inverse overflows, in which case the
    corresponding bound is inapplicable.
    """
    arr = as_matrix(a)
    _require_square(arr)
    return _inv_norm_inv(_factor(arr), NormKind.coerce(kind))


def left_solve(a, b) -> np.ndarray:
    """Solve a @ x = b for x (i.e. x = a^-1 b) via pivoted LU.

    ``b`` may be a matrix or a stack of shape (k, m, p); a stack is solved
    with one factorization of ``a`` and one solve of the (m, k*p)
    concatenation of its matrices, and returned as a stack.  Raises
    SingularMatrixError when ``a`` fails the pivot rule of ``_factor`` or
    the solution is not finite.
    """
    arr = as_matrix(a)
    _require_square(arr)
    brr = _as_finite(b, (2, 3))
    if brr.shape[-2] != arr.shape[0]:
        raise ValueError(f"shapes not conformable: {arr.shape} vs {brr.shape}")
    return _solve(_factor(arr), brr)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a dense square matrix, with multiplicity, unordered.

    Delegates to LAPACK's nonsymmetric eigensolver; ``EIGEN_DIM_CAP`` guards
    against accidentally feeding it huge companion matrices.
    """
    arr = as_matrix(a)
    _require_square(arr)
    if arr.shape[0] > EIGEN_DIM_CAP:
        raise ValueError(f"matrix dimension {arr.shape[0]} exceeds cap {EIGEN_DIM_CAP}")
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc


def _package_dir(name: str) -> str | None:
    """Directory of the installed package ``name``, found without importing
    it; None when it is not installed."""
    spec = importlib.util.find_spec(name)
    return None if spec is None else os.path.dirname(spec.origin)


def _load_flapack(scipy_dir):
    """scipy's f2py LAPACK module, loaded from ``<scipy_dir>/linalg`` as
    ``scipy.linalg._flapack`` without importing its parent packages; it
    enters ``sys.modules`` under that name, as when scipy imports it.
    ``scipy.linalg.lapack`` when no such file is there."""
    name = "scipy.linalg._flapack"
    if scipy_dir is not None:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
                return module
    from scipy.linalg import lapack
    return lapack


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
        libs = os.path.join(os.path.dirname(_package_dir(package)), package + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                set_threads = getattr(ctypes.CDLL(path), setter)
            except (OSError, AttributeError):
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            limited.append(path)
    return tuple(limited)


# loading the extension maps scipy's OpenBLAS, so it comes before the setters
lapack = _load_flapack(_package_dir("scipy"))
_BLAS_POOLS_LIMITED = _limit_blas_threads()
