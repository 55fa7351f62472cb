import json
import subprocess
import sys

import numpy as np
import pytest

from pelletbounds import (
    MatrixPolynomial,
    NormKind,
    SingularMatrixError,
    cauchy_bounds,
    eigenvalues,
    inv_norm_inv,
    left_solve,
    norm,
    square_repartition,
    trial_rng,
)
from pelletbounds.linalg import as_matrix

from conftest import pelletbounds_env, rand_matrix

KINDS = [NormKind.ONE, NormKind.INF, NormKind.TWO]


def test_norm_one_inf_examples():
    a = np.array([[1, -2], [3, 4]], dtype=complex)
    assert norm(a, "one") == 6.0
    assert norm(a, "inf") == 7.0


def test_norm_two_diagonal():
    assert norm(np.diag([3.0, -4.0]), "two") == pytest.approx(4.0, abs=1e-12)


def _power_iteration_trap():
    """A = 10 w w* + 0.5 v0 v0* with v0 the normalised default_rng(0x5EED)
    complex start vector and w orthogonal to v0: a power iteration started
    at v0 stops at once on the singular value 0.5 instead of 10."""
    rng = np.random.default_rng(0x5EED)
    v0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v0 /= np.linalg.norm(v0)
    e0 = np.eye(4)[0]
    w = e0 - np.vdot(v0, e0) * v0
    w /= np.linalg.norm(w)
    return 10.0 * np.outer(w, w.conj()) + 0.5 * np.outer(v0, v0.conj())


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20, "power_trap"])
def test_norm_two_matches_svd(rng, m):
    a = _power_iteration_trap() if m == "power_trap" else rand_matrix(rng, m, scale=3.0)
    expected = np.linalg.svd(a, compute_uv=False)[0]
    assert norm(a, "two") == pytest.approx(expected, rel=1e-10)


def test_power_trap_cauchy_upper_covers_spectrum():
    # P(z) = A + I z has eigenvalues -eig(A), the largest of modulus 10
    p = MatrixPolynomial([_power_iteration_trap(), np.eye(4)])
    assert cauchy_bounds(p, "two").upper >= 10.0 * (1 - 1e-9)


def test_norm_zero_iff_zero_matrix(rng):
    z = np.zeros((3, 3))
    for kind in KINDS:
        assert norm(z, kind) == 0.0
    a = rand_matrix(rng, 3)
    for kind in KINDS:
        assert norm(a, kind) > 0.0


def test_norm_submultiplicative(rng):
    for _ in range(20):
        a = rand_matrix(rng, 5, scale=2.0)
        b = rand_matrix(rng, 5, scale=2.0)
        for kind in KINDS:
            assert norm(a @ b, kind) <= norm(a, kind) * norm(b, kind) * (1 + 1e-12)


def test_one_norm_equals_adjoint_inf_norm_exactly(rng):
    for _ in range(20):
        a = rand_matrix(rng, 6, scale=5.0)
        assert norm(a, "one") == norm(a.conj().T, "inf")


def test_inv_norm_inv_examples():
    assert inv_norm_inv(np.eye(3), "one") == pytest.approx(1.0)
    assert inv_norm_inv(np.diag([2.0, 5.0]), "one") == pytest.approx(2.0)
    with pytest.raises(SingularMatrixError):
        inv_norm_inv(np.ones((2, 2)), "one")


def test_inv_norm_inv_consistent_with_inverse_norm(rng):
    for _ in range(10):
        a = rand_matrix(rng, 4) + 2 * np.eye(4)
        for kind in KINDS:
            product = inv_norm_inv(a, kind) * norm(np.linalg.inv(a), kind)
            assert product == pytest.approx(1.0, rel=1e-10)


def test_left_solve_identity_and_diag(rng):
    b = rand_matrix(rng, 3)
    assert np.allclose(left_solve(np.eye(3), b), b, atol=1e-14)
    d = np.diag([2.0, 4.0])
    assert np.allclose(left_solve(d, d), np.eye(2), atol=1e-14)


def test_left_solve_round_trip(rng):
    a = rand_matrix(rng, 2) + np.eye(2)
    assert np.allclose(left_solve(a, a), np.eye(2), atol=1e-12)
    b = rand_matrix(rng, 2)
    x = left_solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-12)


def test_left_solve_stack_matches_per_matrix(rng):
    a = rand_matrix(rng, 4) + 2 * np.eye(4)
    b = np.array([rand_matrix(rng, 4, scale=5.0) for _ in range(6)])
    x = left_solve(a, b)
    assert x.shape == b.shape
    for xj, bj in zip(x, b):
        want = left_solve(a, bj)
        assert np.abs(xj - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError):
        left_solve(a, np.ones((6, 3, 4)))  # rows do not match a
    with pytest.raises(ValueError):
        left_solve(a, np.full((2, 4, 4), np.nan))
    with pytest.raises(SingularMatrixError):
        left_solve(np.ones((4, 4)), b)


@pytest.mark.parametrize("m", [1, 2, 5, 20])
def test_batched_norms_equal_per_coefficient_norms(rng, m):
    p = MatrixPolynomial([rand_matrix(rng, m, scale=10.0 ** j) for j in range(-2, 4)])
    for kind in KINDS:
        batched = norm(p.stack, kind)
        assert batched.shape == (p.n + 1,)
        assert list(batched) == [norm(c, kind) for c in p.coeffs]


def test_inv_norm_inv_two_singular_raises():
    with pytest.raises(SingularMatrixError):
        inv_norm_inv(np.ones((3, 3)), "two")
    with pytest.raises(SingularMatrixError):
        inv_norm_inv(np.diag([1.0, 1e-16]), "two")


def test_inv_norm_inv_two_ill_conditioned_pivot_not_overestimated():
    """The 2-norm nu of an ill-conditioned pivot that passes the LU pivot
    test stays at the true smallest singular value (mpmath, 80 digits).

    The pivot is B_0 of the companion-squared Q of soundness-sweep instance
    270 (monic, degree 2, m=3; condition 1.3e17).  sigma_min from an SVD of
    B_0 gives 2.3e-8 against the true 8.7e-9: an overestimate of nu, which
    would tighten every bound built on it past the spectrum.  The explicit
    inverse from the LU factors is accurate here to about 1e-7 relative;
    it is not rounded outward, hence the 1e-6 slack.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = trial_rng(20260810, 270)
    scale = 10.0 ** rng.uniform(-1.0, 1.5)
    coeffs = [rand_matrix(rng, 3, scale) for _ in range(3)]
    coeffs[-1] = np.eye(3)
    if rng.uniform() < 0.6:
        k = int(rng.integers(1, 2))
        coeffs[k] = coeffs[k] + scale * 10.0 ** rng.uniform(1.0, 4.0) * np.eye(3)
    pivot = square_repartition(MatrixPolynomial(coeffs)).coeffs[0]
    s = np.linalg.svd(pivot, compute_uv=False)
    assert s[0] / s[-1] > 1e16
    with mpmath.workdps(80):
        exact = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in pivot])
        true_smin = float(min(mpmath.re(x) for x in mpmath.svd_c(exact, compute_uv=False)))
    assert 0.0 < inv_norm_inv(pivot, "two") <= true_smin * (1.0 + 1e-6)


def test_left_solve_singular():
    with pytest.raises(SingularMatrixError):
        left_solve(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularMatrixError):
        left_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


def test_inverse_of_near_singular_raises():
    a = np.array([[1.0, 0.0], [0.0, 1e-16]])
    for kind in KINDS:
        with pytest.raises(SingularMatrixError):
            inv_norm_inv(a, kind)
    with pytest.raises(SingularMatrixError):
        left_solve(a, np.eye(2))


# passes the LU pivot test (second pivot about 1e-312 against a threshold of
# 2e-313), but its inverse, of norm about 4e312, overflows
OVERFLOWING_INVERSE = 1e-300 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])


def test_overflowing_inverse_raises():
    for kind in KINDS:
        with pytest.raises(SingularMatrixError):
            inv_norm_inv(OVERFLOWING_INVERSE, kind)
    with pytest.raises(SingularMatrixError):
        left_solve(OVERFLOWING_INVERSE, np.eye(2))
    with pytest.raises(SingularMatrixError):
        left_solve(OVERFLOWING_INVERSE, np.array([np.eye(2), np.eye(2)]))


def test_overflowing_inverse_leaves_lower_radius_absent():
    p = MatrixPolynomial([OVERFLOWING_INVERSE, np.eye(2), np.eye(2)])
    for kind in KINDS:
        for pre in (False, True):
            cb = cauchy_bounds(p, kind, precondition=pre)
            assert cb.lower is None and cb.upper is not None


def test_eigenvalues_examples():
    vals = sorted(eigenvalues(np.diag([1.0, 2.0 + 1.0j])), key=abs)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(2.0 + 1.0j)
    vals = sorted(eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])).real)
    assert vals == pytest.approx([-1.0, 1.0])
    # companion matrix of z^2 - 3z + 2
    comp = np.array([[0.0, -2.0], [1.0, 3.0]])
    assert sorted(np.abs(eigenvalues(comp))) == pytest.approx([1.0, 2.0])


def test_eigenvalues_block_diag_multiset(rng):
    a = rand_matrix(rng, 3)
    b = rand_matrix(rng, 2)
    block = np.zeros((5, 5), dtype=complex)
    block[:3, :3] = a
    block[3:, 3:] = b
    merged = np.concatenate([eigenvalues(a), eigenvalues(b)])
    got = eigenvalues(block)
    assert np.allclose(np.sort_complex(merged), np.sort_complex(got), atol=1e-10)


def test_eigenvalues_dimension_cap():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(5), cap=4)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# Reports, from a fresh interpreter after ``import pelletbounds``, each
# bundled OpenBLAS's thread count (read through its own getter), the
# library paths pelletbounds set, and the copies of each library the process
# has mapped, one first segment (file offset 0) per copy (None where /proc
# is absent).
_THREADS_PROBE = """
import ctypes, glob, json, os, sys
import pelletbounds
from pelletbounds import linalg
pools = {}
for package, pattern, getter in [
        ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "libscipy_openblas*.so", "scipy_openblas_get_num_threads")]:
    module = sys.modules[package]
    libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), package + ".libs")
    for path in glob.glob(os.path.join(libs, pattern)):
        pools[path] = getattr(ctypes.CDLL(path), getter)()
mapped = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        mapped = sorted(os.path.basename(fields[-1]) for fields in map(str.split, f)
                        if "libscipy_openblas" in fields[-1] and int(fields[2], 16) == 0)
print(json.dumps({"threads": pools, "limited": list(linalg._BLAS_POOLS_LIMITED),
                  "mapped": mapped}))
"""


def _probe_blas_threads(**env_set):
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=pelletbounds_env(**env_set),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if len(report["threads"]) != 2:
        pytest.skip("numpy and scipy do not both bundle a scipy-openblas library")
    # ctypes reached the copies numpy and scipy loaded, not second ones
    if report["mapped"] is not None:
        assert len(report["mapped"]) == len(set(report["mapped"])) == 2
    return report


def test_import_sets_both_openblas_pools_to_one_thread():
    report = _probe_blas_threads()
    assert set(report["threads"].values()) == {1}
    assert sorted(report["limited"]) == sorted(report["threads"])


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_in_the_environment_is_left_alone(var):
    report = _probe_blas_threads(**{var: "2"})
    assert set(report["threads"].values()) == {2}
    assert report["limited"] == []
