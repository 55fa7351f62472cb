import json
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

from pelletbounds import (
    ExperimentConfig,
    MatrixPolynomial,
    NoConvergenceError,
    NormKind,
    SingularMatrixError,
    cauchy_bounds,
    eigenvalues,
    left_precondition,
    norm,
    square_repartition,
    trial_rng,
)
from pelletbounds import linalg, matpoly
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


# The pivot path is the one the library takes: nu = 1/||A^-1|| and the left
# solve A^-1 B run on the A_0 of A + B z, from the LU that the polynomial
# keeps, scaled by its kept infinity norm.

def _nu(a, kind):
    """nu of A as the kept pivot A_0 of A + I z."""
    return matpoly._nu(MatrixPolynomial([a, np.eye(len(a))]), 0, NormKind.coerce(kind))


def _left_solved(a, *b):
    """A^-1 B_1, ..., A^-1 B_k as the coefficients 1..k of A_0^-1 (A + B_1 z
    + ... + B_k z^k), solved from the kept LU of A."""
    return left_precondition(MatrixPolynomial([a, *b]), 0).stack[1:]


def test_inv_norm_inv_examples():
    assert _nu(np.eye(3), "one") == 1.0
    assert _nu(np.diag([2.0, 5.0]), "one") == pytest.approx(2.0)
    with pytest.raises(SingularMatrixError):
        _nu(np.ones((2, 2)), "one")
    with pytest.raises(SingularMatrixError, match="zero matrix"):
        _nu(np.zeros((2, 2)), "one")


def test_inv_norm_inv_consistent_with_inverse_norm(rng):
    for _ in range(10):
        a = rand_matrix(rng, 4) + 2 * np.eye(4)
        for kind in KINDS:
            product = _nu(a, kind) * norm(np.linalg.inv(a), kind)
            assert product == pytest.approx(1.0, rel=1e-10)


def test_left_solve_identity_and_diag(rng):
    b = rand_matrix(rng, 3)
    p = MatrixPolynomial([np.eye(3), b])
    assert left_precondition(p, 0) is p  # I^-1 B is B, without a solve
    d = np.diag([2.0, 4.0])
    assert np.allclose(_left_solved(d, d)[0], np.eye(2), atol=1e-14)


def test_left_solve_round_trip(rng):
    a = rand_matrix(rng, 2) + np.eye(2)
    assert np.allclose(_left_solved(a, a)[0], np.eye(2), atol=1e-12)
    b = rand_matrix(rng, 2)
    x = _left_solved(a, b)[0]
    assert np.allclose(a @ x, b, atol=1e-12)


def test_left_solve_stack_matches_per_matrix(rng):
    a = rand_matrix(rng, 4) + 2 * np.eye(4)
    b = [rand_matrix(rng, 4, scale=5.0) for _ in range(6)]
    x = _left_solved(a, *b)
    assert x.shape == (6, 4, 4)
    for xj, bj in zip(x, b):
        want = _left_solved(a, bj)[0]
        assert np.abs(xj - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(SingularMatrixError):
        _left_solved(np.ones((4, 4)), *b)


@pytest.mark.parametrize("m", [1, 2, 5, 20])
def test_batched_norms_equal_per_coefficient_norms(rng, m):
    p = MatrixPolynomial([rand_matrix(rng, m, scale=10.0 ** j) for j in range(-2, 4)])
    for kind in KINDS:
        batched = norm(p.stack, kind)
        assert batched.shape == (p.n + 1,)
        assert list(batched) == [norm(c, kind) for c in p.stack]


def test_two_norm_does_not_depend_on_the_sign_of_a_zero():
    # LAPACK's largest singular value of [[-0.0, -1.2], [1.1, 0.4]] was
    # 0x1.5f98423df9a07p+0, and 0x1.5f98423df9a05p+0 with +0.0
    a = np.array([[-0.0, -1.2], [1.1, 0.4]])
    twin = np.array([[0.0, -1.2], [1.1, 0.4]])
    assert norm(a, "two").hex() == norm(twin, "two").hex() == "0x1.5f98423df9a05p+0"
    assert [v.hex() for v in norm(np.array([a, twin]), "two")] == ["0x1.5f98423df9a05p+0"] * 2
    # seeded 1x1 to 3x3 matrices with zero real and imaginary parts, each
    # of a random sign, against a twin with every zero's sign redrawn
    rng = np.random.default_rng(2027)
    for _ in range(2000):
        m = int(rng.integers(1, 4))
        parts = rng.uniform(-2.0, 2.0, (2, m, m))
        zero = rng.uniform(size=(2, m, m)) < 0.4
        signs, redrawn = (rng.choice([-1.0, 1.0], (2, m, m)) for _ in range(2))
        a, twin = (np.empty((m, m), np.complex128) for _ in range(2))
        for z, sign in ((a, signs), (twin, redrawn)):
            z.real, z.imag = np.where(zero, np.copysign(0.0, sign), parts)
        for kind in KINDS:
            assert norm(a, kind).hex() == norm(twin, kind).hex()


@pytest.mark.filterwarnings("error")
def test_a_norm_past_the_double_range_is_inf_without_a_warning():
    # the 1- and infinity-norm sums overflowed with numpy's RuntimeWarning,
    # and LAPACK's SVD returned NaN for the 2-norm of an entry whose
    # modulus overflows
    for a, kind in (([[1e308], [1e308]], "one"), ([[1e308, 1e308]], "inf"),
                    ([[1.5e308 + 1.5e308j]], "two")):
        assert norm(a, kind) == math.inf
        # stacked over [[1.0]], padded with zeros to the shape of a
        unit = np.zeros(np.shape(a))
        unit[0, 0] = 1.0
        assert list(norm(np.array([a, unit]), kind)) == [math.inf, 1.0]


def test_inv_norm_inv_two_singular_raises():
    with pytest.raises(SingularMatrixError):
        _nu(np.ones((3, 3)), "two")
    with pytest.raises(SingularMatrixError):
        _nu(np.diag([1.0, 1e-16]), "two")


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
    q = square_repartition(MatrixPolynomial(coeffs))
    pivot = q.stack[0]
    s = np.linalg.svd(pivot, compute_uv=False)
    assert s[0] / s[-1] > 1e16
    with mpmath.workdps(80):
        exact = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in pivot])
        true_smin = float(min(mpmath.re(x) for x in mpmath.svd_c(exact, compute_uv=False)))
    assert 0.0 < matpoly._nu(q, 0, NormKind.TWO) <= true_smin * (1.0 + 1e-6)


def test_left_solve_singular():
    with pytest.raises(SingularMatrixError, match="zero matrix"):
        _left_solved(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(SingularMatrixError):
        _left_solved(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


def test_inverse_of_near_singular_raises():
    a = np.array([[1.0, 0.0], [0.0, 1e-16]])
    for kind in KINDS:
        with pytest.raises(SingularMatrixError):
            _nu(a, kind)
    with pytest.raises(SingularMatrixError):
        _left_solved(a, np.eye(2))


# passes the LU pivot test (second pivot about 1e-312 against a threshold of
# 2e-313), but its inverse, of norm about 4e312, overflows
OVERFLOWING_INVERSE = 1e-300 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])


def test_overflowing_inverse_raises():
    for kind in KINDS:
        with pytest.raises(SingularMatrixError):
            _nu(OVERFLOWING_INVERSE, kind)
    with pytest.raises(SingularMatrixError, match="not finite"):
        _left_solved(OVERFLOWING_INVERSE, np.eye(2))
    with pytest.raises(SingularMatrixError, match="not finite"):
        _left_solved(OVERFLOWING_INVERSE, np.eye(2), np.eye(2))


# well conditioned, but its infinity norm, 2e308, passes the double range
OVERFLOWING_NORM = np.array([[1e308, 1e308], [1e308, -1e308]])


def test_overflowing_pivot_norm_is_named():
    for kind in KINDS:
        with pytest.raises(SingularMatrixError, match="infinity norm overflows"):
            _nu(OVERFLOWING_NORM, kind)
    with pytest.raises(SingularMatrixError, match="infinity norm overflows"):
        _left_solved(OVERFLOWING_NORM, np.eye(2))


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


def test_eigenvalues_dimension_cap(monkeypatch):
    monkeypatch.setattr(linalg, "EIGEN_DIM_CAP", 4)
    with pytest.raises(ValueError):
        eigenvalues(np.eye(5))
    assert len(eigenvalues(np.eye(4))) == 4
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))


def test_eigensolver_failure_is_no_convergence(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        eigenvalues(np.eye(2))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# Reports, from a fresh interpreter, each bundled OpenBLAS's thread count
# (read through its own getter), the library paths pelletbounds set, the
# copies of each library the process has mapped, one first segment (file
# offset 0) per copy (None where /proc is absent), and the environment
# variables whose values changed.  With the argument "library" it imports
# pelletbounds and then every submodule but cli; with "cli" it runs a query
# as ``python -m pelletbounds.cli`` does.  Each library is found the way
# ``linalg`` finds it, through its package's spec, which imports nothing.
_THREADS_PROBE = """
import ctypes, glob, importlib, importlib.util, json, os, pkgutil, runpy, sys
before = dict(os.environ)
if sys.argv[1] == "cli":
    sys.argv = ["pelletbounds", "oracle", "--poly", "1,-3,2"]
    try:
        runpy.run_module("pelletbounds.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import pelletbounds
    for module in pkgutil.iter_modules(pelletbounds.__path__):
        if module.name != "cli":
            importlib.import_module("pelletbounds." + module.name)
from pelletbounds import linalg
pools = {}
for package, pattern, getter in [
        ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "libscipy_openblas*.so", "scipy_openblas_get_num_threads")]:
    site = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
    for path in glob.glob(os.path.join(site, package + ".libs", pattern)):
        pools[path] = getattr(ctypes.CDLL(path), getter)()
mapped = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        mapped = sorted(os.path.basename(fields[-1]) for fields in map(str.split, f)
                        if "libscipy_openblas" in fields[-1] and int(fields[2], 16) == 0)
changed = sorted(k for k in {*before, *os.environ} if before.get(k) != os.environ.get(k))
print(json.dumps({"threads": pools, "limited": list(linalg._BLAS_POOLS_LIMITED),
                  "mapped": mapped, "environ": {k: os.environ.get(k) for k in changed}}))
"""


def _probe_blas_threads(mode="library", **env_set):
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE, mode],
                          env=pelletbounds_env(**env_set), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
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


@pytest.mark.parametrize("var", [None, "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                 "OMP_NUM_THREADS"])
def test_library_modules_leave_the_environment_alone(var):
    report = _probe_blas_threads(**({var: "2"} if var else {}))
    assert report["environ"] == {}


def test_cli_sets_one_thread_before_numpy_loads():
    report = _probe_blas_threads("cli")
    assert set(report["threads"].values()) == {1}
    assert report["environ"] == {"OPENBLAS_NUM_THREADS": "1"}
    # OpenBLAS read the variable, so the ctypes calls had nothing to do
    assert report["limited"] == []


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_leaves_a_thread_count_in_the_environment_alone(var):
    report = _probe_blas_threads("cli", **{var: "2"})
    assert set(report["threads"].values()) == {2}
    assert report["environ"] == {}
    assert report["limited"] == []


# zgetrf and zgetrs on 20 seeded complex matrices of each size m = 1..39, as
# the hex of their outputs, after the import named by the argument: "own"
# imports pelletbounds.linalg alone and uses the LAPACK module it loaded,
# "scipy" imports scipy.linalg first and uses scipy.linalg.lapack.
_LAPACK_PROBE = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy":
    from scipy.linalg import lapack
from pelletbounds import linalg
if sys.argv[1] == "own":
    assert "scipy" not in sys.modules and "scipy.linalg" not in sys.modules
    lapack = linalg.lapack
rng = np.random.default_rng(20261018)
out = []
for m in range(1, 40):
    for _ in range(20):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        lu, piv, info = lapack.zgetrf(a)
        x, info2 = lapack.zgetrs(lu, piv, b)
        out.append([lu.tobytes().hex(), piv.tobytes().hex(), info, x.tobytes().hex(), info2])
print(json.dumps(out))
"""


def test_loaded_lapack_is_bit_identical_to_scipy_linalg():
    outputs = []
    for mode in ("own", "scipy"):
        proc = subprocess.run([sys.executable, "-c", _LAPACK_PROBE, mode], env=pelletbounds_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == 39 * 20
    assert outputs[0] == outputs[1]


def test_lapack_falls_back_to_scipy_linalg_without_the_extension_file(tmp_path):
    (tmp_path / "linalg").mkdir()
    from scipy.linalg import lapack as scipy_lapack
    for scipy_dir in (str(tmp_path), None):
        lapack = linalg._load_flapack(scipy_dir)
        assert lapack is scipy_lapack
        a = np.array([[0.0, 2.0], [1.0, 1.0j]])
        lu, piv, info = lapack.zgetrf(a)
        assert info == 0 and list(piv) == [1, 1]
        x, info = lapack.zgetrs(lu, piv, np.eye(2))
        assert info == 0 and np.allclose(a @ x, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("value", [*NormKind, "one", "inf", "two", "ONE", "Two", "bogus", 1, None,
                                   ["one"]])
def test_coerce_agrees_with_the_enum_lookup(value):
    # the dict lookup of an exact value returns what NormKind(str(v).lower())
    # returns, and anything else raises what it raises
    def outcome(fn):
        try:
            return fn()
        except ValueError as exc:
            return type(exc), str(exc)

    expected = outcome(lambda: NormKind(value) if isinstance(value, NormKind)
                       else NormKind(str(value).lower()))
    assert outcome(lambda: NormKind.coerce(value)) == expected


def test_norm_kind_hashes_by_identity_and_survives_pickling():
    # a member is a singleton, so its identity hash agrees with equality:
    # an unpickled member is the same member and finds its dict entry
    kept = {kind: kind.value for kind in NormKind}
    for kind in NormKind:
        assert hash(kind) == object.__hash__(kind)
        restored = pickle.loads(pickle.dumps(kind))
        assert restored is kind
        assert kept[restored] == kind.value
    assert kept[NormKind.coerce("one")] == "one" and kept[NormKind.coerce("TWO")] == "two"
    assert pickle.loads(pickle.dumps(kept)) == kept
    # a config of several kinds, as the forked ex1 workers receive it
    cfg = ExperimentConfig("ex1", trials=3, seed=5, m=2, norm_kinds=("one", "inf", "two"))
    restored = pickle.loads(pickle.dumps(cfg))
    assert restored == cfg and hash(restored) == hash(cfg)
    assert all(a is b for a, b in zip(restored.resolved_kinds, cfg.resolved_kinds))
