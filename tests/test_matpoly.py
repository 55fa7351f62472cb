import collections
import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelletbounds import (
    MatrixPolynomial,
    NormKind,
    NotMonicError,
    OddDegreeError,
    SingularMatrixError,
    cauchy_bounds,
    companion,
    eigen_oracle,
    evaluate,
    from_json,
    left_precondition,
    monicize,
    pellet_gap,
    reciprocal,
    scalar_polynomial,
    shift_by_z,
    square_repartition,
    squared_bounds,
    squared_gap,
    to_json,
)
from pelletbounds import linalg, matpoly
from pelletbounds.bounds import squared_polynomial

from conftest import (criterion_1_instance, max_match_distance, rand_matrix, rand_poly,
                      wide_polynomials)


def test_construction_invariants(rng):
    with pytest.raises(ValueError):
        MatrixPolynomial([np.eye(2)])  # needs degree >= 1
    with pytest.raises(ValueError):
        MatrixPolynomial([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        MatrixPolynomial([np.eye(2), np.zeros((2, 2))])  # zero leading
    with pytest.raises(ValueError):
        MatrixPolynomial([np.array([[np.nan]]), np.array([[1.0]])])
    p = rand_poly(rng, 2, 3)
    assert p.m == 2 and p.n == 3
    with pytest.raises(ValueError):
        p.stack[0][0, 0] = 5.0  # frozen


def test_construction_copies_and_freezes_the_stack(rng):
    coeffs = [rand_matrix(rng, 2) for _ in range(3)]
    p = MatrixPolynomial(coeffs)
    before = p.stack.copy()
    coeffs[0][0, 0] = 99.0
    coeffs[2][1, 1] = -99.0
    assert np.array_equal(p.stack, before)
    assert p.stack.shape == (3, 2, 2) and p.stack.dtype == np.complex128
    assert not p.stack.flags.writeable
    with pytest.raises(ValueError):
        p.stack[0, 0, 0] = 5.0
    # a 3-D array is a valid coefficient stack and is copied as well
    arr = np.array(coeffs)
    q = MatrixPolynomial(arr)
    arr[1] = 0.0
    assert np.array_equal(q.stack[1], coeffs[1])
    # m and n are plain attributes, read-only like the stack and equal to its
    # shape, for the constructor's polynomials and the transforms' alike
    made = [p, q, monicize(p), left_precondition(p, 1), reciprocal(p), shift_by_z(p),
            square_repartition(monicize(p)), squared_polynomial(p, True)[0]]
    for r in made:
        assert (r.n + 1, r.m, r.m) == r.stack.shape
        for name in ("m", "n"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, 1)
    assert (monicize(p).m, shift_by_z(p).n, square_repartition(monicize(p)).m) == (2, 3, 4)


@pytest.mark.parametrize("coeffs", [
    [np.ones((2, 3)), np.ones((2, 3))],  # not square
    [np.array([1.0, 2.0]), np.array([3.0, 4.0])],  # 1-D coefficients
    [1.0, 2.0],  # scalars
    [np.zeros((0, 0)), np.zeros((0, 0))],  # empty
    [np.array([[np.inf]]), np.array([[1.0]])],
    [np.array([[complex(0.0, np.nan)]]), np.array([[1.0]])],
    [np.eye(2), np.array([[1.0, 0.0], [0.0, -np.inf]])],
], ids=["nonsquare", "1d", "scalars", "empty", "inf", "nan-imag", "inf-leading"])
def test_construction_rejects_bad_coefficients(coeffs):
    with pytest.raises(ValueError):
        MatrixPolynomial(coeffs)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_stacked_transforms_match_per_coefficient_solves(rng):
    p = rand_poly(rng, 4, 5, scale=3.0, monic=False)
    a = p.stack
    mon = monicize(p)
    for j in range(p.n):
        assert _rel_err(mon.stack[j], np.linalg.solve(a[-1], a[j])) <= 1e-13
    assert np.array_equal(mon.stack[-1], np.eye(4))
    for k in range(p.n + 1):
        pre = left_precondition(p, k)
        for j in range(p.n + 1):
            want = np.eye(4) if j == k else np.linalg.solve(a[k], a[j])
            assert _rel_err(pre.stack[j], want) <= 1e-13
    rec = reciprocal(p)
    for j in range(p.n):
        assert _rel_err(rec.stack[j], np.linalg.solve(a[0], a[p.n - j])) <= 1e-13
    assert np.array_equal(rec.stack[-1], np.eye(4))


# each transform with the index of the coefficient it factors
PIVOTED = {
    "monicize": (monicize, 3),
    "left_precondition": (lambda p: left_precondition(p, 1), 1),
    "reciprocal": (reciprocal, 0),
}


@pytest.mark.parametrize("name", sorted(PIVOTED))
def test_stacked_transforms_raise_on_singular_pivot(rng, name):
    transform, pivot = PIVOTED[name]
    coeffs = [rand_matrix(rng, 2) + 3 * np.eye(2) for _ in range(4)]
    coeffs[pivot] = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        transform(MatrixPolynomial(coeffs))


def test_evaluate_examples():
    p = MatrixPolynomial([-np.diag([1.0, 2.0]), np.eye(2)])  # Iz - diag(1,2)
    assert np.allclose(evaluate(p, 1.0), np.diag([0.0, -1.0]))
    assert np.allclose(evaluate(p, 0.0), -np.diag([1.0, 2.0]))


def test_evaluate_matches_power_sum(rng):
    p = rand_poly(rng, 2, 2, monic=True)
    z = 2.0
    naive = sum(c * z**j for j, c in enumerate(p.stack))
    assert np.allclose(evaluate(p, z), naive, atol=1e-13)


def test_monicize():
    p = MatrixPolynomial([np.diag([4.0, 6.0]), 2 * np.eye(2)])
    q = monicize(p)
    assert np.allclose(q.stack[1], np.eye(2))
    assert np.allclose(q.stack[0], np.diag([2.0, 3.0]))


def test_monicize_identity_at_random_points(rng):
    a2 = rand_matrix(rng, 2) + np.eye(2)
    p = MatrixPolynomial([rand_matrix(rng, 2), rand_matrix(rng, 2), a2])
    q = monicize(p)
    inv = np.linalg.inv(a2)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert np.allclose(evaluate(q, z), inv @ evaluate(p, z), atol=1e-11)


def test_monicize_singular_leading():
    p = MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError):
        monicize(p)


def test_memo_keeps_repr_equality_and_index_check(rng):
    p = rand_poly(rng, 2, 4)
    q = MatrixPolynomial(p.stack)
    before = repr(p), p == q, p == p
    for j in range(p.n + 1):
        assert left_precondition(p, j) is left_precondition(p, j)
    assert monicize(p) is left_precondition(p, p.n)
    pellet_gap(p, 2, "two", precondition=True)
    squared_bounds(p, "one", use_reciprocal=True)
    assert (repr(p), p == q, p == p) == before
    for bad in (-1, p.n + 1):
        with pytest.raises(ValueError):
            left_precondition(p, bad)


def test_singular_pivot_raises_on_every_call():
    p = MatrixPolynomial([np.diag([1.0, 0.0]), np.eye(2), np.eye(2)])
    for _ in range(3):
        with pytest.raises(SingularMatrixError):
            left_precondition(p, 0)
        with pytest.raises(SingularMatrixError):
            reciprocal(p)
        for kind in NormKind:
            with pytest.raises(SingularMatrixError):
                matpoly._nu(p, 0, kind)


class _CountingLapack:
    """``linalg.lapack`` with a count of the calls of each routine."""

    def __init__(self, lapack):
        self._lapack = lapack
        self.calls = collections.Counter()

    def __getattr__(self, name):
        routine = getattr(self._lapack, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted


def test_one_factorization_per_index(rng, monkeypatch):
    # nu_j in every kind, A_j^-1 P, the reciprocal and the oracle's monicize
    # all solve from one kept LU of A_j
    lapack = _CountingLapack(linalg.lapack)
    monkeypatch.setattr(linalg, "lapack", lapack)

    def ask(p, indices):
        for j in indices:
            for kind in NormKind:
                matpoly._nu(p, j, kind)
            left_precondition(p, j)
        reciprocal(p)
        eigen_oracle(p)

    p = rand_poly(rng, 3, 4, monic=False)
    for _ in range(2):
        ask(p, range(p.n + 1))
    assert lapack.calls["zgetrf"] == p.n + 1
    # a monic P's A_n = I needs no LU: not for its oracle, nor for nu_n or
    # A_n^-1 P, which is P itself
    lapack.calls.clear()
    monic = rand_poly(rng, 3, 4)
    ask(monic, range(monic.n))
    assert lapack.calls["zgetrf"] == monic.n
    ask(monic, [monic.n])
    assert lapack.calls["zgetrf"] == monic.n
    assert left_precondition(monic, monic.n) is monic


def _sweep_queries(p, n):
    """Every query the criterion-1 sweep asks of one instance, in all three
    norm kinds, with the oracle."""
    eigen_oracle(p)
    for kind in NormKind:
        for pre in (False, True):
            cauchy_bounds(p, kind, precondition=pre)
        for use_reciprocal in (False, True):
            squared_bounds(p, kind, use_reciprocal=use_reciprocal)
        squared_bounds(p, kind, precondition_index=0)
        for pre in (False, True):
            for k in range(1, n):
                pellet_gap(p, k, kind, precondition=pre)
            for k in range(2, n - 1, 2):
                squared_gap(p, k, kind, precondition=pre)


def test_kept_data_is_computed_once(monkeypatch):
    # over the sweep's queries on one polynomial and on every polynomial
    # derived from it, each LU, nu_j and norm list is computed once, and
    # asking everything again computes nothing; calls are told apart by the
    # address of the coefficient or stack they read (every such array is
    # kept alive by P) and by the kept LU they solve from
    calls = collections.Counter()

    def counted(name, fn, key):
        def wrapper(*args):
            calls[name, *key(*args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_factor", counted("factor", linalg._factor,
                                                   lambda a, scale: (a.ctypes.data,)))
    monkeypatch.setattr(linalg, "_inv_norm_inv", counted("nu", linalg._inv_norm_inv,
                                                         lambda f, kind: (id(f), kind)))
    monkeypatch.setattr(linalg, "norm", counted("norm", linalg.norm,
                                                lambda a, kind: (a.ctypes.data, kind)))
    p, n = criterion_1_instance(13)  # A_n is not I, and n = 6 is even
    assert not p.is_monic() and n == 6
    _sweep_queries(p, n)
    first = dict(calls)
    assert {name for name, *_ in first} == {"factor", "nu", "norm"}
    assert max(first.values()) == 1
    _sweep_queries(p, n)
    assert calls == first


def test_left_precondition_sets_identity(rng):
    p = rand_poly(rng, 3, 4)
    for k in range(p.n + 1):
        q = left_precondition(p, k)
        assert np.array_equal(q.stack[k], np.eye(3))


def _transform_outputs(p, n):
    """Every polynomial the transforms make from P: A_j^-1 P for each j,
    the reciprocal, Q, Q_R and B_0^-1 Q, less those that raise."""
    makers = [lambda j=j: left_precondition(p, j) for j in range(n + 1)]
    makers += [lambda: reciprocal(p), lambda: squared_polynomial(p, False)[0],
               lambda: squared_polynomial(p, True)[0],
               lambda: left_precondition(squared_polynomial(p, False)[0], 0)]
    for make in makers:
        try:
            yield make()
        except SingularMatrixError:
            continue


def test_identity_flags_set_by_transforms_agree_with_the_stack():
    # a transform marks the coefficient it sets to I without a test, and the
    # mark makes nu = 1.0 and I^-1 P = P: each mark, and each flag tested
    # after it, must say what the stack holds
    preset = 0
    for i in range(144):
        for q in _transform_outputs(*criterion_1_instance(i)):
            preset += sum(flag is not None for flag in q._identities)
            for j in range(q.n + 1):
                assert matpoly._is_identity(q, j) == np.array_equal(q.stack[j], np.eye(q.m)), (i, j)
    assert preset > 1000

def test_reciprocal_scalar():
    p = scalar_polynomial([2.0, -3.0, 1.0])  # z^2 - 3z + 2, roots {1, 2}
    pr = reciprocal(p)
    assert np.allclose([c[0, 0] for c in pr.stack], [0.5, -1.5, 1.0])
    moduli = eigen_oracle(pr).moduli
    assert moduli == pytest.approx([0.5, 1.0], rel=1e-12)


def test_reciprocal_identity_coeffs_reversed(rng):
    coeffs = [np.eye(2), rand_matrix(rng, 2), rand_matrix(rng, 2) + np.eye(2)]
    p = MatrixPolynomial(coeffs)  # A_0 = I
    pr = reciprocal(p)
    for j in range(3):
        assert np.allclose(pr.stack[j], coeffs[2 - j], atol=1e-14)


def test_double_reciprocal_matches_monicize(rng):
    p = rand_poly(rng, 2, 3, monic=False)
    p = MatrixPolynomial([c + np.eye(2) for c in p.stack])  # keep ends nonsingular
    prr = reciprocal(reciprocal(p))
    a = eigen_oracle(prr).values
    b = eigen_oracle(monicize(p)).values
    assert max_match_distance(a, b) < 1e-8


def test_reciprocal_singular_constant():
    p = MatrixPolynomial([np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(SingularMatrixError):
        reciprocal(p)


def test_identity_pivot_keeps_no_reference_to_its_polynomial(rng):
    # I^-1 P is P, decided before its slot is read: a P kept in its own slots
    # would be a cycle that only a full garbage collection frees
    monic = rand_poly(rng, 2, 3)
    assert left_precondition(monic, monic.n) is monic
    assert monicize(monic) is monic
    for kind in NormKind:
        assert matpoly._nu(monic, monic.n, kind) == 1.0
    squared_bounds(monic, "one", use_reciprocal=True)
    kept = [value for name, slots in vars(monic).items() if name not in ("stack", "m", "n")
            for value in (slots.values() if isinstance(slots, dict) else slots)]
    assert kept and not any(value is monic for value in kept)
    ref = weakref.ref(monic)
    gc.disable()
    try:
        del monic
        assert ref() is None
    finally:
        gc.enable()


def test_underflowed_preconditioned_leading_coefficient_is_singular():
    # A_0^-1 A_2 = 1e-400 is zero in doubles: the pivot cannot carry P, the
    # same verdict as a solve that overflows, not an invalid polynomial
    eye = np.eye(2)
    for p in (scalar_polynomial([1e200, 1.0, 1e-200]),
              MatrixPolynomial([1e200 * eye, eye, np.diag([1e-200, 0.0])])):
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match=r"A_0\^-1 A_2 underflows"):
                left_precondition(p, 0)
            with pytest.raises(SingularMatrixError, match=r"A_0\^-1 A_2 underflows"):
                reciprocal(p)
        assert np.array_equal(left_precondition(p, 1).stack[1], np.eye(p.m))


def test_every_coefficient_lost_to_underflow_is_singular():
    # A_2^-1 A_0 of 1e200 z^2 + z + a_0: 1e-400 is zero and 1e-310 is
    # subnormal, so A_0 is lost, as is the constant term of the monicized
    # polynomial and the oracle built from it; 1e-300 is a normal double and
    # is kept, as is a zero A_1 or an A_0 with one entry left normal
    eye = np.eye(2)
    for a_0 in (1e-200, 1e-110):
        for p in (scalar_polynomial([a_0, 1.0, 1e200]),
                  MatrixPolynomial([np.diag([a_0, 0.0]), eye, 1e200 * eye])):
            for transform in (lambda: left_precondition(p, 2), lambda: monicize(p),
                              lambda: eigen_oracle(p)):
                with pytest.raises(SingularMatrixError, match=r"A_2\^-1 A_0 underflows"):
                    transform()
    for p in (scalar_polynomial([1e-100, 0.0, 1e200]),
              MatrixPolynomial([np.diag([1e-100, 1e-250]), np.zeros((2, 2)), 1e200 * eye])):
        q = left_precondition(p, 2)
        assert abs(q.stack[0, 0, 0]) == pytest.approx(1e-300, rel=1e-15)
        assert not q.stack[1].any()


def test_a_preconditioned_polynomial_is_refused_exactly_where_a_coefficient_is_lost():
    # on polynomials whose entries span 10^-300..10^300, a pivot that passes
    # the pivot rule and a solve that stays finite give A_k^-1 P unless some
    # A_j != 0 comes out with no entry of normal magnitude, or with a 1- or
    # infinity norm past the double range; every A_j of the first kind has
    # an infinity norm below 2^-960 ||A_k||, the only ones whose entries
    # left_precondition reads for it
    formed = refused = overflowed = 0
    for p in wide_polynomials(5, 1000, 2, 6, span=300.0):
        norms = linalg.norm(p.stack, NormKind.INF)
        for k in range(p.n + 1):
            try:
                stack = linalg._solve(matpoly._lu(p, k), p.stack)
            except SingularMatrixError:
                continue
            stack[k] = np.eye(p.m)
            lost = [j for j in range(p.n + 1) if j != k and norms[j] > 0.0
                    and np.abs(stack[j]).max() < np.finfo(float).tiny]
            over = [j for j in range(p.n + 1)
                    if max(linalg.norm(stack[j], kind) for kind in ("one", "inf")) == np.inf]
            assert all(norms[j] < 2.0 ** -960 * norms[k] for j in lost)
            if lost or over:
                refused += 1
                overflowed += min(lost + over) in over
                with pytest.raises(SingularMatrixError,
                                   match=f"A_{k}\\^-1 A_{min(lost + over)} (underflows|overflows)"):
                    left_precondition(p, k)
            else:
                formed += 1
                assert np.array_equal(left_precondition(p, k).stack, stack)
    # 1,036 formed and 745 refused, one of them for a norm past the double
    # range
    assert formed > 1000 and refused > 700 and overflowed


def test_shift_by_z():
    p = scalar_polynomial([1.0, 1.0])  # z + 1
    sp = shift_by_z(p)  # z^2 + z
    assert [c[0, 0] for c in sp.stack] == [0.0, 1.0, 1.0]
    assert eigen_oracle(sp).moduli == pytest.approx([0.0, 1.0], abs=1e-12)


def test_shift_by_z_adds_m_zero_eigenvalues(rng):
    p = rand_poly(rng, 2, 3)
    sp = shift_by_z(p)
    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    assert np.allclose(evaluate(sp, z), z * evaluate(p, z), atol=1e-12)
    shifted = sorted(eigen_oracle(sp).values, key=abs)
    assert np.allclose(shifted[:2], 0.0, atol=1e-10)
    assert max_match_distance(shifted[2:], eigen_oracle(p).values) < 1e-8


def test_companion_scalar_pattern():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    c = companion(p)
    assert np.allclose(c, np.array([[0.0, -2.0], [1.0, 3.0]]))
    assert sorted(np.abs(np.linalg.eigvals(c))) == pytest.approx([1.0, 2.0])


def test_companion_block_structure(rng):
    a0, a1 = rand_matrix(rng, 2), rand_matrix(rng, 2)
    p = MatrixPolynomial([a0, a1, np.eye(2)])
    c = companion(p)
    assert c.shape == (4, 4)
    assert np.allclose(c[2:, :2], np.eye(2))
    assert np.allclose(c[:2, 2:], -a0)
    assert np.allclose(c[2:, 2:], -a1)


def test_companion_requires_monic(rng):
    p = rand_poly(rng, 2, 2, monic=False)
    with pytest.raises(NotMonicError):
        companion(p)


def test_monic_means_a_leading_coefficient_of_exactly_identity():
    near = MatrixPolynomial([np.eye(2), np.eye(2), (1.0 + 1e-14) * np.eye(2)])
    assert not near.is_monic()
    for transform in (companion, square_repartition):
        with pytest.raises(NotMonicError):
            transform(near)
    assert MatrixPolynomial([np.eye(2), np.eye(2), np.eye(2)]).is_monic()
    assert monicize(near).is_monic()


def test_square_repartition_scalar_z2_minus_1():
    p = scalar_polynomial([-1.0, 0.0, 1.0])
    q = square_repartition(p)
    assert q.m == 2 and q.n == 1
    assert np.allclose(q.stack[0], -np.eye(2))
    assert eigen_oracle(q).moduli == pytest.approx([1.0, 1.0])


def test_square_repartition_block_formulas(rng):
    p = rand_poly(rng, 2, 4)
    q = square_repartition(p)
    a = p.stack
    # B_0 upper-left block is A_0 exactly, and the displayed products hold
    assert np.array_equal(q.stack[0][:2, :2], a[0])
    assert np.allclose(q.stack[0][:2, 2:], -a[0] @ a[3])
    assert np.allclose(q.stack[0][2:, 2:], -a[1] @ a[3] + a[0])
    assert np.allclose(q.stack[1][:2, 2:], -a[2] @ a[3] + a[1])


def test_square_repartition_keeps_the_positive_zero_of_the_added_block():
    # -A_0 A_{n-1} is -0.0 here (the batched product of a zero A_0 gives
    # -0.0 real parts against this A_1); B_0's top right is that product
    # plus its +0.0 block, so +0.0, on which the 2-norm's SVD depends
    m = 2
    a1 = np.full((m, m), 1.0 - 1.0j)
    assert np.signbit((-np.zeros((1, m, m), dtype=complex) @ a1).real).any()
    p = MatrixPolynomial([np.zeros((m, m)), a1, np.eye(m)])
    # the same block through the odd-degree route, whose shift by z makes A_0 = 0
    odd = MatrixPolynomial([a1, np.eye(m)])
    for q in (square_repartition(p), squared_polynomial(odd, False)[0]):
        top_right = q.stack[0, :m, m:]
        assert not np.signbit(top_right.real).any() and not np.signbit(top_right.imag).any()
        assert not top_right.any()


def test_square_repartition_rejects_bad_input(rng):
    with pytest.raises(OddDegreeError):
        square_repartition(rand_poly(rng, 2, 3))
    with pytest.raises(NotMonicError):
        square_repartition(rand_poly(rng, 2, 4, monic=False))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [
    [1e200, 1e200, 1.0],  # A_0 A_1 = 1e400
    [1e308, -1e308, 0.0, 1.0, 1.0],  # -A_1 A_3 + A_0 = 2e308
], ids=["product", "sum"])
def test_square_repartition_overflow_is_singular(coeffs):
    # Q cannot hold these entries: the route is inapplicable, without a warning
    with pytest.raises(SingularMatrixError, match="overflow the double range"):
        square_repartition(scalar_polynomial(coeffs))


@pytest.mark.parametrize("m,n", [(1, 4), (2, 2), (2, 6), (3, 4)])
def test_square_repartition_squares_eigenvalues(rng, m, n):
    p = rand_poly(rng, m, n)
    q = square_repartition(p)
    squares = eigen_oracle(p).values ** 2
    assert max_match_distance(squares, eigen_oracle(q).values) < 1e-8


def test_q_reciprocal_scalar():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    qr = squared_polynomial(p, True)[0]
    assert qr.m == 2 and qr.n == 1
    assert eigen_oracle(qr).moduli == pytest.approx([0.25, 1.0], rel=1e-10)


def test_q_reciprocal_reciprocal_squares(rng):
    p = rand_poly(rng, 2, 4)
    qr = squared_polynomial(p, True)[0]
    expected = 1.0 / eigen_oracle(p).values ** 2
    assert max_match_distance(expected, eigen_oracle(qr).values) < 1e-7


def test_q_reciprocal_singular_constant():
    p = MatrixPolynomial([np.diag([1.0, 0.0]), rand_matrix(np.random.default_rng(0), 2), np.eye(2)])
    with pytest.raises(SingularMatrixError):
        squared_polynomial(p, True)


def test_json_round_trip_bit_exact(rng):
    p = rand_poly(rng, 3, 4, monic=False)
    text = to_json(p)
    q = from_json(text)
    assert q.m == p.m and q.n == p.n
    for c1, c2 in zip(p.stack, q.stack):
        assert np.array_equal(c1, c2)
    # a second serialization is byte-identical
    assert to_json(q) == text


# finite doubles, with the signed zeros, subnormals and 1e+-300 always in reach
_JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _stacks(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    size = 2 * m * m * (n + 1)
    parts = draw(st.lists(_JSON_FLOATS, min_size=size, max_size=size))
    stack = np.array(parts).view(np.complex128).reshape(n + 1, m, m)
    if not stack[-1].any():
        stack[-1, 0, 0] = draw(st.sampled_from([1.0, -5e-324, 1e300]))
    return stack


def _reference_json(p):
    """The serialization as one comprehension per level of the schema."""
    coeffs = [[[[float(v.real), float(v.imag)] for v in row] for row in c] for c in p.stack]
    return json.dumps({"m": p.m, "n": p.n, "coeffs": coeffs})


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_json_round_trip_random_stacks(stack):
    p = MatrixPolynomial(stack)
    text = to_json(p)
    assert text == _reference_json(p)
    assert from_json(text).stack.tobytes() == p.stack.tobytes()


def test_from_json_validates():
    with pytest.raises(ValueError):
        from_json(json.dumps({"m": 2, "n": 2, "coeffs": [[[[0.0, 0.0]]]]}))


def test_from_json_refuses_an_entry_beyond_the_double_range_as_not_finite():
    # json reads 1e400 as inf and a 401-digit integer exactly; both lie past
    # the double range, and both are refused with the constructor's message
    for big in ("1e400", "1" + "0" * 400, "-1" + "0" * 400):
        text = '{"m": 1, "n": 1, "coeffs": [[[[%s, 0.0]]], [[[1.0, 0.0]]]]}' % big
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            from_json(text)
