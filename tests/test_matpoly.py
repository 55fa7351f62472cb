import collections
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
    companion,
    eigen_oracle,
    evaluate,
    from_json,
    left_precondition,
    left_solve,
    monicize,
    pellet_gap,
    reciprocal,
    scalar_polynomial,
    shift_by_z,
    square_repartition,
    squared_bounds,
    to_json,
)
from pelletbounds import bounds, linalg
from pelletbounds.bounds import squared_polynomial

from conftest import max_match_distance, rand_matrix, rand_poly


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
        assert _rel_err(mon.stack[j], left_solve(a[-1], a[j])) <= 1e-13
    assert np.array_equal(mon.stack[-1], np.eye(4))
    for k in range(p.n + 1):
        pre = left_precondition(p, k)
        for j in range(p.n + 1):
            want = np.eye(4) if j == k else left_solve(a[k], a[j])
            assert _rel_err(pre.stack[j], want) <= 1e-13
    rec = reciprocal(p)
    for j in range(p.n):
        assert _rel_err(rec.stack[j], left_solve(a[0], a[p.n - j])) <= 1e-13
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
                bounds._nu(p, 0, kind)


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
                bounds._nu(p, j, kind)
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


def test_left_precondition_sets_identity(rng):
    p = rand_poly(rng, 3, 4)
    for k in range(p.n + 1):
        q = left_precondition(p, k)
        assert np.array_equal(q.stack[k], np.eye(3))


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
    # I^-1 P is P, decided before the memo: a P kept in its own memo would be
    # a cycle that only a full garbage collection frees
    monic = rand_poly(rng, 2, 3)
    assert left_precondition(monic, monic.n) is monic
    assert monicize(monic) is monic
    for kind in NormKind:
        assert bounds._nu(monic, monic.n, kind) == 1.0
    assert not any(value is monic for value in monic._memo.values())
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
            with pytest.raises(SingularMatrixError, match="underflows to zero"):
                left_precondition(p, 0)
            with pytest.raises(SingularMatrixError, match="underflows to zero"):
                reciprocal(p)
        assert np.array_equal(left_precondition(p, 1).stack[1], np.eye(p.m))


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
