import cmath

import numpy as np
import pytest

from pelletbounds import (
    InvalidDegreeError,
    LacunaryPolynomial,
    SingularMatrixError,
    ZeroLeadingError,
    eigen_oracle,
    embed_even,
    embed_odd,
    evaluate,
    reciprocal,
    to_scalar,
)

from conftest import max_match_distance


def rand_lacunary(rng, n, real=True):
    while True:
        vals = rng.uniform(-50.0, 50.0, 6)
        if not real:
            vals = vals + 1j * rng.uniform(-50.0, 50.0, 6)
        if vals[0] * vals[3] != 0 and abs(vals[5]) > 1e-3:
            return LacunaryPolynomial(n, *vals)


def sample_points(rng, count=20):
    radii = 10.0 ** rng.uniform(-1.5, 1.5, count)
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)


def det2(mat):
    return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]


def test_construction_guards():
    with pytest.raises(InvalidDegreeError):
        LacunaryPolynomial(4, 1, 0, 0, 1, 0, 0)
    with pytest.raises(ZeroLeadingError):
        LacunaryPolynomial(8, 0.0, 1, 1, 1, 1, 1)
    with pytest.raises(ZeroLeadingError):
        LacunaryPolynomial(8, 1, 1, 1, 0.0, 1, 1)
    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            LacunaryPolynomial(8, 1, 1, 1, 1, bad, 1)


def test_degree_must_be_an_integer():
    # a float degree was truncated: 6.9 became 6
    for n in (6.9, 6.0, "6"):
        with pytest.raises(TypeError):
            LacunaryPolynomial(n, 1, 0, 0, 1, 0, 1)
    lac = LacunaryPolynomial(np.int64(6), 1, 0, 0, 1, 0, 1)
    assert lac.n == 6 and type(lac.n) is int


def test_parity_dispatch():
    lac = LacunaryPolynomial(8, 1, 0, 0, 1, 0, 1)
    with pytest.raises(InvalidDegreeError):
        embed_odd(lac)
    lac7 = LacunaryPolynomial(7, 1, 0, 0, 1, 0, 1)
    with pytest.raises(InvalidDegreeError):
        embed_even(lac7)


# finite clusters with a * alpha != 0 whose factors overflow: c - b^2/4a is
# about -2.5e309 in the first two, and b^2 overflows in the third
OVERFLOWING = [(7, 1e-300, 1e5, 1.0, 1.0, 1.0, 1.0), (8, 1e-300, 1e5, 1.0, 1.0, 1.0, 1.0),
               (8, 1e300, 1e300, -1e300, 1.0, 1.0, 1.0)]


@pytest.mark.parametrize("coeffs", OVERFLOWING)
def test_an_embedding_that_overflows_is_inapplicable(coeffs):
    lac = LacunaryPolynomial(*coeffs)
    with pytest.raises(SingularMatrixError, match="overflow"):
        embed_even(lac) if lac.n % 2 == 0 else embed_odd(lac)
    assert np.isfinite(to_scalar(lac).stack).all()

def test_even_shape_and_sparse_case():
    # b=c=0, beta=gamma=0: only the leading block and the antidiagonal z-block
    lac = LacunaryPolynomial(8, 4.0, 0.0, 0.0, 9.0, 0.0, 0.0)
    q = embed_even(lac)
    assert q.m == 2 and q.n == 4
    assert np.allclose(q.stack[4], 2.0 * np.eye(2))
    assert np.allclose(q.stack[3], np.zeros((2, 2)))
    assert np.allclose(q.stack[1], np.array([[0, -3.0], [3.0, 0]]))
    assert np.allclose(q.stack[0], np.zeros((2, 2)))
    for z in [0.5, 2.0 + 1.0j, -1.3]:
        assert det2(evaluate(q, z)) == pytest.approx(4.0 * z**8 + 9.0 * z**2, rel=1e-12)


def test_odd_sparse_case():
    lac = LacunaryPolynomial(5, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    q = embed_odd(lac)
    assert q.m == 2 and q.n == 3
    for z in [0.5, 2.0 + 1.0j, -1.3]:
        assert det2(evaluate(q, z)) == pytest.approx(z**5 + z**2, rel=1e-12)


def test_odd_leading_blocks_singular(rng):
    lac = rand_lacunary(rng, 9)
    q = embed_odd(lac)
    c = q.stack[-1]
    assert np.linalg.matrix_rank(c) == 1
    # the second-cluster diagonal block has a zero row as well
    e = np.diag(np.diag(q.stack[q.n - 2]))
    assert e[0, 0] == 0


def test_det_w_equals_p_at_zero(rng):
    for n in (6, 9):
        lac = rand_lacunary(rng, n)
        q = embed_even(lac) if n % 2 == 0 else embed_odd(lac)
        assert det2(evaluate(q, 0.0)) == pytest.approx(lac.gamma, rel=1e-12)


@pytest.mark.parametrize("n", [6, 8, 12, 20, 7, 5, 11, 21])
def test_determinant_identity(rng, n):
    for _ in range(5):
        lac = rand_lacunary(rng, n, real=(n % 3 == 0))
        q = embed_even(lac) if n % 2 == 0 else embed_odd(lac)
        for z in sample_points(rng):
            pz = lac(z)
            assert abs(det2(evaluate(q, z)) - pz) <= 1e-8 * max(1.0, abs(pz))


def test_determinant_identity_other_branch(rng):
    # negating either interior square root leaves the determinant unchanged
    lac = rand_lacunary(rng, 8)
    sa = cmath.sqrt(lac.a)
    dd = -cmath.sqrt(lac.c - lac.b**2 / (4 * lac.a))      # flipped branch
    ww = -cmath.sqrt(lac.gamma - lac.beta**2 / (4 * lac.alpha))
    salpha = cmath.sqrt(lac.alpha)
    b = np.diag([lac.b / (2 * sa) + 1j * dd, lac.b / (2 * sa) - 1j * dd])
    w = np.array([[0, -(lac.beta / (2 * salpha) + 1j * ww)],
                  [lac.beta / (2 * salpha) - 1j * ww, 0]])
    v = np.array([[0, -salpha], [salpha, 0]])
    half = lac.n // 2
    for z in sample_points(rng, count=10):
        mat = (np.diag([sa, sa]) * z**half + b * z**(half - 1) + v * z + w)
        pz = lac(z)
        assert abs(det2(mat) - pz) <= 1e-8 * max(1.0, abs(pz))


def test_even_eigenvalues_match_scalar_roots(rng):
    for n in (6, 8, 10, 12):
        lac = rand_lacunary(rng, n)
        q = embed_even(lac)
        got = eigen_oracle(q)
        expected = eigen_oracle(to_scalar(lac))
        assert got.count == 2 * (n // 2)
        assert max_match_distance(got.values, expected.values) < 1e-7


def test_odd_finite_eigenvalues_match_scalar_roots(rng):
    # Q_odd has a singular leading block, so go through the reciprocal: its
    # eigenvalues are the reciprocals of Q_odd's, with one extra zero for the
    # infinite eigenvalue.
    for n in (7, 9, 11):
        lac = rand_lacunary(rng, n)
        q = embed_odd(lac)
        rec = eigen_oracle(reciprocal(q))
        assert rec.count == n + 1
        assert rec.moduli[0] <= 1e-8 * max(1.0, rec.moduli[1])
        finite = 1.0 / rec.values[1:]
        expected = eigen_oracle(to_scalar(lac)).values
        assert max_match_distance(finite, expected) < 1e-7
