import math

import numpy as np
import pytest

from pelletbounds import InvalidShapeError, PositiveRoots, SignedRadialPolynomial, positive_roots


def radial(coeffs, k, nu):
    return SignedRadialPolynomial(coeffs, k, nu)


def scaled_residual(f, x):
    """|f(x)| normalized by max coefficient and max(1, x)^degree."""
    n = f.degree
    cmax = max(max(f.coeffs), f.neg_value)
    if x <= 1.0:
        return abs(f(x)) / cmax
    # evaluate f(x) / x^n by Horner in 1/x to avoid overflow
    u = 1.0 / x
    acc = 0.0
    for j in range(n + 1):
        c = -f.neg_value if j == f.neg_index else f.coeffs[j]
        acc = acc * u + c
    return abs(acc) / cmax


def test_factored_quadratic():
    r = positive_roots(radial([2.0, 0.0, 1.0], 1, 3.0))  # x^2 - 3x + 2
    assert r.kind == "two"
    assert r.x1 == pytest.approx(1.0, rel=1e-12)
    assert r.x2 == pytest.approx(2.0, rel=1e-12)


def test_negative_discriminant():
    r = positive_roots(radial([1.0, 0.0, 1.0], 1, 1.0))  # x^2 - x + 1
    assert r.kind == "none"


def test_cauchy_shape_single_root():
    r = positive_roots(radial([0.0, 0.0, 1.0], 0, 4.0))  # x^2 - 4
    assert r.kind == "one"
    assert r.x1 == pytest.approx(2.0, rel=1e-13)


def test_wide_quadratic():
    r = positive_roots(radial([1.0, 0.0, 1.0], 1, 100.0))  # x^2 - 100x + 1
    lo = (100 - math.sqrt(100**2 - 4)) / 2
    hi = (100 + math.sqrt(100**2 - 4)) / 2
    assert r.kind == "two"
    assert r.x1 == pytest.approx(lo, rel=1e-12)
    assert r.x2 == pytest.approx(hi, rel=1e-12)


def test_upper_shape_single_root():
    # 4 x^2 - x^5: all mass below the negative index
    r = positive_roots(radial([0.0, 0.0, 4.0, 0.0, 0.0, 0.0], 5, 1.0))
    assert r.kind == "one"
    assert r.x1 == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-13)


def test_residual_invariant_on_randoms():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(0, n + 1))
        coeffs = rng.uniform(0.0, 1.0, n + 1) * 10.0 ** rng.uniform(-2, 2, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.4] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 1.0
        nu = 10.0 ** rng.uniform(-2, 3)
        f = radial(coeffs, k, nu)
        r = positive_roots(f)
        for x in [v for v in (r.x1, r.x2) if v is not None]:
            assert scaled_residual(f, x) < 1e-10


def test_two_roots_negative_at_geometric_midpoint():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(200):
        n = int(rng.integers(3, 20))
        k = int(rng.integers(1, n))
        coeffs = rng.uniform(0.0, 2.0, n + 1)
        coeffs[k] = 0.0
        nu = 10.0 ** rng.uniform(0.5, 3)
        r = positive_roots(radial(coeffs, k, nu))
        if r.kind != "two":
            continue
        found += 1
        f = radial(coeffs, k, nu)
        assert f(math.sqrt(r.x1 * r.x2)) < 0.0
    assert found > 30


def test_single_root_sign_pattern():
    # k=0 shape: f negative below the root, positive above
    f = radial([0.0, 0.5, 1.0, 2.0], 0, 3.0)
    r = positive_roots(f)
    assert r.kind == "one"
    assert f(r.x1 * (1 + 1e-6)) > 0.0 > f(r.x1 * (1 - 1e-6))
    # mirrored for k=n
    g = radial([3.0, 0.5, 0.0], 2, 2.0)
    r = positive_roots(g)
    assert g(r.x1 * (1 - 1e-6)) > 0.0 > g(r.x1 * (1 + 1e-6))


def _oracle_positive_roots(f):
    """Companion-matrix real-root extraction, independent of positive_roots."""
    desc = []
    for j in range(f.degree, -1, -1):
        desc.append(-f.neg_value if j == f.neg_index else f.coeffs[j])
    desc = np.array(desc)
    desc = np.trim_zeros(desc, "f")
    roots = np.roots(desc)
    out = []
    deriv = np.polyder(desc)
    for z in roots:
        if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)) or z.real <= 0.0:
            continue
        x = z.real
        for _ in range(8):  # Newton polish with numpy Horner only
            fx = np.polyval(desc, x)
            dx = np.polyval(deriv, x)
            if dx == 0.0:
                break
            step = fx / dx
            x -= step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    return sorted(out)


def test_agreement_with_companion_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(0, n + 1))
        coeffs = rng.uniform(0.0, 1.0, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.3] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 1.0
        nu = 10.0 ** rng.uniform(-1, 2)
        f = radial(coeffs, k, nu)
        r = positive_roots(f)
        got = [v for v in (r.x1, r.x2) if v is not None]
        expected = _oracle_positive_roots(f)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-8)


def test_tangency_reports_none():
    # phi(x) = x + 1/x - nu has minimum 2 - nu at x = 1
    for delta in [0.0, 1e-12, -1e-12, 5e-11, -5e-11, 1e-10, -1e-10]:
        r = positive_roots(radial([1.0, 0.0, 1.0], 1, 2.0 + delta))
        assert r.kind == "none", delta


def test_marginal_flag():
    near = positive_roots(radial([1.0, 0.0, 1.0], 1, 2.0 + 1e-9))
    assert near.kind == "two" and near.marginal
    clear = positive_roots(radial([1.0, 0.0, 1.0], 1, 3.0))
    assert clear.kind == "two" and not clear.marginal
    nowhere_close = positive_roots(radial([1.0, 0.0, 1.0], 1, 1.0))
    assert nowhere_close.kind == "none" and not nowhere_close.marginal


def test_invalid_shapes():
    with pytest.raises(InvalidShapeError):
        radial([1.0, -0.5, 1.0], 1, 1.0)  # negative coefficient
    with pytest.raises(InvalidShapeError):
        radial([1.0, 2.0, 1.0], 1, 1.0)  # nonzero at neg_index
    with pytest.raises(InvalidShapeError):
        radial([0.0, 0.0, 0.0], 1, 1.0)  # no positive coefficient
    with pytest.raises(InvalidShapeError):
        radial([1.0, 0.0, 1.0], 1, 0.0)  # nonpositive negative value
    with pytest.raises(InvalidShapeError):
        PositiveRoots("two", x1=1.0, x2=1.0)


def test_huge_degree_no_overflow():
    coeffs = [0.0] * 101
    coeffs[0] = 1e8
    f = radial(coeffs, 100, 1e-8)
    r = positive_roots(f)
    assert r.kind == "one"
    assert r.x1 == pytest.approx((1e16) ** (1.0 / 100.0), rel=1e-10)


@pytest.mark.parametrize("coeffs, k, nu", [
    ([0.0, 5e-324], 0, 1.0),          # one root at 2e323
    ([1.0, 0.0], 1, 5e-324),          # one root at 2e323, the other shape
    ([1.0, 0.0, 1e-320], 1, 3.0),     # two roots, the right one near 3e320
    ([1e-320, 0.0, 1.0], 1, 3.0),     # two roots, the left one near 3e-321
])
def test_root_beyond_double_range_is_invalid_shape(coeffs, k, nu):
    with pytest.raises(InvalidShapeError):
        positive_roots(radial(coeffs, k, nu))


@pytest.mark.parametrize("coeffs, k, nu, root", [
    ([0.0, 1e-300], 0, 1.0, 1e300),
    ([1.0, 0.0], 1, 1e300, 1e-300),
    ([1.0, 0.0, 1e-300], 1, 1.0, 1e300),
])
def test_root_near_range_limit_is_found(coeffs, k, nu, root):
    # the walk's last step is clamped to the range limit, not skipped
    r = positive_roots(radial(coeffs, k, nu))
    got = r.x2 if r.kind == "two" else r.x1
    assert got == pytest.approx(root, rel=1e-10)
