import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelletbounds import InvalidShapeError, PositiveRoots, SignedRadialPolynomial, positive_roots, rootloc


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


@pytest.mark.parametrize("coeffs, k, nu, message", [
    ([1.0], 0, 1.0, "need degree >= 1"),
    ([1.0, 0.0], 2, -1.0, "neg_index 2 out of range"),
    ([math.nan, 0.0], 1, 1.0, "coefficients must be finite"),
    ([math.inf, 1.0], 1, math.nan, "coefficients must be finite"),
    ([-1.0, 1.0], 1, 0.0, "coefficients must be finite"),
    ([1.0, 1.0], 1, 0.0, "coeffs\\[neg_index\\] must be zero"),
    ([1.0, 0.0], 1, math.inf, "neg_value must be positive"),
    ([0.0, 0.0], 1, 1.0, "need at least one positive coefficient"),
])
def test_first_failed_check_names_the_error(coeffs, k, nu, message):
    with pytest.raises(InvalidShapeError, match=message):
        radial(coeffs, k, nu)


def test_neg_index_must_be_an_integer():
    # a float index was truncated: 1.9 used k = 1
    for k in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            radial([1.0, 0.0, 1.0], k, 1.0)
    f = radial([1.0, 0.0, 1.0], np.int64(1), 1.0)
    assert f.neg_index == 1 and type(f.neg_index) is int


def test_log_form_is_no_dataclass_field():
    # repr, equality, hashing and dataclasses.replace see the three
    # arguments only; replace builds the log form anew
    f = radial([1, 0, 2], 1, 3)
    assert [fld.name for fld in dataclasses.fields(f)] == ["coeffs", "neg_index", "neg_value"]
    assert repr(f) == "SignedRadialPolynomial(coeffs=(1.0, 0.0, 2.0), neg_index=1, neg_value=3.0)"
    assert f == radial([1.0, 0.0, 2.0], 1, 3.0) and hash(f) == hash(radial([1, 0, 2], 1, 3))
    g = dataclasses.replace(f, neg_value=4.0)
    assert g == radial([1.0, 0.0, 2.0], 1, 4.0) and g._lognu == 0.0


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


@pytest.mark.parametrize("coeffs, k, nu", [
    ([1e-300, 0.0, 1e300], 1, 1.0),   # 1e-300 / 1e300 underflows
    ([1e300, 0.0, 1e300], 1, 1e-30),  # so does nu / 1e300
])
def test_underflowing_terms_are_kept(coeffs, k, nu):
    # phi = c_0/x + c_2 x - nu stays positive: its minimum is 1 in the first
    # shape (at x = 1e-300) and 2e300 in the second
    assert positive_roots(radial(coeffs, k, nu)).kind == "none"


@pytest.mark.parametrize("coeffs, k, nu, root", [
    ([0.0, 1e-300], 0, 1.0, 1e300),
    ([1.0, 0.0], 1, 1e300, 1e-300),
    ([1.0, 0.0, 1e-300], 1, 1.0, 1e300),
    ([0.0, 1.0], 0, 1e305, 1e305),   # within e^10 of the double range's ends
    ([1.0, 0.0], 1, 1e305, 1e-305),
])
def test_root_near_range_limit_is_found(coeffs, k, nu, root):
    # the walk's last step is clamped to the range limit, not skipped
    r = positive_roots(radial(coeffs, k, nu))
    got = r.x2 if r.kind == "two" else r.x1
    assert got == pytest.approx(root, rel=1e-10)


def _log_ratio(c, scale):
    """log(c / scale), as log c - log scale where the quotient underflows."""
    r = c / scale
    return math.log(r) if r >= sys.float_info.min else math.log(c) - math.log(scale)


def _envelope(f, t):
    """T(t) = max_j (a_j + (j - k) t) - log(nu) and the number N of terms,
    on the coefficients normalized by the largest (every positive one kept)."""
    scale = max(max(f.coeffs), f.neg_value)
    lines = [_log_ratio(c, scale) + (j - f.neg_index) * t
             for j, c in enumerate(f.coeffs) if c > 0.0]
    return (max(lines) - _log_ratio(f.neg_value, scale), len(lines),
            max(abs(v) for v in lines))


@st.composite
def _wide_shapes(draw):
    """Radial polynomials of degree 1..30 with coefficients 1e-250..1e250."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(0, n))
    exponent = st.floats(-250.0, 250.0)
    coeffs = [10.0 ** draw(exponent) if draw(st.booleans()) else 0.0 for _ in range(n + 1)]
    coeffs[k] = 0.0
    if not any(coeffs):
        coeffs[(k + 1) % (n + 1)] = 10.0 ** draw(exponent)
    return radial(coeffs, k, 10.0 ** draw(exponent))


@settings(max_examples=200, deadline=None)
@given(_wide_shapes(), st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=5))
def test_envelope_bounds_h_and_brackets_its_roots(f, ts):
    for t in ts:
        env, n_terms, size = _envelope(f, t)
        slack = 1e-13 * (1.0 + size + abs(f._lognu))
        h = f._stats(t)[0]
        assert env - slack <= h <= env + math.log(n_terms) + slack
    ds = [d for _, d in f._terms]
    if min(ds) < 0.0 < max(ds):
        # the chord test is the envelope's minimum, reached at t_c
        delta, tc = f._vertex()
        for t in [tc, *ts]:
            env, _, size = _envelope(f, t)
            assert env >= delta - 1e-12 * (1.0 + size + abs(f._lognu))
        assert _envelope(f, tc)[0] == pytest.approx(delta, rel=1e-12, abs=1e-12)
    # T is zero at the finite ends of [tau1, tau2] when T <= 0 somewhere,
    # and every root lies inside, where T <= 0 <= T + log N, ...
    for tau in (f._tau1, f._tau2):
        if math.isfinite(tau) and f._tau1 <= f._tau2:
            env, _, size = _envelope(f, tau)
            assert abs(env) <= 1e-12 * (1.0 + size + abs(f._lognu))
    try:
        r = positive_roots(f)
    except InvalidShapeError:  # a root beyond double range
        return
    for x in (r.x1, r.x2):
        if x is not None:
            t = math.log(x)
            env, n_terms, size = _envelope(f, t)
            slack = 1e-12 * (1.0 + size + abs(f._lognu))
            assert env - slack <= 0.0 <= env + math.log(n_terms) + slack
            assert f._tau1 - slack <= t <= f._tau2 + slack
            # ... and within log N / min|j - k| of the nearer end
            step = math.log(len(ds)) / min(abs(d) for d in ds)
            assert min(t - f._tau1, f._tau2 - t) <= step + slack


def test_stats_match_direct_sums():
    # h, h' and h'' from plain sums over x^(j-k), at moderate scales where
    # they cannot overflow, against the log-sum-exp evaluation
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(0, n + 1))
        coeffs = rng.uniform(0.0, 1.0, n + 1) * 10.0 ** rng.uniform(-3, 3, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.3] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 1.0
        f = radial(coeffs, k, 10.0 ** rng.uniform(-2, 3))
        t = rng.uniform(-2.0, 2.0)
        d = np.arange(n + 1) - k
        terms = coeffs * np.exp(d * t)
        mean = terms @ d / terms.sum()
        expected = (math.log(terms.sum() / f.neg_value), mean, terms @ (d - mean) ** 2 / terms.sum())
        assert f._stats(t) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_every_evaluator_of_h_is_counted(h_evaluations):
    f = radial([1.0, 0.0, 1.0], 1, 3.0)
    f._newton(0.5)
    f._stats(0.25)
    assert h_evaluations == [0.5, 0.25]


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0 - 1e-9, 2.0 + 1e-9, 3.0])
def test_closed_form_minimum_decides_verdict(nu, h_evaluations):
    # x^2 - nu x + 1 at k = 1: h = log(x + 1/x) - log(nu) has its minimum
    # log(2 / nu) at x = 1
    hmin = math.log(2.0 / nu)
    r = positive_roots(radial([1.0, 0.0, 1.0], 1, nu))
    assert r.kind == ("two" if hmin < -rootloc.GAP_RTOL else "none")
    assert r.marginal == (abs(hmin) < 10.0 * rootloc.GAP_RTOL)
    if nu < 1.0:
        # the envelope's minimum delta = -log(nu) > 0 settles it unevaluated
        assert h_evaluations == []
    if r.kind == "two":
        disc = math.sqrt(nu * nu - 4.0)
        assert r.x1 == pytest.approx((nu - disc) / 2.0, rel=1e-6)
        assert r.x2 == pytest.approx((nu + disc) / 2.0, rel=1e-6)


@pytest.mark.parametrize("coeffs, k, nu, root", [
    ([0.0, 0.0, 0.0, 2.0], 0, 16.0, 2.0),
    ([3.0, 0.0, 0.0, 0.0, 0.0], 4, 1e-200, 1.316074012952499e+50),
    ([0.0, 7e-300], 0, 1.0, 1.4285714285714225e+299),
])
def test_one_term_shape_starts_on_its_root(coeffs, k, nu, root):
    # with one term h is the envelope itself, so the search starts on the
    # root; these are the values of the search from t = 0, bit for bit
    r = positive_roots(radial(coeffs, k, nu))
    assert r.kind == "one" and r.x1 == root


def test_tiny_negative_term_does_not_overflow():
    # nu / scale below 1e-308 puts the envelope minimum past exp's range
    r = positive_roots(radial([1.0, 0.0, 1.0], 1, 1e-320))
    assert r.kind == "none" and not r.marginal


def _phi_min(f):
    """Minimum of the normalized phi = f / x^k over x > 0, from the positive
    real roots of x f'(x) - k f(x) (np.roots); None if there are none."""
    desc = np.array([-f.neg_value if j == f.neg_index else f.coeffs[j] for j in range(f.degree, -1, -1)])
    crit = np.polysub(np.polymul([1.0, 0.0], np.polyder(desc)), f.neg_index * desc)
    xs = [z.real for z in np.roots(np.trim_zeros(crit, "f"))
          if z.real > 0.0 and abs(z.imag) <= 1e-8 * abs(z.real)]
    scale = max(max(f.coeffs), f.neg_value)
    return min((np.polyval(desc, x) / x ** f.neg_index / scale for x in xs), default=None)


def test_agreement_with_companion_oracle_spiked():
    # the sweep's spike recipe: one coefficient raised by 10^1 .. 10^4, on
    # the negative term half the time, so that most gaps are settled at the
    # envelope's vertex
    rng = np.random.default_rng(13)
    kinds = {"none": 0, "two": 0}
    for _ in range(300):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, n))
        coeffs = rng.uniform(0.0, 1.0, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.3] = 0.0
        coeffs[k] = 0.0
        if not coeffs[:k].any() or not coeffs[k + 1:].any():
            continue
        nu = rng.uniform(0.0, 1.0) + 1e-3
        spike = 10.0 ** rng.uniform(1.0, 4.0)
        s = k if rng.uniform() < 0.5 else int(rng.integers(1, n))
        if s == k:
            nu += spike
        else:
            coeffs[s] += spike
        f = radial(coeffs, k, nu)
        phimin = _phi_min(f)
        if phimin is None or abs(phimin) <= 1e-6:
            continue
        r = positive_roots(f)
        assert r.kind == ("two" if phimin < 0.0 else "none")
        kinds[r.kind] += 1
        got = [v for v in (r.x1, r.x2) if v is not None]
        expected = _oracle_positive_roots(f)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-8)
    assert kinds["two"] > 60 and kinds["none"] > 60


def test_one_root_shapes_take_few_evaluations(h_evaluations):
    # Newton from the envelope's zero evaluates h 3.8 times per Cauchy shape
    # on this set; a bracket walk before it would need about 6.7
    rng = np.random.default_rng(19)
    shapes = 500
    for _ in range(shapes):
        n = int(rng.integers(1, 31))
        k = 0 if rng.uniform() < 0.5 else n
        coeffs = 10.0 ** rng.uniform(-2.0, 2.0, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.4] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 1.0
        assert positive_roots(radial(coeffs, k, 10.0 ** rng.uniform(-2.0, 2.0))).kind == "one"
    assert len(h_evaluations) / shapes <= 4.5


def _exact_sign(f, x):
    """The sign of f(x), evaluated exactly in rationals."""
    acc = Fraction(0)
    for j in range(f.degree, -1, -1):
        acc = acc * Fraction(x) + Fraction(-f.neg_value if j == f.neg_index else f.coeffs[j])
    return (acc > 0) - (acc < 0)


def test_start_that_rounds_below_zero_is_the_root():
    # h(tau1) >= 0 in exact arithmetic, but here it rounds to -4.3e-17 (a
    # radial polynomial of an experiment's table): the start is the root
    f = radial([0.29487947530416075] + [0.0] * 38 + [0.5459638802066339, 1.0], 1, 0.9999208549850965)
    assert f._newton(f._tau1)[0] < 0.0
    r = positive_roots(f)
    assert r.kind == "two" and r.x1 == math.exp(f._tau1)
    assert _exact_sign(f, r.x1 * 0.999) > 0 > _exact_sign(f, r.x1 * 1.001)


def _seeded_shapes(rng, count):
    """Radial polynomials of degree 1..30, half with coefficients and nu from
    1e-2..1e2 and half from 1e-250..1e250, like _wide_shapes; every fourth
    has nu raised above the largest coefficient, so that two roots are
    likely."""
    for i in range(count):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(0, n + 1))
        span = 2.0 if i % 2 == 0 else 250.0
        coeffs = 10.0 ** rng.uniform(-span, span, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.5] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 10.0 ** rng.uniform(-span, span)
        nu = 10.0 ** rng.uniform(-span, span)
        if i % 4 == 0:
            nu += 10.0 ** rng.uniform(1.0, 3.0) * max(coeffs)
        yield radial(coeffs, k, nu)


def test_every_root_changes_sign_exactly_and_is_approached_one_way(monkeypatch):
    # each returned root x lies within the search's tolerance e of a sign
    # change of f, checked in rationals at x e^-e and x e^e, and the Newton
    # iterates of each root move in one direction, inward from tau
    newton, root = SignedRadialPolynomial._newton, rootloc._root
    searching, paths = [], []  # the iterates of the search under way; of each search

    def traced_newton(f, t):
        if searching:
            searching[-1].append(t)
        return newton(f, t)

    def traced_root(f, tau):
        searching.append([])
        try:
            t = root(f, tau)
        finally:
            iterates = searching.pop()
        paths.append((1.0 if tau == f._tau1 else -1.0, iterates + [t]))
        return t

    monkeypatch.setattr(SignedRadialPolynomial, "_newton", traced_newton)
    monkeypatch.setattr(rootloc, "_root", traced_root)
    found = {"one": 0, "two": 0}
    for f in _seeded_shapes(np.random.default_rng(23), 400):
        try:
            r = positive_roots(f)
        except InvalidShapeError:  # a root beyond double range
            continue
        found[r.kind] = found.get(r.kind, 0) + 1
        for x in (r.x1, r.x2):
            if x is None:
                continue
            t = math.log(x)
            eps = rootloc._ROOT_TOL * (1.0 + 2.0 * abs(t))
            below, above = x * math.exp(-eps), x * math.exp(eps)
            assert below < x < above
            if math.isfinite(above):
                assert _exact_sign(f, below) * _exact_sign(f, above) < 0, (f, x)
    for direction, iterates in paths:
        assert all(direction * (b - a) >= 0.0 for a, b in zip(iterates, iterates[1:])), iterates
    assert found["one"] > 100 and found["two"] > 40


def test_minimizer_bisects_when_newton_leaves_the_bracket(monkeypatch):
    # h'' divided by 1e6 makes every Newton step on h' a million times too
    # long, so it leaves the bracket and the safeguard bisects instead; the
    # minimizer still lands on the zero of h'
    f = SignedRadialPolynomial([2.0, 0.0, 0.0, 1.0], 1, 0.5)
    _, tc = f._vertex()
    expected = rootloc._minimizer(f, tc)
    points = []
    stats = SignedRadialPolynomial._stats

    def flattened(g, t):
        points.append(t)
        h, slope, curvature = stats(g, t)
        return h, slope, curvature / 1e6

    monkeypatch.setattr(SignedRadialPolynomial, "_stats", flattened)
    got = rootloc._minimizer(f, tc)
    assert abs(got - expected) <= 1e-9
    # the first step from t_c is the midpoint of the half-bracket below or
    # above it, and the bracket keeps halving from there
    step = math.log(len(f._terms)) / min(abs(d) for _, d in f._terms)
    assert points[0] == tc and points[1] in (0.5 * (tc - step + tc), 0.5 * (tc + tc + step))
    assert len(points) > 20
