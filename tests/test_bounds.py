import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelletbounds import (
    GAP,
    NO_GAP,
    InvalidShapeError,
    MatrixPolynomial,
    NormKind,
    OddDegreeError,
    OddIndexError,
    SignedRadialPolynomial,
    SingularMatrixError,
    cauchy_bounds,
    count_in_annulus,
    count_in_disk,
    eigen_oracle,
    left_precondition,
    monicize,
    pellet_gap,
    reciprocal,
    scalar_polynomial,
    shift_by_z,
    square_repartition,
    squared_bounds,
    squared_gap,
)
from pelletbounds import bounds, linalg, matpoly
from pelletbounds.bounds import squared_polynomial
from pelletbounds.oracle import EigenReport, check_gap, check_lower

from conftest import criterion_1_instance, rand_matrix, rand_poly, wide_polynomials

KINDS = [NormKind.ONE, NormKind.INF, NormKind.TWO]


def spiky_poly(rng, m, n, spike_at=None, spike=100.0):
    """Random polynomial with one dominant coefficient, so gaps exist often."""
    coeffs = [rand_matrix(rng, m) for _ in range(n)] + [np.eye(m)]
    if spike_at is not None:
        coeffs[spike_at] = coeffs[spike_at] + spike * np.eye(m)
    return MatrixPolynomial(coeffs)


def assert_sound_cauchy(p, cb):
    rep = eigen_oracle(p)
    if cb.upper is not None:
        assert rep.max_modulus <= cb.upper * (1 + 1e-9)
    if cb.lower is not None:
        assert rep.min_modulus >= cb.lower * (1 - 1e-9)


def assert_sound_gap(p, g):
    rep = eigen_oracle(p)
    if g.status == GAP:
        assert count_in_disk(rep, g.x1) == g.eig_count_inside
        assert count_in_annulus(rep, g.x1, g.x2) == 0


# --- closed forms ---------------------------------------------------------

def test_z2_minus_4_bounds_exact():
    p = scalar_polynomial([-4.0, 0.0, 1.0])
    for kind in KINDS:
        cb = cauchy_bounds(p, kind)
        assert abs(cb.upper - 2.0) <= 1e-10
        assert abs(cb.lower - 2.0) <= 1e-10


def test_z2_minus_3z_plus_2_gap_exact():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    g = pellet_gap(p, 1, "one")
    assert g.status == GAP
    assert abs(g.x1 - 1.0) <= 1e-10
    assert abs(g.x2 - 2.0) <= 1e-10
    assert g.eig_count_inside == 1
    assert_sound_gap(p, g)


def test_z4_squared_gap_exact():
    p = scalar_polynomial([4.0, 0.0, -5.0, 0.0, 1.0])
    g = squared_gap(p, 2, "one")
    assert g.status == GAP
    assert abs(g.x1 - 1.0) <= 1e-10
    assert abs(g.x2 - 2.0) <= 1e-10
    assert g.eig_count_inside == 2
    assert_sound_gap(p, g)


def test_z2_plus_2z_plus_1_upper():
    cb = cauchy_bounds(scalar_polynomial([1.0, 2.0, 1.0]), "one")
    assert cb.upper == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)


# --- cauchy_bounds --------------------------------------------------------

def test_cauchy_nilpotent_constant():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    p = MatrixPolynomial([-a, np.eye(2)])  # Iz - A, eigenvalues {0, 0}
    cb = cauchy_bounds(p, "one")
    assert cb.upper == pytest.approx(2.0)
    assert cb.lower is None  # constant coefficient is singular


def test_cauchy_all_lower_zero_returns_origin():
    p = MatrixPolynomial([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    cb = cauchy_bounds(p, "one")
    assert cb.upper == 0.0
    assert cb.lower is None


def test_cauchy_singular_leading_upper_absent():
    p = MatrixPolynomial([np.eye(2), np.eye(2), np.diag([1.0, 0.0])])
    cb = cauchy_bounds(p, "inf")
    assert cb.upper is None
    assert cb.lower is not None


def test_cauchy_variants_and_soundness(rng):
    for _ in range(25):
        p = rand_poly(rng, 2, 5, monic=False)
        for kind in KINDS:
            for pre in (False, True):
                cb = cauchy_bounds(p, kind, precondition=pre)
                assert cb.variant == ("monic-preconditioned" if pre else "plain")
                assert_sound_cauchy(p, cb)
                if not pre:
                    assert cb.lower <= cb.upper * (1 + 1e-12)


def test_preconditioned_cauchy_at_least_as_tight(rng):
    for _ in range(20):
        p = rand_poly(rng, 3, 4, monic=False)
        p = MatrixPolynomial([c + 0.5 * np.eye(3) for c in p.stack])
        plain = cauchy_bounds(p, "one")
        pre = cauchy_bounds(p, "one", precondition=True)
        assert pre.upper <= plain.upper * (1 + 1e-9)
        assert pre.lower >= plain.lower * (1 - 1e-9)


def test_reciprocal_duality_scalar():
    # For scalars, the inner Cauchy radius equals the reciprocal of the
    # outer radius of the reciprocal polynomial.
    rng = np.random.default_rng(5)
    for _ in range(20):
        coeffs = rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7)
        coeffs[-1] = 1.0
        if abs(coeffs[0]) < 0.1:
            coeffs[0] += 0.5
        p = scalar_polynomial(coeffs)
        for kind in KINDS:
            lower = cauchy_bounds(p, kind).lower
            upper_r = cauchy_bounds(reciprocal(p), kind).upper
            assert lower == pytest.approx(1.0 / upper_r, rel=1e-10)


def test_reciprocal_duality_matrix_preconditioned(rng):
    # For matrix coefficients the exact identity pairs the reciprocal's outer
    # radius with the preconditioned inner radius (same radial polynomial).
    for _ in range(10):
        p = rand_poly(rng, 3, 4)
        p = MatrixPolynomial([*([c + 0.3 * np.eye(3) for c in p.stack[:-1]]), np.eye(3)])
        for kind in KINDS:
            lower_pre = cauchy_bounds(p, kind, precondition=True).lower
            upper_r = cauchy_bounds(reciprocal(p), kind).upper
            assert lower_pre == pytest.approx(1.0 / upper_r, rel=1e-10)


# --- pellet_gap -----------------------------------------------------------

def test_pellet_no_gap():
    # z^2 + z + 1, whose f_1 has no positive root, and z^2 + z, whose terms
    # at k = 1 all lie above k: f_1 = x^2 - x has the one root x = 1, which
    # bounds the moduli only from below and certifies no annulus
    assert bounds._radial_roots([0.0, 1.0, 1.0], 1.0, 1).kind == "one"
    for coeffs in ([1.0, 1.0, 1.0], [0.0, 1.0, 1.0]):
        for pre in (False, True):
            g = pellet_gap(scalar_polynomial(coeffs), 1, "one", precondition=pre)
            assert g.status == NO_GAP
            assert g.x1 is None and g.x2 is None and g.eig_count_inside is None


def test_pellet_block_diagonal_doubles_count():
    # diag copies of z^2 - 3z + 2: same annulus, count scales with m
    p = MatrixPolynomial([2.0 * np.eye(2), -3.0 * np.eye(2), np.eye(2)])
    g = pellet_gap(p, 1, "inf")
    assert g.status == GAP
    assert g.eig_count_inside == 2
    assert g.x1 == pytest.approx(1.0, rel=1e-12)
    assert g.x2 == pytest.approx(2.0, rel=1e-12)
    assert_sound_gap(p, g)


def test_pellet_index_range():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    with pytest.raises(ValueError):
        pellet_gap(p, 0, "one")
    with pytest.raises(ValueError):
        pellet_gap(p, 2, "one")


def test_pellet_singular_pivot_raises():
    p = MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(SingularMatrixError):
        pellet_gap(p, 1, "one")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_pivot_whose_inverse_norm_overflows_is_singular():
    # A_1 = 1e-296 [[1, 1], [1, 1 + 1e-12]] passes the LU pivot test, but
    # ||A_1^-1|| is about 1e308 / 1e-12: nu_1 cannot be formed in any norm
    a1 = 1e-296 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    p = MatrixPolynomial([np.eye(2), a1, np.eye(2)])
    for kind in KINDS:
        with pytest.raises(SingularMatrixError, match="the norm of the inverse overflows"):
            pellet_gap(p, 1, kind)


# --- index arguments ------------------------------------------------------

def _no_slot_filled(p):
    return p._kinds == {} and all(
        v is None for v in p._identities + p._lus + p._preconditioned + p._squares)


def test_a_bool_index_preconditions_at_its_integer_index():
    # numpy reads p.stack[False] as an empty mask, which is vacuously "all
    # equal to I": A_0 was taken for exactly I, and r came out 0.3028,
    # above the smallest modulus 0.1771
    q = scalar_polynomial([0.5, -3.0, 1.0])
    assert left_precondition(q, False) is left_precondition(q, 0) is not q
    rep = eigen_oracle(q)
    for kind in KINDS:
        check_lower(rep, cauchy_bounds(q, kind).lower, f"{kind} after a bool index")


def test_a_bool_precondition_index_of_squared_bounds_is_its_integer():
    # the tag read "+BFalse-", r was 1.0, and the Q kept on P was poisoned
    p = scalar_polynomial([0.5, -3.0, 1.0])
    fresh = scalar_polynomial([0.5, -3.0, 1.0])
    rep = eigen_oracle(p)
    sb = squared_bounds(p, "one", precondition_index=False)
    assert sb == squared_bounds(fresh, "one", precondition_index=0)
    assert sb.variant == "squared-Q+B0-preconditioned"
    check_lower(rep, sb.lower, "B0")
    assert squared_bounds(p, "one") == squared_bounds(scalar_polynomial([0.5, -3.0, 1.0]), "one")
    check_lower(rep, squared_bounds(p, "one").lower, "Q after a bool index")


def test_a_bool_pellet_index_keeps_the_pivot_slot_sound():
    # p.stack[True] is a 4-D array, whose LU filled slot 1 and broke every
    # later query at k = 1 on P
    p = scalar_polynomial([2.0, -3.0, 1.0])
    first = pellet_gap(p, True, "one")
    assert first.k == 1 and type(first.k) is int and first.status == GAP
    for kind in KINDS:
        for pre in (False, True):
            fresh = scalar_polynomial([2.0, -3.0, 1.0])
            assert pellet_gap(p, 1, kind, pre) == pellet_gap(fresh, 1, kind, pre)


def test_numpy_integer_indices_give_python_ints():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    g = pellet_gap(p, np.int64(1), "one")
    assert g == pellet_gap(p, 1, "one")
    assert type(g.k) is int and type(g.eig_count_inside) is int
    p4 = MatrixPolynomial([100 * np.eye(2), 0 * np.eye(2), -101 * np.eye(2), 0 * np.eye(2),
                           np.eye(2)])
    g = squared_gap(p4, np.int32(2), "one")
    assert g.status == GAP and type(g.k) is int and type(g.eig_count_inside) is int
    sb = squared_bounds(p4, "one", precondition_index=np.int64(0))
    assert sb.variant.endswith("+B0-preconditioned")


@pytest.mark.parametrize("index", [1.0, 1.5, "1", np.True_])
def test_a_non_integer_index_raises_type_error_and_fills_no_slot(index):
    p = scalar_polynomial([2.0, -3.0, 1.0])
    p4 = scalar_polynomial([100.0, 0.0, -101.0, 0.0, 1.0])
    even = index * 2 if isinstance(index, float) else index
    for call, target in [(lambda: pellet_gap(p, index, "one"), p),
                         (lambda: pellet_gap(p, index, "two", precondition=True), p),
                         (lambda: left_precondition(p, index), p),
                         (lambda: squared_gap(p4, even, "one"), p4)]:
        with pytest.raises(TypeError):
            call()
        assert _no_slot_filled(target), index
    with pytest.raises(TypeError):
        squared_bounds(p4, "one", precondition_index=index)


def test_pellet_soundness_and_precondition_dominance(rng):
    gaps = 0
    for trial in range(60):
        m = 1 + trial % 3
        n = 4 + trial % 4
        p = spiky_poly(rng, m, n, spike_at=1 + trial % (n - 1), spike=10.0 ** rng.uniform(1.5, 3))
        for kind in KINDS:
            for k in range(1, n):
                try:
                    plain = pellet_gap(p, k, kind)
                    pre = pellet_gap(p, k, kind, precondition=True)
                except SingularMatrixError:
                    continue
                assert_sound_gap(p, plain)
                assert_sound_gap(p, pre)
                if plain.status == GAP:
                    gaps += 1
                    # preconditioning can only widen the certified annulus
                    assert pre.status == GAP
                    assert pre.x1 <= plain.x1 * (1 + 1e-9)
                    assert pre.x2 >= plain.x2 * (1 - 1e-9)
    assert gaps > 50


# --- squared variants -----------------------------------------------------

def test_squared_bounds_z2_minus_4():
    p = scalar_polynomial([-4.0, 0.0, 1.0])
    cb = squared_bounds(p, "one")
    assert cb.variant == "squared-Q"
    assert cb.upper == pytest.approx(2.0, rel=1e-12)
    assert cb.lower == pytest.approx(2.0, rel=1e-12)


def test_squared_bounds_odd_degree_recipe():
    p = scalar_polynomial([-2.0, 1.0])  # z - 2
    plain = squared_bounds(p, "one")
    assert "+shifted" in plain.variant
    assert plain.upper is not None and plain.upper >= 2.0 * (1 - 1e-12)
    assert plain.lower is None  # shifted constant is singular
    rec = squared_bounds(p, "one", use_reciprocal=True)
    assert rec.lower is not None and rec.lower <= 2.0 * (1 + 1e-12)
    assert rec.upper is None


def test_squared_bounds_monicizes_and_tags(rng):
    p = rand_poly(rng, 2, 4, monic=False)
    cb = squared_bounds(p, "one")
    assert cb.variant.startswith("squared-Q+monicized")
    assert_sound_cauchy(p, cb)


def test_squared_polynomial_is_the_explicit_chain_and_its_tag_names_the_steps(rng):
    # over {monic, non-monic} x {even, odd n} x {Q, Q_R}: Q is, byte for byte,
    # square_repartition(shift_by_z?(reciprocal?(monicize(P)))) built on a
    # copy of P with empty slots, and the tag names exactly the steps taken
    for monic in (True, False):
        for n in (4, 5):
            p = rand_poly(rng, 2, n, monic=monic)
            for use_reciprocal in (False, True):
                fresh = MatrixPolynomial(p.stack)
                tag = "squared-QR" if use_reciprocal else "squared-Q"
                base = monicize(fresh)
                if base is not fresh:
                    tag += "+monicized"
                if use_reciprocal:
                    base = reciprocal(base)
                if base.n % 2:
                    base = shift_by_z(base)
                    tag += "+shifted"
                expected = square_repartition(base).stack
                q, got = squared_polynomial(p, use_reciprocal)
                assert got == tag
                assert ("+monicized" in tag) is not monic and ("+shifted" in tag) is (n % 2 == 1)
                assert q.stack.shape == expected.shape
                assert q.stack.tobytes() == expected.tobytes()


def test_squared_bounds_soundness_all_routes(rng):
    for trial in range(25):
        m = 1 + trial % 3
        n = 3 + trial % 5
        p = rand_poly(rng, m, n)
        rep = eigen_oracle(p)
        for kind in KINDS:
            for use_rec in (False, True):
                cb = squared_bounds(p, kind, use_reciprocal=use_rec)
                assert all(type(v) is float for v in (cb.upper, cb.lower) if v is not None)
                if cb.upper is not None:
                    assert rep.max_modulus <= cb.upper * (1 + 1e-9)
                if cb.lower is not None:
                    assert rep.min_modulus >= cb.lower * (1 - 1e-9)
            try:
                b0q = squared_bounds(p, kind, precondition_index=0)
            except SingularMatrixError:
                assert n % 2 == 1  # shifted odd degrees have singular B_0
                continue
            if b0q.lower is not None:
                assert rep.min_modulus >= b0q.lower * (1 - 1e-9)
            # B_0^-1 Q sharpens the plain Q lower bound
            q_lower = squared_bounds(p, kind).lower
            if q_lower is not None and b0q.lower is not None:
                assert b0q.lower >= q_lower * (1 - 1e-9)


def test_squared_gap_rejects_bad_indices():
    p = scalar_polynomial([4.0, 0.0, -5.0, 0.0, 1.0])
    with pytest.raises(OddIndexError):
        squared_gap(p, 3, "one")
    with pytest.raises(ValueError):
        squared_gap(p, 0, "one")
    with pytest.raises(ValueError):
        squared_gap(scalar_polynomial([1.0, 1.0, 1.0]), 2, "one")  # n=2 has no valid k
    with pytest.raises(OddDegreeError):
        squared_gap(scalar_polynomial([1.0, 1.0, 1.0, 1.0]), 2, "one")


@pytest.mark.filterwarnings("error")
def test_squared_routes_with_overflowing_q_are_inapplicable():
    # z^2 + 1e200 z + 1e200 is valid (moduli 1 + 1e-200 and 1e200 - 1), but
    # its Q holds 1e400; P's own bounds and the Q_R route are unaffected
    p = scalar_polynomial([1e200, 1e200, 1.0])
    p4 = scalar_polynomial([1.0, 1.0, 1e200, 1e200, 1.0])
    for kind in KINDS:
        for kwargs in ({}, {"precondition_index": 0}):
            with pytest.raises(SingularMatrixError, match="overflow"):
                squared_bounds(p, kind, **kwargs)
        assert squared_bounds(p, kind, use_reciprocal=True).lower <= 1.0
        assert cauchy_bounds(p, kind).upper >= 1e200
        for pre in (False, True):
            with pytest.raises(SingularMatrixError, match="overflow"):
                squared_gap(p4, 2, kind, precondition=pre)
            assert pellet_gap(p4, 2, kind, precondition=pre).k == 2


def test_squared_gap_soundness(rng):
    gaps = 0
    for trial in range(40):
        m = 1 + trial % 2
        n = 6 + 2 * (trial % 3)
        k = 2 + 2 * (trial % (n // 2 - 1))
        p = spiky_poly(rng, m, n, spike_at=k, spike=10.0 ** rng.uniform(2, 3.5))
        for kind in KINDS:
            for pre in (False, True):
                try:
                    g = squared_gap(p, k, kind, precondition=pre)
                except SingularMatrixError:
                    continue
                assert g.k == k
                assert_sound_gap(p, g)
                if g.status == GAP:
                    gaps += 1
                    assert g.eig_count_inside == k * m
    assert gaps > 40


# --- kept per-polynomial data and the chord prefilter ----------------------

def _full_pellet(p, k, kind, pre):
    """pellet_gap's result from the radial polynomial, with no prefilter."""
    variant = "monic-preconditioned" if pre else "plain"
    roots = bounds._radial_roots(*bounds._pivot_profile(p, k, kind, pre), k)
    return bounds._gap_result(k, roots, k * p.m, kind, variant)


def _full_squared(p, k_even, kind, pre):
    """squared_gap's result from the radial polynomial of Q, with no prefilter."""
    q, variant = squared_polynomial(p, False)
    if pre:
        variant += "+B-preconditioned"
    kq = k_even // 2
    roots = bounds._radial_roots(*bounds._pivot_profile(q, kq, kind, pre), kq)
    return bounds._gap_result(k_even, roots, k_even * p.m, kind, variant, radius=bounds._unsquare)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the SingularMatrixError it raises."""
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return repr(exc)


def _prefilter_agrees(polynomials):
    """Run every per-index Pellet query of ``polynomials`` in all three
    norms, plain and preconditioned, and require the public result (tried
    on P's norms first) to equal the root search's in status, x1, x2,
    count, variant and marginal flag; (queries, skipped by the norms for
    plain and for preconditioned queries)."""
    queries = 0
    skipped = {False: 0, True: 0}
    for i, p in enumerate(polynomials):
        n = p.n
        for kind in KINDS:
            for pre in (False, True):
                cases = [(pellet_gap, _full_pellet, p, k) for k in range(1, n)]
                if n % 2 == 0 and n >= 4:
                    q = _outcome(lambda: squared_polynomial(p, False)[0])
                    if not isinstance(q, str):
                        cases += [(squared_gap, _full_squared, q, k) for k in range(2, n - 1, 2)]
                for public, full, target, k in cases:
                    got = _outcome(public, p, k, kind, pre)
                    assert got == _outcome(full, p, k, kind, pre), (i, kind, pre, k)
                    # a Pellet query has two outcomes: the annulus or none
                    assert isinstance(got, str) or got.status in (GAP, NO_GAP), (i, kind, pre, k)
                    queries += 1
                    if not isinstance(got, str):
                        kq = k if public is pellet_gap else k // 2
                        skipped[pre] += bounds._chord_proves_none(target, kq, kind, pre)
    return queries, skipped


def test_prefilter_equals_full_path_on_criterion_1_instances():
    # the first 144 criterion-1 instances
    queries, skipped = _prefilter_agrees(criterion_1_instance(i)[0] for i in range(144))
    assert queries > 4000
    # half the queries are plain and half preconditioned; the norms settle
    # most of each (2261 plain and 1769 preconditioned of 5280)
    assert skipped[False] > queries * 2 // 5
    assert skipped[True] > queries // 4
    # and polynomials whose norms span 10^240, where a margin measured
    # against the largest coefficient would differ most from one in h
    queries, skipped = _prefilter_agrees(wide_polynomials(11, 300, 3, 8))
    assert queries > 7000 and skipped[False] > 0 and skipped[True] > 0


def test_prefilter_declines_where_the_preconditioned_scale_overflows():
    # 1 + 1e-300 z + 1e10 z^2 at k = 1: the chord of the norms lies far
    # above ||A_1||, but A_1^-1 P has the coefficient 1e310, beyond the
    # double range; as max_j ||A_j|| / nu_1 is infinite the norms decline,
    # and forming A_1^-1 P raises, as the plain query does not
    p = scalar_polynomial([1.0, 1e-300, 1e10])
    assert pellet_gap(p, 1, "one").status == NO_GAP
    assert not bounds._chord_proves_none(p, 1, NormKind.ONE, True)
    with pytest.raises(SingularMatrixError):
        pellet_gap(p, 1, "one", precondition=True)


def test_prefilter_keeps_marginal_near_tangent_shape(h_evaluations):
    # z^2 - slope z + 1 at k = 1: h's minimum is log(2 / slope), about
    # -/+2.5e-10, within 10*GAP_RTOL of zero, so P's norms prove nothing,
    # plain or preconditioned (A_1^-1 P has the same h), and the root search
    # reports a marginal gap above slope 2 and a marginal "none" below it
    for slope in (2.0 + 5e-10, 2.0 - 5e-10):
        p = scalar_polynomial([1.0, -slope, 1.0])
        for pre in (False, True):
            assert not bounds._chord_proves_none(p, 1, NormKind.ONE, pre)
            h_evaluations.clear()
            g = pellet_gap(p, 1, "one", precondition=pre)
            assert h_evaluations
            assert g.status == (GAP if slope > 2.0 else NO_GAP) and g.marginal
            assert g == _full_pellet(p, 1, NormKind.ONE, pre)


@pytest.fixture
def radial_polynomials(monkeypatch):
    """The list of SignedRadialPolynomial constructions, each as its
    arguments."""
    built = []
    init = SignedRadialPolynomial.__init__

    def counted(f, *args):
        built.append(args)
        init(f, *args)

    monkeypatch.setattr(SignedRadialPolynomial, "__init__", counted)
    return built


def test_plain_prefilter_skips_a_vertex_with_small_nu(h_evaluations, radial_polynomials):
    # I + diag(3, 1e-3) z + I z^2: ||A_1|| = 3 is a vertex of the norms'
    # Newton polygon (the chord at k = 1 is e^C = 1), but nu_1 = 1e-3 lies
    # far below the chord, so P's norms settle the plain query, which
    # builds no radial polynomial
    p = MatrixPolynomial([np.eye(2), np.diag([3.0, 1e-3]), np.eye(2)])
    for kind in KINDS:
        radial_polynomials.clear()
        g = pellet_gap(p, 1, kind)
        assert h_evaluations == [] and radial_polynomials == []
        assert g.status == NO_GAP and not g.marginal
        assert g == _full_pellet(p, 1, kind, False)


def test_plain_prefilter_builds_no_radial_polynomial_on_a_criterion_1_instance(
        radial_polynomials):
    # instance 6 (m = 3, n = 8): every plain query but the one at k = 3 is
    # settled by P's norms and nu_k, before a radial polynomial is built
    p, _ = criterion_1_instance(6)
    for kind in KINDS:
        for k in (1, 2, 4, 5, 6, 7):
            radial_polynomials.clear()
            g = pellet_gap(p, k, kind)
            assert radial_polynomials == [], (kind, k)
            assert g.status == NO_GAP and g == _full_pellet(p, k, kind, False)


def test_singular_pivot_at_non_vertex_raises_every_time():
    # ||A_1|| = 0.1 lies below the chord of ||A_0|| = ||A_2|| = 1, so the
    # norms alone would settle "nogap"; the pivot test still runs first
    p = MatrixPolynomial([np.eye(2), np.diag([0.1, 0.0]), np.eye(2)])
    # z^4 + 0.1 z + 1: B_1 = [[0, 0.1], [0, 0]] of Q is singular and below
    # the chord of ||B_0|| and ||B_2||
    s = scalar_polynomial([1.0, 0.1, 0.0, 0.0, 1.0])
    for kind in KINDS:
        for pre in (False, True):
            for _ in range(3):
                with pytest.raises(SingularMatrixError):
                    pellet_gap(p, 1, kind, precondition=pre)
                with pytest.raises(SingularMatrixError):
                    squared_gap(s, 2, kind, precondition=pre)


def test_repeated_calls_reuse_the_memo_and_agree(rng):
    # every norm kind in turn on one polynomial, twice, and on copies with
    # empty slots: a kept value never leaks across kinds, indices or routes
    def everything(q, n, kind):
        return ([cauchy_bounds(q, kind, precondition=pre) for pre in (False, True)]
                + [squared_bounds(q, kind, use_reciprocal=rec) for rec in (False, True)]
                + [squared_bounds(q, kind, precondition_index=0)]
                + [pellet_gap(q, k, kind, precondition=pre)
                   for k in range(1, n) for pre in (False, True)]
                + [squared_gap(q, k, kind, precondition=pre)
                   for k in range(2, n - 1, 2) for pre in (False, True)])

    for trial in range(6):
        n = 4 + 2 * (trial % 3)
        p = spiky_poly(rng, 1 + trial % 3, n, spike_at=2, spike=100.0)
        first = [everything(p, n, kind) for kind in KINDS]
        assert [everything(p, n, kind) for kind in KINDS] == first
        assert [everything(MatrixPolynomial(p.stack), n, kind) for kind in KINDS] == first
        assert squared_polynomial(p, True)[0] is squared_polynomial(p, True)[0]


def test_underflowed_preconditioned_leading_coefficient_is_inapplicable():
    # 1e-200 z^2 + z + 1e200: A_2^-1 A_0 overflows and A_0^-1 A_2 underflows
    # to zero, so neither preconditioned radius applies; in
    # 1e-200 z^2 + 1e200 z + 1, A_1^-1 A_2 underflows
    p = scalar_polynomial([1e200, 1.0, 1e-200])
    gap_p = scalar_polynomial([1.0, 1e200, 1e-200])
    for kind in KINDS:
        cb = cauchy_bounds(p, kind, precondition=True)
        assert (cb.upper, cb.lower) == (None, None)
        assert cauchy_bounds(p, kind).upper >= 1e200
        with pytest.raises(SingularMatrixError, match="underflows to zero"):
            pellet_gap(gap_p, 1, kind, precondition=True)


def _fresh_factor(a):
    """linalg._factor of a fresh copy of a coefficient, with that copy's own
    infinity norm as the pivot scale."""
    a = np.array(a)
    return linalg._factor(a, linalg.norm(a, NormKind.INF))


def _fresh_left_solved(q, j):
    """A_j^-1 Q from a fresh factorization of A_j, with index j set to I."""
    stack = linalg._solve(_fresh_factor(q.stack[j]), np.array(q.stack))
    stack[j] = np.eye(q.m)
    return stack.tobytes()


def _assert_built_like_input(t):
    assert t.stack.flags.c_contiguous and not t.stack.flags.writeable
    assert np.array_equal(MatrixPolynomial(t.stack).stack, t.stack)


def test_kept_pivots_match_a_fresh_factorization():
    # nu_j and A_j^-1 Q solved from Q's kept LU, scaled by Q's kept norms,
    # are bit for bit (or error for error) what linalg._factor, _solve and
    # _inv_norm_inv give on a fresh copy of A_j with its own infinity norm;
    # and, independently, they agree with numpy's inv and solve to 1e-12
    # relative (at most 4.1e-16 measured: both are LAPACK's partially
    # pivoted LU).  Q runs over the sweep's first 144 instances P and their
    # companion-squared Q and Q_R
    for i in range(144):
        p, _ = criterion_1_instance(i)
        polys = [p]
        for use_reciprocal in (False, True):
            try:
                polys.append(squared_polynomial(p, use_reciprocal)[0])
            except SingularMatrixError:
                pass
        for q in polys:
            _assert_built_like_input(q)
            _assert_built_like_input(shift_by_z(q))
            for j in range(q.n + 1):
                for kind in KINDS:
                    # nu > 0, so == on floats is equality bit for bit
                    nu = _outcome(matpoly._nu, q, j, kind)
                    assert nu == _outcome(
                        lambda: linalg._inv_norm_inv(_fresh_factor(q.stack[j]), kind))
                    if isinstance(nu, float):
                        ref = 1.0 / linalg.norm(np.linalg.inv(q.stack[j]), kind)
                        assert nu == pytest.approx(ref, rel=1e-12)
                pre = _outcome(left_precondition, q, j)
                if isinstance(pre, MatrixPolynomial):
                    _assert_built_like_input(pre)
                    want = np.linalg.solve(q.stack[j], q.stack)
                    want[j] = np.eye(q.m)
                    assert np.abs(pre.stack - want).max() <= 1e-12 * np.abs(want).max()
                    pre = pre.stack.tobytes()
                assert pre == _outcome(_fresh_left_solved, q, j)
            for transform in (monicize, reciprocal):
                t = _outcome(transform, q)
                if isinstance(t, MatrixPolynomial):
                    _assert_built_like_input(t)


def test_identity_pivots_match_a_fresh_factorization():
    # a coefficient that is exactly I (a monic P's A_n, Q's and Q_R's
    # leading coefficient, index 0 of B_0^-1 Q) has nu exactly 1.0 in every
    # norm without an LU, as a fresh factorization of it gives, and I^-1 Q
    # is Q itself; the identity they are tested against is one read-only
    # array per size
    pivots = 0
    for i in range(144):
        p, _ = criterion_1_instance(i)
        polys = [p]
        for use_reciprocal in (False, True):
            try:
                q = squared_polynomial(p, use_reciprocal)[0]
            except SingularMatrixError:
                continue
            polys.append(q)
            if not use_reciprocal:
                polys.append(_outcome(left_precondition, q, 0))
        for q in (q for q in polys if isinstance(q, MatrixPolynomial)):
            for j in range(q.n + 1):
                if not np.array_equal(q.stack[j], np.eye(q.m)):
                    continue
                pivots += 1
                for kind in KINDS:
                    assert (matpoly._nu(q, j, kind).hex() == (1.0).hex()
                            == linalg._inv_norm_inv(_fresh_factor(q.stack[j]), kind).hex())
                assert left_precondition(q, j) is q
                eye = linalg.identity(q.m)
                assert linalg.identity(q.m) is eye and not eye.flags.writeable
                assert np.array_equal(eye, np.eye(q.m))
    assert pivots >= 72 + 2 * 144


def test_preconditioning_at_an_identity_pivot_changes_no_bound(rng):
    # I^-1 P is P, signed zeros included: the preconditioned radius at an
    # identity pivot is the plain one, also in the 2-norm, whose SVD can
    # move by an ulp when a -0.0 entry turns into +0.0
    for t in range(40):
        m, n = 1 + t % 3, 2 + t % 5
        stack = rng.standard_normal((n + 1, m, m)) + 0j
        stack[rng.uniform(size=stack.shape) < 0.4] = complex(-0.0, -0.0)
        stack[0] = stack[-1] = np.eye(m)
        p = MatrixPolynomial(stack)
        for kind in KINDS:
            assert cauchy_bounds(p, kind, precondition=True) == replace(
                cauchy_bounds(p, kind), variant="monic-preconditioned")


def test_coefficient_norms_beyond_the_double_range_do_not_warn():
    # every entry of A_0 at 1e308: its 1- and inf-norms overflow to inf, and
    # the radial polynomial rejects that coefficient; numpy's overflow
    # RuntimeWarning from the sum must not reach the caller
    a0 = np.full((2, 2), 1e308)
    p = MatrixPolynomial([a0, np.eye(2)])
    p2 = MatrixPolynomial([a0, np.eye(2), np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in KINDS:
            for pre in (False, True):
                with pytest.raises(InvalidShapeError, match="finite and nonnegative"):
                    cauchy_bounds(p, kind, pre)
                with pytest.raises(InvalidShapeError, match="finite and nonnegative"):
                    pellet_gap(p2, 1, kind, pre)


def test_a_pivot_scale_beyond_the_double_range_does_not_warn():
    # the infinity norm of A_1 = 1e308 [[1, 1], [1, -1]] overflows: the
    # pivot scale is P's kept infinity norm, summed without numpy's overflow
    # RuntimeWarning, and the pivot is inapplicable in every norm and variant
    a1 = 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]])
    p = MatrixPolynomial([np.eye(2), a1, np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in KINDS:
            for pre in (False, True):
                with pytest.raises(SingularMatrixError,
                                   match="^the pivot's infinity norm overflows the double range$"):
                    pellet_gap(p, 1, kind, precondition=pre)


# the errors by which a query on a valid polynomial says that a theorem does
# not apply; anything else (a ValueError above all) is a fault
_INAPPLICABLE = (SingularMatrixError, InvalidShapeError, OddDegreeError, OddIndexError)


@st.composite
def _wide_range_polynomials(draw):
    """Degree 1-6, m in {1, 2}, entries of modulus 10^U(-300, 300) or zero,
    and a nonzero leading coefficient."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    size = (n + 1) * m * m
    exps = draw(st.lists(st.floats(-300.0, 300.0), min_size=size, max_size=size))
    zeros = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    angles = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size))
    stack = np.where(zeros, 0.0, 10.0 ** np.array(exps)) * np.exp(1j * np.array(angles))
    stack = stack.reshape(n + 1, m, m)
    if not stack[-1].any():
        stack[-1, 0, 0] = 10.0 ** exps[-1]
    return MatrixPolynomial(stack)


# a 1-/inf-norm of a pivot's inverse (nu) beyond the double range still
# warns (numpy's overflow RuntimeWarning; the coefficient norms and the
# pivot scale do not); the verdict there is "inapplicable"
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(_wide_range_polynomials())
def test_no_valid_polynomial_ends_in_an_untyped_error(p):
    queries = []
    for kind in KINDS:
        queries += [lambda pre=pre: cauchy_bounds(p, kind, pre) for pre in (False, True)]
        queries += [lambda r=r, j=j: squared_bounds(p, kind, r, j)
                    for r in (False, True) for j in (None, 0)]
        queries += [lambda k=k, pre=pre: pellet_gap(p, k, kind, pre)
                    for k in range(1, p.n) for pre in (False, True)]
        queries += [lambda k=k, pre=pre: squared_gap(p, k, kind, pre)
                    for k in range(2, p.n - 1) for pre in (False, True)]
    for query in queries:
        try:
            query()
        except _INAPPLICABLE:
            pass


def test_preconditioned_prefilter_uses_the_pivot_norm(h_evaluations):
    # blocks 1 - (2 - 5e-10) z + z^2 and 1e-6 + 1e-3 z + 1e-6 z^2: the
    # plain query's nu_1 = 1e-3 lies far below the chord of the norms, but
    # A_1^-1 P is the first block over its middle coefficient, near-tangent
    # with h's minimum about 2.5e-10, a marginal "none" the prefilter must
    # leave to the root search, as ||A_1|| = 2 - 5e-10 lies above the chord
    p = MatrixPolynomial([np.diag([1.0, 1e-6]), np.diag([-(2.0 - 5e-10), 1e-3]),
                          np.diag([1.0, 1e-6])])
    for kind in KINDS:
        # the plain query is settled by P's norms without evaluating h
        h_evaluations.clear()
        assert pellet_gap(p, 1, kind).status == NO_GAP and h_evaluations == []
        assert bounds._chord_proves_none(p, 1, kind, False)
        assert not bounds._chord_proves_none(p, 1, kind, True)
        g = pellet_gap(p, 1, kind, precondition=True)
        assert g.status == NO_GAP and g.marginal
        assert g == _full_pellet(p, 1, kind, True)


# --- the unit of z --------------------------------------------------------

def _rescaled(p, e):
    """P(2^e z), whose eigenvalues are P's divided by 2^e: A_j times
    2^(e*j), exactly."""
    return MatrixPolynomial(p.stack * np.ldexp(1.0, e * np.arange(p.n + 1))[:, None, None])


def test_pellet_verdicts_do_not_depend_on_the_unit_of_z():
    # z -> 2^e z changes no mantissa and no sign of a radial polynomial, so
    # every plain and preconditioned Pellet query keeps its outcome and its
    # marginal flag, and every radius scales by 2^-e, over polynomials whose
    # norms span 10^240 (a margin measured against the largest coefficient
    # flipped hundreds of these)
    pairs = 0
    for i, p in enumerate(wide_polynomials(11, 300, 3, 8)):
        for kind in KINDS:
            for pre in (False, True):
                base = [_outcome(pellet_gap, p, k, kind, pre) for k in range(1, p.n)]
                for e in (-6, -3, 1, 5):
                    q = _rescaled(p, e)
                    for k, g in enumerate(base, start=1):
                        got = _outcome(pellet_gap, q, k, kind, pre)
                        where = (i, kind, pre, k, e)
                        pairs += 1
                        if isinstance(g, str) or isinstance(got, str):
                            assert got == g, where
                            continue
                        assert (got.status, got.marginal) == (g.status, g.marginal), where
                        if g.status == GAP:
                            assert math.ldexp(got.x1, e) == pytest.approx(g.x1, rel=1e-12, abs=0.0), where
                            assert math.ldexp(got.x2, e) == pytest.approx(g.x2, rel=1e-12, abs=0.0), where
    assert pairs > 25000


def test_cauchy_radii_follow_the_unit_of_z_and_squared_radii_do_not(rng):
    # a random 2x2 quartic: Cauchy radii of P(2^e z) are P's over 2^e to a
    # few ulps, but Q mixes coefficients of different degree, so a squared
    # radius is reproduced only at e = 0
    p = rand_poly(rng, 2, 4)
    base = {kind: (cauchy_bounds(p, kind), cauchy_bounds(p, kind, precondition=True),
                   squared_bounds(p, kind), squared_bounds(p, kind, use_reciprocal=True))
            for kind in KINDS}
    for e in (1, 3, 10, -10):
        q = _rescaled(p, e)
        for kind in KINDS:
            plain, pre, sq, sqr = base[kind]
            for b, got in ((plain, cauchy_bounds(q, kind)),
                           (pre, cauchy_bounds(q, kind, precondition=True))):
                assert abs(math.ldexp(got.upper, e) / b.upper - 1.0) <= 16 * sys.float_info.epsilon
                assert abs(math.ldexp(got.lower, e) / b.lower - 1.0) <= 16 * sys.float_info.epsilon
            moved = (math.ldexp(squared_bounds(q, kind).upper, e) / sq.upper,
                     math.ldexp(squared_bounds(q, kind, use_reciprocal=True).lower, e) / sqr.lower)
            assert all(abs(r - 1.0) > 1e-3 for r in moved), (e, kind, moved)


def _exact_report(p):
    """The roots of a scalar P as an EigenReport: mpmath's Durand-Kerner
    iteration at 150 digits, started from numpy's roots, which returns only
    once every root is fixed to an absolute 1e-150."""
    mpmath = pytest.importorskip("mpmath")
    coeffs = p.stack[::-1, 0, 0]
    with mpmath.workdps(150):
        roots = mpmath.polyroots([mpmath.mpc(complex(c)) for c in coeffs], maxsteps=200,
                                 extraprec=1000,
                                 roots_init=[mpmath.mpc(complex(r)) for r in np.roots(coeffs)])
        roots.sort(key=abs)
        moduli = np.array([float(abs(r)) for r in roots])
    return EigenReport(values=np.array([complex(r) for r in roots]), moduli=moduli, count=p.n)


def test_gap_claims_on_wide_scalars_hold_against_exact_roots():
    # every 1-norm gap claim, plain and preconditioned, over scalar
    # polynomials whose coefficients span 10^120, holds at the oracle's
    # slack against roots to 150 digits; the margin in h claims 354 here,
    # where one against the largest coefficient claimed 258
    claims = 0
    for i, p in enumerate(wide_polynomials(21, 200, 1, 4)):
        rep = _exact_report(p)
        for k in range(1, p.n):
            for pre in (False, True):
                claims += check_gap(rep, pellet_gap(p, k, "one", pre), f"{i}: k={k}, pre={pre}")
    assert claims > 300
