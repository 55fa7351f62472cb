import math

import numpy as np
import pytest

from pelletbounds import (
    GAP,
    NO_GAP,
    MatrixPolynomial,
    NormKind,
    OddDegreeError,
    OddIndexError,
    SingularMatrixError,
    cauchy_bounds,
    count_in_annulus,
    count_in_disk,
    eigen_oracle,
    pellet_gap,
    reciprocal,
    scalar_polynomial,
    squared_bounds,
    squared_gap,
)

from conftest import rand_matrix, rand_poly

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
        p = MatrixPolynomial([c + 0.5 * np.eye(3) for c in p.coeffs])
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
        p = MatrixPolynomial([*([c + 0.3 * np.eye(3) for c in p.coeffs[:-1]]), np.eye(3)])
        for kind in KINDS:
            lower_pre = cauchy_bounds(p, kind, precondition=True).lower
            upper_r = cauchy_bounds(reciprocal(p), kind).upper
            assert lower_pre == pytest.approx(1.0 / upper_r, rel=1e-10)


# --- pellet_gap -----------------------------------------------------------

def test_pellet_no_gap():
    g = pellet_gap(scalar_polynomial([1.0, 1.0, 1.0]), 1, "one")
    assert g.status == NO_GAP
    assert g.x1 is None and g.x2 is None


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
