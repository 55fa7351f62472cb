import numpy as np
import pytest

from pelletbounds import (
    GAP,
    NO_GAP,
    UPPER_ONLY,
    GapResult,
    MatrixPolynomial,
    NormKind,
    SingularMatrixError,
    count_in_annulus,
    count_in_disk,
    eigen_oracle,
    evaluate,
    norm,
    scalar_polynomial,
)
from pelletbounds.oracle import EigenReport, SoundnessError, check_gap, check_lower, check_upper

from conftest import rand_poly


def report(moduli):
    vals = np.array(moduli, dtype=complex)
    return EigenReport(values=vals, moduli=np.abs(vals), count=len(moduli))


def test_moduli_examples():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    assert eigen_oracle(p).moduli == pytest.approx([1.0, 2.0])
    q = MatrixPolynomial([-np.diag([1.0, 4.0]), np.zeros((2, 2)), np.eye(2)])
    assert eigen_oracle(q).moduli == pytest.approx([1.0, 1.0, 2.0, 2.0])


def test_count_is_nm_and_sorted(rng):
    p = rand_poly(rng, 2, 3)
    rep = eigen_oracle(p)
    assert rep.count == 6 == len(rep.values)
    assert np.all(np.diff(rep.moduli) >= 0)


def test_eigenvalue_residuals(rng):
    p = rand_poly(rng, 2, 3, monic=False)
    rep = eigen_oracle(p)
    for lam in rep.values:
        scale = sum(norm(c, NormKind.TWO) * abs(lam) ** j for j, c in enumerate(p.coeffs))
        smin = np.linalg.svd(evaluate(p, lam), compute_uv=False)[-1]
        assert smin <= 1e-6 * scale


def test_singular_leading_raises():
    p = MatrixPolynomial([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError):
        eigen_oracle(p)


def test_count_in_disk():
    rep = report([1.0, 2.0])
    assert count_in_disk(rep, 1.0) == 1
    assert count_in_disk(rep, 1.5) == 1
    assert count_in_disk(rep, 2.0) == 2


def test_count_in_annulus():
    rep = report([1.0, 2.0])
    assert count_in_annulus(rep, 1.0, 2.0) == 0
    assert count_in_annulus(rep, 0.5, 0.9) == 0
    rep3 = report([1.0, 1.5, 2.0])
    assert count_in_annulus(rep3, 1.0, 2.0) == 1
    with pytest.raises(ValueError):
        count_in_annulus(rep, 2.0, 1.0)


def test_disk_annulus_sum_rule(rng):
    p = rand_poly(rng, 2, 4)
    rep = eigen_oracle(p)
    x1, x2 = 0.7, 1.3
    inside = count_in_disk(rep, x1)
    middle = count_in_annulus(rep, x1, x2)
    beyond = int(np.count_nonzero(rep.moduli >= x2 * (1 - 1e-9)))
    assert inside + middle + beyond == rep.count


def _gap(status, x1=None, x2=None, count=None):
    return GapResult(k=1, status=status, x1=x1, x2=x2, eig_count_inside=count,
                     norm_kind=NormKind.ONE, variant="plain")


@pytest.mark.parametrize("moduli, check", [
    ([1.0, 2.0], lambda rep: check_upper(rep, 2.0 * (1 - 2e-9), "upper")),
    ([1.0, 2.0], lambda rep: check_lower(rep, 1.0 * (1 + 2e-9), "lower")),
    ([1.0, 2.0], lambda rep: check_gap(rep, _gap(GAP, 1.5, 1.9, count=2), "count")),
    ([1.0, 1.5, 2.0], lambda rep: check_gap(rep, _gap(GAP, 1.2, 1.9, count=1), "annulus")),
    ([1.0, 2.0], lambda rep: check_gap(rep, _gap(UPPER_ONLY, 2.0 * (1 - 2e-9)), "upper-only")),
], ids=["upper", "lower", "gap_count", "gap_annulus", "upper_only"])
def test_verifier_rejects_violations(moduli, check):
    with pytest.raises(SoundnessError):
        check(report(moduli))


def test_verifier_slack_and_claims():
    rep = report([1.0, 2.0])
    check_upper(rep, 2.0 * (1 - 5e-10), "upper")
    check_lower(rep, 1.0 * (1 + 5e-10), "lower")
    assert check_gap(rep, _gap(GAP, 1.0 * (1 - 5e-10), 2.0 * (1 + 5e-10), count=1), "gap")
    assert check_gap(rep, _gap(UPPER_ONLY, 2.0 * (1 - 5e-10)), "upper-only")
    assert check_gap(rep, _gap(NO_GAP), "nogap") is False
