"""Cauchy radii and Pellet gaps for matrix polynomials.

Four families of bounds on the eigenvalue moduli of P(z) = sum A_j z^j:

* ``cauchy_bounds``  -- outer radius R and inner radius r from the
  one-sign-change radial polynomials built from coefficient norms.
* ``pellet_gap``     -- for an index k with A_k invertible, two positive
  roots x1 < x2 of the radial polynomial f_k certify that exactly k*m
  eigenvalues lie in |z| <= x1 and none in x1 < |z| < x2.
* ``squared_bounds`` -- the same Cauchy machinery applied to the
  companion-squared polynomial Q (or to Q_R, built from the reciprocal),
  mapped back through square roots / reciprocals.
* ``squared_gap``    -- Pellet applied to Q: a gap at even index k_even
  certifies k_even * m eigenvalues inside sqrt(y1).

Preconditioned variants left-multiply by the inverse of the pivotal
coefficient first, which never shrinks a gap since
||A_k^-1 A_j|| <= ||A_k^-1|| ||A_j||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NormKind, SingularMatrixError, inv_norm_inv, norm
from .matpoly import (
    MatrixPolynomial,
    OddDegreeError,
    left_precondition,
    monicize,
    reciprocal,
    shift_by_z,
    square_repartition,
)
from .rootloc import PositiveRoots, SignedRadialPolynomial, positive_roots

VARIANT_PLAIN = "plain"
VARIANT_PRECONDITIONED = "monic-preconditioned"
VARIANT_SQUARED_Q = "squared-Q"
VARIANT_SQUARED_QR = "squared-QR"

GAP = "gap"
NO_GAP = "nogap"
UPPER_ONLY = "upper-only"


class OddIndexError(Exception):
    """squared_gap requires an even eigenvalue-count index."""


@dataclass(frozen=True)
class CauchyBounds:
    """Outer/inner eigenvalue-modulus radii; either may be absent when the
    corresponding extreme coefficient is singular."""

    upper: float | None
    lower: float | None
    norm_kind: NormKind
    variant: str


@dataclass(frozen=True)
class GapResult:
    """Outcome of a Pellet query at index k.

    status ``gap`` carries the annulus (x1, x2) free of eigenvalues and the
    exact count k*m of eigenvalues with modulus <= x1; ``upper-only`` is the
    degenerate one-sign-change case (all eigenvalues have modulus <= x1);
    ``nogap`` claims nothing.
    """

    k: int
    status: str
    x1: float | None
    x2: float | None
    eig_count_inside: int | None
    norm_kind: NormKind
    variant: str
    marginal: bool = False


def _coeff_norms(p: MatrixPolynomial, kind: NormKind) -> np.ndarray:
    return np.array([norm(c, kind) for c in p.coeffs])


def _pivot_profile(p: MatrixPolynomial, j: int, kind: NormKind, precondition: bool,
                   norms: np.ndarray | None = None):
    """Coefficient norms and nu = 1/||A_j^-1|| of the radial polynomial that
    pivots on A_j, or those of A_j^-1 P (where nu = 1) with ``precondition``.
    ``norms`` passes P's own coefficient norms when the caller has them.
    Raises SingularMatrixError when A_j is singular."""
    if precondition:
        return _coeff_norms(left_precondition(p, j), kind), 1.0
    if norms is None:
        norms = _coeff_norms(p, kind)
    return norms, inv_norm_inv(p.coeffs[j], kind)


def cauchy_bounds(p: MatrixPolynomial, kind, precondition: bool = False) -> CauchyBounds:
    """Generalized Cauchy bounds R (all |eig| <= R) and r (all |eig| >= r).

    R is the unique positive root of
        ||A_n^-1||^-1 x^n - sum_{j<n} ||A_j|| x^j
    and r the unique positive root of
        sum_{j>=1} ||A_j|| x^j - ||A_0^-1||^-1,
    each absent when the respective coefficient is singular.  With
    ``precondition``, the theorem is applied to A_n^-1 P for R and to
    A_0^-1 P for r, which can only tighten the bounds.
    """
    kind = NormKind.coerce(kind)
    variant = VARIANT_PRECONDITIONED if precondition else VARIANT_PLAIN
    plain_norms = None if precondition else _coeff_norms(p, kind)

    upper = None
    try:
        norms, nu = _pivot_profile(p, p.n, kind, precondition, plain_norms)
        if not np.any(norms[:-1] > 0.0):
            upper = 0.0  # P = A_n z^n: every eigenvalue sits at the origin
        else:
            coeffs = list(norms)
            coeffs[-1] = 0.0
            roots = positive_roots(SignedRadialPolynomial(coeffs, p.n, nu))
            upper = roots.x1
    except SingularMatrixError:
        pass

    lower = None
    try:
        norms, nu = _pivot_profile(p, 0, kind, precondition, plain_norms)
        coeffs = list(norms)
        coeffs[0] = 0.0
        roots = positive_roots(SignedRadialPolynomial(coeffs, 0, nu))
        lower = roots.x1
    except SingularMatrixError:
        pass

    return CauchyBounds(upper=upper, lower=lower, norm_kind=kind, variant=variant)


def _gap_from_roots(roots: PositiveRoots, k: int, count: int, kind: NormKind,
                    variant: str, upper_degenerate: bool) -> GapResult:
    if roots.kind == "two":
        return GapResult(k=k, status=GAP, x1=roots.x1, x2=roots.x2,
                         eig_count_inside=count, norm_kind=kind, variant=variant,
                         marginal=roots.marginal)
    if roots.kind == "one" and upper_degenerate:
        return GapResult(k=k, status=UPPER_ONLY, x1=roots.x1, x2=None,
                         eig_count_inside=None, norm_kind=kind, variant=variant)
    # "none", or a one-sign-change shape whose single root only bounds the
    # moduli from below; neither certifies an annulus, so claim nothing
    return GapResult(k=k, status=NO_GAP, x1=None, x2=None, eig_count_inside=None,
                     norm_kind=kind, variant=variant, marginal=roots.marginal)


def _radial_gap(norms: np.ndarray, nu: float, k: int, count: int, kind: NormKind,
                variant: str) -> GapResult:
    coeffs = list(norms)
    coeffs[k] = 0.0
    if not any(c > 0.0 for c in coeffs):
        # P = A_k z^k exactly; no annulus statement of the theorem's form
        return GapResult(k=k, status=NO_GAP, x1=None, x2=None, eig_count_inside=None,
                         norm_kind=kind, variant=variant)
    roots = positive_roots(SignedRadialPolynomial(coeffs, k, nu))
    upper_degenerate = not any(c > 0.0 for c in coeffs[k + 1:])
    return _gap_from_roots(roots, k, count, kind, variant, upper_degenerate)


def pellet_gap(p: MatrixPolynomial, k: int, kind, precondition: bool = False) -> GapResult:
    """Generalized Pellet query at index k (1 <= k <= n-1, A_k invertible).

    A ``gap`` result means det(P) has exactly k*m zeros in |z| <= x1 and none
    with modulus in (x1, x2).  Raises SingularMatrixError when A_k is
    singular (the theorem does not apply at this index).
    """
    kind = NormKind.coerce(kind)
    if not 1 <= k <= p.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for degree {p.n}")
    variant = VARIANT_PRECONDITIONED if precondition else VARIANT_PLAIN
    norms, nu = _pivot_profile(p, k, kind, precondition)
    return _radial_gap(norms, nu, k, k * p.m, kind, variant)


def squared_polynomial(p: MatrixPolynomial, use_reciprocal: bool) -> tuple:
    """The companion-squared polynomial Q of P (or Q_R of its reciprocal)
    and its variant tag.

    P is monicized if needed, replaced by its reciprocal for Q_R, shifted
    by z if its degree is odd, and then squared; the tag records each step
    taken.  Raises SingularMatrixError when a required pivot is singular.
    """
    tag = VARIANT_SQUARED_QR if use_reciprocal else VARIANT_SQUARED_Q
    if not p.is_monic():
        p = monicize(p)
        tag += "+monicized"
    base = reciprocal(p) if use_reciprocal else p
    if base.n % 2 != 0:
        base = shift_by_z(base)
        tag += "+shifted"
    return square_repartition(base), tag


def squared_bounds(p: MatrixPolynomial, kind, use_reciprocal: bool = False,
                   precondition_index: int | None = None) -> CauchyBounds:
    """Cauchy bounds through the companion-squared polynomial.

    Builds Q from P (or Q_R from the reciprocal of P), computes the Cauchy
    roots rho/tau for it, and maps them back: sqrt for the Q route, and
    reciprocal-of-sqrt for the Q_R route, where an upper bound on the squared
    reciprocals turns into a lower bound on the moduli of P's eigenvalues.
    Odd degrees are shifted by z first, which costs the lower (Q) or upper
    (Q_R) bound since the shifted constant coefficient is singular.
    ``precondition_index`` left-multiplies Q by B_j^-1 before the Cauchy
    step (j=0 sharpens the lower bound).
    """
    kind = NormKind.coerce(kind)
    q, tag = squared_polynomial(p, use_reciprocal)
    if precondition_index is not None:
        q = left_precondition(q, precondition_index)
        tag += f"+B{precondition_index}-preconditioned"
    cb = cauchy_bounds(q, kind, precondition=False)
    rho, tau = cb.upper, cb.lower
    if use_reciprocal:
        upper = None if tau is None else 1.0 / np.sqrt(tau)
        lower = None if rho is None else 1.0 / np.sqrt(rho)
    else:
        upper = None if rho is None else float(np.sqrt(rho))
        lower = None if tau is None else float(np.sqrt(tau))
    return CauchyBounds(upper=upper, lower=lower, norm_kind=kind, variant=tag)


def squared_gap(p: MatrixPolynomial, k_even: int, kind,
                precondition: bool = False) -> GapResult:
    """Pellet query through the companion-squared polynomial Q.

    ``k_even`` counts eigenvalues of P, so it must be even (Q's blocks are
    2m x 2m); a gap means exactly k_even * m eigenvalues of P lie in
    |z| <= sqrt(y1) and none have modulus in (sqrt(y1), sqrt(y2)).  With
    ``precondition`` the query runs on B_{k_even/2}^-1 Q.
    """
    kind = NormKind.coerce(kind)
    if not p.is_monic():
        p = monicize(p)
        monic_suffix = "+monicized"
    else:
        monic_suffix = ""
    if p.n % 2 != 0:
        raise OddDegreeError("squared_gap needs an even degree")
    if k_even % 2 != 0:
        raise OddIndexError(f"k must be even for the squared variant, got {k_even}")
    if not 2 <= k_even <= p.n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k_even} for degree {p.n}")
    kq = k_even // 2
    q = square_repartition(p)
    variant = VARIANT_SQUARED_Q
    if precondition:
        variant += "+B-preconditioned"
    norms, nu = _pivot_profile(q, kq, kind, precondition)
    variant += monic_suffix
    res = _radial_gap(norms, nu, kq, k_even * p.m, kind, variant)
    sqrt = lambda v: None if v is None else float(np.sqrt(v))
    return GapResult(k=k_even, status=res.status, x1=sqrt(res.x1), x2=sqrt(res.x2),
                     eig_count_inside=res.eig_count_inside, norm_kind=kind,
                     variant=variant, marginal=res.marginal)


__all__ = [
    "CauchyBounds",
    "GapResult",
    "GAP",
    "NO_GAP",
    "UPPER_ONLY",
    "OddIndexError",
    "cauchy_bounds",
    "pellet_gap",
    "squared_bounds",
    "squared_gap",
    "squared_polynomial",
]
