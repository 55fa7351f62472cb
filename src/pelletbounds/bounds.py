"""Cauchy radii and Pellet gaps for matrix polynomials.

Four families of bounds on the eigenvalue moduli of P(z) = sum A_j z^j:

* ``pellet_gap``     -- for an index k with A_k invertible, two positive
  roots x1 < x2 of the radial polynomial f_k certify that exactly k*m
  eigenvalues lie in |z| <= x1 and none in x1 < |z| < x2.
* ``cauchy_bounds``  -- outer radius R and inner radius r: Pellet's radial
  polynomial at k = n and at k = 0, where f_k has one sign change and so
  exactly one positive root.
* ``squared_bounds`` -- the same Cauchy machinery applied to the
  companion-squared polynomial Q (or to Q_R, built from the reciprocal),
  mapped back through square roots / reciprocals.
* ``squared_gap``    -- Pellet applied to Q: a gap at even index k_even
  certifies k_even * m eigenvalues inside sqrt(y1).

Preconditioned variants left-multiply by the inverse of the pivotal
coefficient first, which never shrinks a gap since
||A_k^-1 A_j|| <= ||A_k^-1|| ||A_j||.

The chord test.  The radial polynomial's chord test (``rootloc``) answers
"none" from the Newton polygon of its coefficients without evaluating h:
when e^C' - nu >= 10*GAP_RTOL*s, where C' is the highest chord at k over
its coefficients and s the largest of them and nu.  One prefilter tries
that test on the norms of P before any radial polynomial is built, for
plain and preconditioned queries alike.  Write c_j = ||A_j||,
nu_k = 1/||A_k^-1|| and C for the highest chord at k of the points
(j, log c_j), the maximum over i < k < j of
((j-k) log c_i + (k-i) log c_j) / (j-i) (``rootloc._highest_chord``, the
computation behind the chord test itself; ``matpoly`` keeps C per index and
kind).  A plain query's radial polynomial has exactly these coefficients,
so C' = C, and the query is "nogap" when

    e^C - nu_k >= 20*GAP_RTOL * max(max_{j != k} c_j, nu_k).

For A_k^-1 P, ||A_k^-1 A_j|| >= c_j / c_k, nu = 1 and
||A_k^-1 A_j|| <= c_j / nu_k, so the preconditioned query is "nogap" when

    e^C / c_k - 1 >= 20*GAP_RTOL * max(1, max_{j != k} c_j / nu_k).

This needs C > log c_k, so it skips only an index that is not a vertex of
the upper convex hull of the points (the Newton polygon of the norms).  The
factor 20 is twice the chord test's 10, so rounding in the norms cannot
flip a verdict, and a skipped query is exactly the "nogap", not marginal,
result that the root search would return.  The prefilter forms nu_k first,
so a singular A_k raises SingularMatrixError whether or not the query is
skipped, and it declines when a norm is infinite, which leaves the radial
polynomial to reject it.

Everything these theorems read from a polynomial (its coefficient norms,
nu_k, A_k^-1 P, Q and Q_R) is built once and kept on it by ``matpoly``;
this module keeps only the theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .linalg import NormKind, SingularMatrixError
from .matpoly import (MatrixPolynomial, OddDegreeError, _chord, _norms, _nu, _squared,
                      left_precondition)
from .rootloc import GAP_RTOL, PositiveRoots, SignedRadialPolynomial, positive_roots

VARIANT_PLAIN = "plain"
VARIANT_PRECONDITIONED = "monic-preconditioned"
VARIANT_SQUARED_Q = "squared-Q"
VARIANT_SQUARED_QR = "squared-QR"

GAP = "gap"
NO_GAP = "nogap"
UPPER_ONLY = "upper-only"

# A Pellet query is skipped by the norms of P only when its bound clears
# the chord test's threshold (10 * GAP_RTOL) twice over.
_PREFILTER_RTOL = 20.0 * GAP_RTOL


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


def _pivot_profile(p: MatrixPolynomial, j: int, kind: NormKind, precondition: bool):
    """Coefficient norms and nu = 1/||A_j^-1|| of the radial polynomial that
    pivots on A_j, or those of A_j^-1 P (where nu = 1) with ``precondition``.
    Raises SingularMatrixError when A_j is singular."""
    if precondition:
        return _norms(left_precondition(p, j), kind), 1.0
    return _norms(p, kind), _nu(p, j, kind)


def _radial_roots(norms: list, nu: float, k: int) -> PositiveRoots | None:
    """Positive roots of f_k(x) = sum_{j != k} norms[j] x^j - nu x^k, or
    None when every coefficient but the k-th is zero (P = A_k z^k)."""
    coeffs = norms[:k] + [0.0] + norms[k + 1:]
    if not any(c > 0.0 for c in coeffs):
        return None
    return positive_roots(SignedRadialPolynomial(coeffs, k, nu))


def _cauchy_radius(p: MatrixPolynomial, k: int, kind: NormKind,
                   precondition: bool) -> float | None:
    """The one positive root of f_k for k in {0, n}; None when A_k is singular,
    0.0 when every other coefficient is zero (at k = n every eigenvalue is
    then 0; at k = 0 the bound r = 0 is trivially valid)."""
    try:
        roots = _radial_roots(*_pivot_profile(p, k, kind, precondition), k)
    except SingularMatrixError:
        return None
    return 0.0 if roots is None else roots.x1


def cauchy_bounds(p: MatrixPolynomial, kind, precondition: bool = False) -> CauchyBounds:
    """Generalized Cauchy bounds R (all |eig| <= R) and r (all |eig| >= r).

    These are Pellet's radial polynomial at its two end indices: R is the
    unique positive root of f_n (pivot A_n),
        ||A_n^-1||^-1 x^n - sum_{j<n} ||A_j|| x^j,
    and r the unique positive root of f_0 (pivot A_0),
        sum_{j>=1} ||A_j|| x^j - ||A_0^-1||^-1,
    each absent when the respective coefficient is singular.  With
    ``precondition``, the theorem is applied to A_n^-1 P for R and to
    A_0^-1 P for r, which can only tighten the bounds.
    """
    kind = NormKind.coerce(kind)
    variant = VARIANT_PRECONDITIONED if precondition else VARIANT_PLAIN
    upper, lower = (_cauchy_radius(p, k, kind, precondition) for k in (p.n, 0))
    return CauchyBounds(upper=upper, lower=lower, norm_kind=kind, variant=variant)


def _radial_gap(norms: list, nu: float, k: int, count: int, kind: NormKind,
                variant: str) -> GapResult:
    roots = _radial_roots(norms, nu, k) or PositiveRoots("none")
    if roots.kind == "two":
        status, x1, x2 = GAP, roots.x1, roots.x2
    elif roots.kind == "one" and not any(c > 0.0 for c in norms[k + 1:]):
        status, x1, x2, count = UPPER_ONLY, roots.x1, None, None
    else:
        # P = A_k z^k exactly, "none", or a one-sign-change shape whose
        # single root only bounds the moduli from below: none of these
        # certifies an annulus, so claim nothing
        status, x1, x2, count = NO_GAP, None, None, None
    return GapResult(k=k, status=status, x1=x1, x2=x2, eig_count_inside=count,
                     norm_kind=kind, variant=variant, marginal=roots.marginal)


def _chord_proves_none(p: MatrixPolynomial, k: int, kind: NormKind, precondition: bool) -> bool:
    """Whether P's coefficient norms, nu_k and their chord C at k prove the
    chord test's "none" at k, for P itself or, with ``precondition``, for
    A_k^-1 P (see the module docstring); raises SingularMatrixError when
    A_k is singular."""
    nu = _nu(p, k, kind)
    norms = _norms(p, kind)
    others = max(norms[:k] + norms[k + 1:])
    chord = _chord(p, k, kind)
    # each inequality divided by its scale to keep exp in range
    if precondition:
        scale = max(1.0, others / nu)
        bound = math.exp(chord - math.log(norms[k]) - math.log(scale)) - 1.0 / scale
    else:
        scale = max(others, nu)
        bound = math.exp(chord - math.log(scale)) - nu / scale
    return math.isfinite(scale) and bound >= _PREFILTER_RTOL


def _pellet_query(p: MatrixPolynomial, k: int, kind: NormKind, precondition: bool,
                  count: int, variant: str) -> GapResult:
    """Pellet's theorem at index k of P, from the roots of the radial
    polynomial; "nogap" early when P's norms prove it."""
    if _chord_proves_none(p, k, kind, precondition):
        return GapResult(k=k, status=NO_GAP, x1=None, x2=None, eig_count_inside=None,
                         norm_kind=kind, variant=variant)
    return _radial_gap(*_pivot_profile(p, k, kind, precondition), k, count, kind, variant)


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
    return _pellet_query(p, k, kind, precondition, k * p.m, variant)


def squared_polynomial(p: MatrixPolynomial, use_reciprocal: bool) -> tuple:
    """The companion-squared polynomial Q of P (or Q_R of its reciprocal),
    built once per route and kept on P (``matpoly``), and its variant tag.

    P is monicized if needed, replaced by its reciprocal for Q_R, shifted
    by z if its degree is odd, and then squared; the tag names each of
    those steps that P needs.  Raises SingularMatrixError when a required
    pivot is singular or an entry of Q overflows the double range.
    """
    use_reciprocal = bool(use_reciprocal)
    q = _squared(p, use_reciprocal)
    tag = VARIANT_SQUARED_QR if use_reciprocal else VARIANT_SQUARED_Q
    return q, tag + ("" if p.is_monic() else "+monicized") + ("+shifted" if p.n % 2 else "")


def _unsquare(y: float | None, invert: bool = False) -> float | None:
    """A radius y of Q mapped back to P: sqrt(y), or 1/sqrt(y) for Q_R,
    whose eigenvalues are the squared reciprocals of P's."""
    if y is None:
        return None
    root = math.sqrt(y)
    return 1.0 / root if invert else root


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
    step (j=0 sharpens the lower bound).  Raises SingularMatrixError when Q
    cannot be formed: a required pivot is singular, or an entry of Q
    overflows the double range (Q holds products of P's monic coefficients,
    which overflow from about 1e154).
    """
    kind = NormKind.coerce(kind)
    q, tag = squared_polynomial(p, use_reciprocal)
    if precondition_index is not None:
        q = left_precondition(q, precondition_index)
        tag += f"+B{precondition_index}-preconditioned"
    cb = cauchy_bounds(q, kind, precondition=False)
    upper, lower = (cb.lower, cb.upper) if use_reciprocal else (cb.upper, cb.lower)
    return CauchyBounds(upper=_unsquare(upper, use_reciprocal),
                        lower=_unsquare(lower, use_reciprocal), norm_kind=kind, variant=tag)


def squared_gap(p: MatrixPolynomial, k_even: int, kind,
                precondition: bool = False) -> GapResult:
    """Pellet query through the companion-squared polynomial Q.

    ``k_even`` counts eigenvalues of P, so it must be even (Q's blocks are
    2m x 2m); a gap means exactly k_even * m eigenvalues of P lie in
    |z| <= sqrt(y1) and none have modulus in (sqrt(y1), sqrt(y2)).  With
    ``precondition`` the query runs on B_{k_even/2}^-1 Q.  Raises
    SingularMatrixError when Q cannot be formed: a required pivot is
    singular, or an entry of Q overflows the double range.
    """
    kind = NormKind.coerce(kind)
    if p.n % 2 != 0:
        raise OddDegreeError("squared_gap needs an even degree")
    if k_even % 2 != 0:
        raise OddIndexError(f"k must be even for the squared variant, got {k_even}")
    if not 2 <= k_even <= p.n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k_even} for degree {p.n}")
    kq = k_even // 2
    q, variant = squared_polynomial(p, use_reciprocal=False)
    if precondition:
        variant += "+B-preconditioned"
    res = _pellet_query(q, kq, kind, precondition, k_even * p.m, variant)
    return replace(res, k=k_even, x1=_unsquare(res.x1), x2=_unsquare(res.x2))


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
