"""Cauchy radii and Pellet gaps for matrix polynomials.

Four families of bounds on the eigenvalue moduli of P(z) = sum A_j z^j:

* ``pellet_gap``     -- for an index k with A_k invertible, two positive
  roots x1 < x2 of the radial polynomial f_k certify that exactly k*m
  eigenvalues lie in |z| <= x1 and none in x1 < |z| < x2; else "nogap".
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
when C' - log nu >= 10*GAP_RTOL, where C' is the highest chord at k over
its coefficients.  That is a bound on h, so no scale takes part.  One
prefilter tries the test on the norms of P before any radial polynomial
is built, for plain and preconditioned queries alike.  Write c_j =
||A_j||, nu_k = 1/||A_k^-1|| and C for the highest chord at k of the
points (j, log c_j), the maximum over i < k < j of
((j-k) log c_i + (k-i) log c_j) / (j-i) (``rootloc._highest_chord``, the
computation behind the chord test itself; ``matpoly`` keeps C per index and
kind).  A plain query's radial polynomial has exactly these coefficients,
so C' = C, and the query is "nogap" when

    C - log nu_k >= 20*GAP_RTOL.

For A_k^-1 P, nu = 1 and ||A_k^-1 A_j|| >= c_j / c_k, so C' >= C - log c_k
and the preconditioned query is "nogap" when

    C - log c_k >= 20*GAP_RTOL.

This needs C > log c_k, so it skips only an index that is not a vertex of
the upper convex hull of the points (the Newton polygon of the norms).  The
factor 20 is twice the chord test's 10, so rounding in the norms cannot
flip a verdict, and a skipped query is exactly the "nogap", not marginal,
result that the root search would return.  The prefilter forms nu_k first,
so a singular A_k raises SingularMatrixError whether or not the query is
skipped.  It declines when max_j c_j is infinite, which leaves the radial
polynomial to reject the query, and for a preconditioned query when
max_j c_j / nu_k is, which bounds the norms of A_k^-1 P: forming A_k^-1 P
then decides, and raises SingularMatrixError when it overflows.

Everything these theorems read from a polynomial (its coefficient norms,
nu_k, the chord C, A_k^-1 P, Q and Q_R) is built once and kept on it by
``matpoly``.  This module keeps only the theorems and writes nothing: each
query is a pure function of what it reads, a Cauchy radius included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .linalg import NormKind, SingularMatrixError
from .matpoly import (MatrixPolynomial, OddDegreeError, _chord, _kept, _nu, _squared,
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
_NO_ROOTS = PositiveRoots("none")


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
    exact count k*m of eigenvalues with modulus <= x1; ``nogap`` claims
    nothing.  No query returns ``upper-only`` (every modulus <= x1), which
    ``oracle.check_gap`` verifies for a result a caller builds.
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
    """The coefficient norms for ``kind`` and nu = 1/||A_j^-1|| of the
    polynomial whose radial polynomial pivots on A_j: P itself, or with
    ``precondition`` A_j^-1 P, whose j-th coefficient is exactly I and so nu
    exactly 1.0.  Raises SingularMatrixError when A_j is singular."""
    if precondition:
        p = left_precondition(p, j)
    return _kept(p, kind).norms, _nu(p, j, kind)


def _radial_roots(norms: list, nu: float, k: int) -> PositiveRoots | None:
    """Positive roots of f_k(x) = sum_{j != k} norms[j] x^j - nu x^k, or
    None when every coefficient but the k-th is zero (P = A_k z^k)."""
    coeffs = norms[:k] + [0.0] + norms[k + 1:]
    if not any(c > 0.0 for c in coeffs):
        return None
    return positive_roots(SignedRadialPolynomial(coeffs, k, nu))


def _cauchy_radius(p: MatrixPolynomial, k: int, kind: NormKind,
                   precondition: bool) -> float | None:
    """The one positive root of f_k for k in {0, n}, of P or with
    ``precondition`` of A_k^-1 P; None when A_k is singular, 0.0 when every
    other coefficient is zero (at k = n every eigenvalue is then 0; at k = 0
    the bound r = 0 is trivially valid)."""
    try:
        norms, nu = _pivot_profile(p, k, kind, precondition)
    except SingularMatrixError:
        return None
    roots = _radial_roots(norms, nu, k)
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


def _gap_result(k: int, roots: PositiveRoots, count: int, kind: NormKind, variant: str,
                radius=float) -> GapResult:
    """Pellet's verdict at 1 <= k <= n-1 from the roots of f_k, each mapped
    to the reported radius by ``radius``: A_n is nonzero, so f_k has a term
    above k, and its roots are "two" (the annulus), "none", or "one" when
    every term lies above k, a lower bound that certifies no annulus."""
    if roots.kind == "two":
        status, x1, x2 = GAP, radius(roots.x1), radius(roots.x2)
    else:
        status, x1, x2, count = NO_GAP, None, None, None
    return GapResult(k=k, status=status, x1=x1, x2=x2, eig_count_inside=count,
                     norm_kind=kind, variant=variant, marginal=roots.marginal)


def _chord_proves_none(p: MatrixPolynomial, k: int, kind: NormKind, precondition: bool) -> bool:
    """Whether P's coefficient norms, nu_k and their chord C at k prove the
    chord test's "none" at k, for P itself or, with ``precondition``, for
    A_k^-1 P (see the module docstring); raises SingularMatrixError when
    A_k is singular."""
    nu = _nu(p, k, kind)
    kept = _kept(p, kind)
    top, pivot = max(kept.norms), nu
    if precondition:
        top, pivot = top / nu, kept.norms[k]
    return top < math.inf and _chord(kept, k) - math.log(pivot) >= _PREFILTER_RTOL


def _pellet_roots(p: MatrixPolynomial, k: int, kind: NormKind, precondition: bool) -> PositiveRoots:
    """The roots of Pellet's radial polynomial at index k of P (with
    ``precondition``, of A_k^-1 P); "none" early when P's norms prove it."""
    if _chord_proves_none(p, k, kind, precondition):
        return _NO_ROOTS
    return _radial_roots(*_pivot_profile(p, k, kind, precondition), k)


def pellet_gap(p: MatrixPolynomial, k: int, kind, precondition: bool = False) -> GapResult:
    """Generalized Pellet query at index k (1 <= k <= n-1, A_k invertible).

    A ``gap`` result means det(P) has exactly k*m zeros in |z| <= x1 and none
    with modulus in (x1, x2).  Raises SingularMatrixError when A_k is
    singular (the theorem does not apply at this index).
    """
    kind = NormKind.coerce(kind)
    k = operator.index(k)
    if not 1 <= k <= p.n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for degree {p.n}")
    variant = VARIANT_PRECONDITIONED if precondition else VARIANT_PLAIN
    return _gap_result(k, _pellet_roots(p, k, kind, precondition), k * p.m, kind, variant)


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

    Unlike ``cauchy_bounds``, the radii depend on the unit of z, even in
    exact arithmetic: Q's blocks mix coefficients of different degree, so
    P(2^e z)'s radii times 2^e are not P's.  On a random 2x2 quartic whose
    largest modulus is 1.54, the 1-norm Q upper radius is 2.56 at e = 0 and
    4.12, 42.8 and 59.5 at e = 3, 10 and -10.
    """
    kind = NormKind.coerce(kind)
    q, tag = squared_polynomial(p, use_reciprocal)
    if precondition_index is not None:
        precondition_index = operator.index(precondition_index)
        q = left_precondition(q, precondition_index)
        tag += f"+B{precondition_index}-preconditioned"
    radii = [_cauchy_radius(q, k, kind, False) for k in (q.n, 0)]
    upper, lower = radii[::-1] if use_reciprocal else radii
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
    singular, or an entry of Q overflows the double range.  Like
    ``squared_bounds`` and unlike ``pellet_gap``, the verdict and radii
    depend on the unit of z, as Q does.
    """
    kind = NormKind.coerce(kind)
    k_even = operator.index(k_even)
    if p.n % 2 != 0:
        raise OddDegreeError("squared_gap needs an even degree")
    if k_even % 2 != 0:
        raise OddIndexError(f"k must be even for the squared variant, got {k_even}")
    if not 2 <= k_even <= p.n - 2:
        raise ValueError(f"need 2 <= k <= n-2, got k={k_even} for degree {p.n}")
    q, variant = squared_polynomial(p, use_reciprocal=False)
    if precondition:
        variant += "+B-preconditioned"
    return _gap_result(k_even, _pellet_roots(q, k_even // 2, kind, precondition),
                       k_even * p.m, kind, variant, radius=_unsquare)
