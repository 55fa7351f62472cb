"""Positive-root isolation for radial polynomials with one negative term.

Every bound in the library reduces to locating the positive roots of

    f(x) = sum_{j != k} c_j x^j  -  nu * x^k,      c_j >= 0,  nu > 0.

By Descartes' rule f has either one positive root (when the negative term
is leading or trailing among the nonzero coefficients: the Cauchy shapes)
or two-or-none (the Pellet shape).  Writing x = e^t turns the sign analysis
into the convex function

    h(t) = log(sum_j c_j e^{(j-k) t}) - log(nu),

with f(x) < 0 exactly where h(t) < 0.  h = log(f(x) / (nu x^k) + 1) is
free of any scale: the unit change c_j -> c_j alpha^j, which maps each
root x to x / alpha, only shifts h by log(alpha) in t.  All root finding
is done on h in log-x coordinates, over the log form that a
SignedRadialPolynomial builds in its constructor, once validated: the
coefficients and nu are divided by the largest of them, a_j = log c_j is
kept for each of the N positive terms, and log nu with them (each as
log c - log scale where the quotient would underflow, so no term is lost),
and h is a log-sum-exp over them, so degrees up to 100 and widely scaled
coefficients cannot overflow.  N is small, so h is evaluated with plain
Python floats: numpy's per-call cost would exceed the arithmetic.

The envelope.  The Newton-polygon (tropical) envelope of h,

    T(t) = max_j (a_j + (j - k) t) - log(nu),

satisfies T <= h <= T + log N, since a sum of N positive terms lies between
its largest term and N times it.  T is piecewise linear and read off the
terms: it is <= 0 exactly on an interval [tau1, tau2] (one end infinite in
the Cauchy shapes).  Every root lies inside, and h >= T = 0 at either end.

Roots.  Newton's method on a convex function, started where it is >= 0,
converges monotonically to the root on that side, as the tangent lies below
h (Ostrowski, Solution of Equations and Systems of Equations).  So each
root is one plain Newton iteration on (h, h') from an end of [tau1, tau2]:
the one-sign-change root from tau1 when there are terms below k and from
tau2 otherwise, and in the Pellet shape x1 from tau1 and x2 from tau2, on
either side of the minimum of h.  It stops when a Newton step falls below
the tolerance, or at h <= 0, which in exact arithmetic only the root
reaches (the start too may round there).  Starts are clamped to |t| <=
log(DBL_MAX), about 709.78, up to which e^t is finite; h < 0 at a clamped
start, or a step past that limit, puts the root beyond double range and
raises InvalidShapeError instead of overflowing exp.

Verdicts in the Pellet shape.  The minimum of T is the chord test of the
Newton polygon,

    delta = max_{i < k < j} ((j-k) a_i + (k-i) a_j) / (j-i) - log(nu),

reached at the crossing t_c of the maximizing pair.  The verdict and its
margin are read on h alone, so no scale takes part in them: "two" when
h_min < -GAP_RTOL, else "none", and marginal when |h_min| < 10*GAP_RTOL.
As h_min >= delta, delta >= 10*GAP_RTOL settles "none" (not marginal)
without evaluating h; ``bounds`` tries the same test, at twice the margin,
on a polynomial's kept norms before it builds a radial polynomial at all.
Otherwise h is evaluated once at t_c, and h(t_c) < -10*GAP_RTOL settles
"two" (not marginal).  Failing both, the minimizer of h decides "none" or
"two" and the marginal flag.  As T(t) >= delta + min|j - k| |t - t_c| and
h(t_c) <= delta + log N, it lies within log N / min|j - k| of t_c, the
bracket of the one safeguarded search: Newton's method on h' with h'' (the
only use of h''), falling back to bisection.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

# Existence tolerance for a gap, on h: when the minimum of h is not below
# -GAP_RTOL, that is f(x) >= -GAP_RTOL nu x^k to first order, the two roots
# may coincide, so no gap is reported.  Verdicts with |h_min| within 10x
# of the threshold are flagged marginal.
GAP_RTOL = 1e-10

_T_LIMIT = math.log(sys.float_info.max)  # e^t is finite for |t| up to this
_MAX_ITER = 200
_ROOT_TOL = 1e-14  # relative Newton step at which a root of h is final
_MIN_TOL = 1e-12   # the same, or bracket width, for the minimizer of h

_d = operator.itemgetter(1)  # d_j of a term (a_j, d_j)


class InvalidShapeError(Exception):
    """The coefficient data violates the one-negative-term shape."""


@dataclass(frozen=True)
class SignedRadialPolynomial:
    """f(x) = sum_{j != neg_index} coeffs[j] x^j - neg_value * x^neg_index.

    coeffs must be nonnegative with coeffs[neg_index] == 0, neg_value must be
    positive, and at least one other coefficient must be positive.  Once
    validated, the constructor also keeps f's log form (see the module
    docstring) in private attributes, which are not dataclass fields: the
    positive terms in ascending j, each once, as the pairs (a_j, d_j) of the
    normalized a_j = log c_j and d_j = j - k (``_terms``), the normalized
    log nu, and the envelope ends tau1 and tau2.
    """

    coeffs: tuple
    neg_index: int
    neg_value: float

    def __init__(self, coeffs, neg_index, neg_value):
        coeffs = tuple(map(float, coeffs))
        neg_index = operator.index(neg_index)
        neg_value = float(neg_value)
        if len(coeffs) < 2:
            raise InvalidShapeError("need degree >= 1")
        if not 0 <= neg_index < len(coeffs):
            raise InvalidShapeError(f"neg_index {neg_index} out of range")
        if not all(0.0 <= c < math.inf for c in coeffs):
            raise InvalidShapeError("coefficients must be finite and nonnegative")
        if coeffs[neg_index] != 0.0:
            raise InvalidShapeError("coeffs[neg_index] must be zero (it is replaced by -neg_value)")
        if not math.isfinite(neg_value) or neg_value <= 0.0:
            raise InvalidShapeError("neg_value must be positive and finite")
        largest = max(coeffs)
        if not largest > 0.0:
            raise InvalidShapeError("need at least one positive coefficient besides the negative term")
        scale = max(largest, neg_value)
        log, tiny = math.log, sys.float_info.min
        # log(c / scale) is the log of the quotient while that is a normal
        # float, else log c - log scale, which cannot underflow
        nu = neg_value / scale
        lognu = log(nu) if nu >= tiny else log(neg_value) - log(scale)
        terms = []
        # T <= 0 on [tau1, tau2]: right of each falling line's zero, left of
        # each rising line's zero
        tau1, tau2 = -math.inf, math.inf
        for j, c in enumerate(coeffs):
            if c > 0.0:
                r = c / scale
                a, d = log(r) if r >= tiny else log(c) - log(scale), float(j - neg_index)
                terms.append((a, d))
                z = (lognu - a) / d
                if d > 0.0:
                    if z < tau2:
                        tau2 = z
                elif z > tau1:
                    tau1 = z
        # past the frozen __setattr__
        self.__dict__.update(coeffs=coeffs, neg_index=neg_index, neg_value=neg_value,
                             _terms=terms, _lognu=lognu, _tau1=tau1, _tau2=tau2)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: float) -> float:
        """Evaluate f(x) directly (Horner); fine away from overflow range."""
        acc = 0.0
        for j in range(self.degree, -1, -1):
            c = -self.neg_value if j == self.neg_index else self.coeffs[j]
            acc = acc * x + c
        return acc

    def _newton(self, t: float):
        """Return (h, h') at t; h' is the mean of j - k under the weights
        c_j e^{(j-k)t}."""
        terms, exp = self._terms, math.exp
        s = [a + d * t for a, d in terms]
        smax = max(s)
        w = [exp(v - smax) for v in s]
        tot = sum(w)
        return smax + math.log(tot) - self._lognu, sum(map(operator.mul, w, map(_d, terms))) / tot

    def _stats(self, t: float):
        """Return (h, h', h''); h'' is the variance of j - k under the same
        weights, hence h is convex."""
        h, mean = self._newton(t)
        top = h + self._lognu  # the log of the weights' sum
        var = sum([math.exp(a + d * t - top) * (d - mean) ** 2 for a, d in self._terms])
        return h, mean, var

    def _vertex(self):
        """(delta, t_c): the minimum of T and where it is reached."""
        chord, tc = _highest_chord(self._terms)
        return chord - self._lognu, tc


@dataclass(frozen=True)
class PositiveRoots:
    """Positive roots of a SignedRadialPolynomial.

    kind is "none", "one" (x1 set), or "two" (0 < x1 < x2).  ``marginal``
    flags two/none verdicts decided within 10x of the gap tolerance.
    """

    kind: str
    x1: float | None = None
    x2: float | None = None
    marginal: bool = False

    def __post_init__(self):
        if self.kind == "two" and not self.x2 > self.x1 * (1.0 + 1e-12):
            raise InvalidShapeError(f"two roots must be separated: {self.x1}, {self.x2}")


def _highest_chord(terms):
    """(C, t_c) for the lines a + d t, one per pair (a, d) of ``terms`` (no
    d zero): C is the highest chord (d_j a_i - d_i a_j) / (d_j - d_i) over
    d_i < 0 < d_j, the minimum of max(a + d t), and t_c where that pair of
    lines crosses; (-inf, 0.0) when either sign is missing."""
    best, tc = -math.inf, 0.0
    for ai, di in terms:
        if di > 0.0:
            continue
        for aj, dj in terms:
            if dj < 0.0:
                continue
            v = (dj * ai - di * aj) / (dj - di)
            if v > best:
                best, tc = v, (ai - aj) / (dj - di)
    return best, tc


def _root(f: SignedRadialPolynomial, tau: float) -> float:
    """The root of h reached by Newton's method from tau, a finite end of
    [tau1, tau2] and so on the root's outer side (see the module docstring)."""
    t = min(max(tau, -_T_LIMIT), _T_LIMIT)
    v, slope = f._newton(t)
    if v < 0.0 and t != tau:
        raise InvalidShapeError("root outside representable range")
    for _ in range(_MAX_ITER):
        if v <= 0.0:
            break
        tn = t - v / slope
        if abs(tn) > _T_LIMIT:
            raise InvalidShapeError("root outside representable range")
        if abs(tn - t) <= 0.5 * _ROOT_TOL * (1.0 + 2.0 * abs(t)):
            return tn
        t = tn
        v, slope = f._newton(t)
    return t


def _minimizer(f: SignedRadialPolynomial, tc: float) -> float:
    """The zero of the nondecreasing h' within log N / min|j - k| of t_c:
    Newton's method on h' from t_c, safeguarded by bisection, until the
    bracket or a Newton step falls below _MIN_TOL relative."""
    step = math.log(len(f._terms)) / min(abs(d) for _, d in f._terms)
    lo, hi, t = tc - step, tc + step, tc
    for _ in range(_MAX_ITER):
        _, v, slope = f._stats(t)
        if v == 0.0:
            return t
        if v > 0.0:
            hi = t
        else:
            lo = t
        if hi - lo <= _MIN_TOL * (1.0 + abs(lo) + abs(hi)):
            break
        if slope != 0.0:
            tn = t - v / slope
            # a Newton step below the tolerance has converged; without this
            # test an iterate that rounds onto an end of the bracket would
            # stall there and leave the rest to bisection
            if lo <= tn <= hi and abs(tn - t) <= 0.5 * _MIN_TOL * (1.0 + 2.0 * abs(t)):
                return tn
            if lo < tn < hi:
                t = tn
                continue
        t = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def positive_roots(f: SignedRadialPolynomial) -> PositiveRoots:
    """Locate the positive roots of f.

    One sign change (Cauchy shapes and degenerate one-sided Pellet shapes)
    yields the unique root.  Otherwise a minimum of h at or above -GAP_RTOL
    means the two roots may coincide and "none" is returned, else both
    roots are found from the outer side.  The envelope settles most
    verdicts before the minimum is searched for (see the module docstring).
    """
    below, above = f._terms[0][1] < 0.0, f._terms[-1][1] > 0.0
    if not (below and above):
        # single sign change: h decreases when all the mass lies below k
        return PositiveRoots("one", x1=math.exp(_root(f, f._tau1 if below else f._tau2)))

    delta, tc = f._vertex()
    if delta >= 10.0 * GAP_RTOL:
        return PositiveRoots("none")
    marginal = False
    if f._newton(tc)[0] >= -10.0 * GAP_RTOL:
        hmin = f._newton(_minimizer(f, tc))[0]
        marginal = abs(hmin) < 10.0 * GAP_RTOL
        if hmin >= -GAP_RTOL:
            return PositiveRoots("none", marginal=marginal)
    x1, x2 = math.exp(_root(f, f._tau1)), math.exp(_root(f, f._tau2))
    return PositiveRoots("two", x1=x1, x2=x2, marginal=marginal)
