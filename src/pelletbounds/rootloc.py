"""Positive-root isolation for radial polynomials with one negative term.

Every bound in the library reduces to locating the positive roots of

    f(x) = sum_{j != k} c_j x^j  -  nu * x^k,      c_j >= 0,  nu > 0.

By Descartes' rule f has either one positive root (when the negative term
is leading or trailing among the nonzero coefficients: the Cauchy shapes)
or two-or-none (the Pellet shape).  Writing x = e^t turns the sign analysis
into the convex function

    h(t) = log(sum_j c_j e^{(j-k) t}) - log(nu),

with f(x) < 0 exactly where h(t) < 0, and phi(x) := f(x)/x^k = nu*(e^h - 1).
All root finding is done on h in log-x coordinates.  The coefficients and
nu are divided by the largest of them, a_j = log c_j is kept for each of
the N positive terms, and log nu with them (each as log c - log scale where
the quotient would underflow, so no term is lost), and h is a log-sum-exp
over them, so degrees up to 100 and widely scaled coefficients cannot
overflow.  N is small, so h is evaluated with plain Python floats: numpy's
per-call cost would exceed the arithmetic.

The envelope.  The Newton-polygon (tropical) envelope of h,

    T(t) = max_j (a_j + (j - k) t) - log(nu),

satisfies T <= h <= T + log N, since a sum of N positive terms lies between
its largest term and N times it.  T is piecewise linear and read off the
terms: it is <= 0 exactly on an interval [tau1, tau2] (one end infinite in
the Cauchy shapes), and every search starts from it.

* One sign change: h is monotone and its root lies within
  log N / min|j - k| of the envelope's zero, so the search starts there
  with that first step, which brackets the root in exact arithmetic.
* Pellet shape: the minimum of T is the chord test of the Newton polygon,

      delta = max_{i < k < j} ((j-k) a_i + (k-i) a_j) / (j-i) - log(nu),

  reached at the crossing t_c of the maximizing pair.  phi_min is at least
  nu*expm1(delta), so nu*expm1(delta) >= 10*GAP_RTOL settles "none" (not
  marginal) without evaluating h.  Otherwise h is evaluated once at t_c,
  and nu*expm1(h(t_c)) < -10*GAP_RTOL settles "two" (not marginal).
  Failing both, the minimizer of h (the zero of the nondecreasing h',
  within log N / min|j - k| of t_c) is located from t_c, and phi there
  decides "none" or "two" and the marginal flag against GAP_RTOL.  The two
  roots are searched outward from the point where h < 0, with first steps
  to tau1 and tau2, where h >= T = 0.

Every search is one routine for the zero of a monotone g given with its
derivative: one bracket walk from a start t0 by a first step s, then 2s,
4s, ... until g changes sign (s is at least 1e-9, so a one-term h, where
the start is the root, still steps), then one Newton iteration safeguarded
by bisection, which stops when the bracket or the Newton step falls below
the tolerance.  Every start is clamped to |t| <= 700, and the walk checks that
range guard before each evaluation, so a root beyond double range raises
InvalidShapeError instead of overflowing exp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Existence tolerance for a gap, relative to the coefficient scale: when the
# minimum of phi is within GAP_RTOL * scale of zero the two roots may
# coincide, so no gap is reported.  Results within 10x of the threshold are
# flagged marginal.
GAP_RTOL = 1e-10

_T_LIMIT = 700.0  # |log x| beyond this exceeds double range
_MAX_ITER = 200
_ROOT_TOL = 1e-14  # relative bracket width at which a root of h is final
_MIN_TOL = 1e-12   # the same for the minimizer, where phi is flat
_MIN_STEP = 1e-9  # least first step of a bracket walk (N = 1 gives log N = 0)


class InvalidShapeError(Exception):
    """The coefficient data violates the one-negative-term shape."""


@dataclass(frozen=True)
class SignedRadialPolynomial:
    """f(x) = sum_{j != neg_index} coeffs[j] x^j - neg_value * x^neg_index.

    coeffs must be nonnegative with coeffs[neg_index] == 0, neg_value must be
    positive, and at least one other coefficient must be positive.
    """

    coeffs: tuple
    neg_index: int
    neg_value: float

    def __init__(self, coeffs, neg_index, neg_value):
        coeffs = tuple(float(c) for c in coeffs)
        neg_index = int(neg_index)
        neg_value = float(neg_value)
        if len(coeffs) < 2:
            raise InvalidShapeError("need degree >= 1")
        if not 0 <= neg_index < len(coeffs):
            raise InvalidShapeError(f"neg_index {neg_index} out of range")
        if any(not math.isfinite(c) or c < 0.0 for c in coeffs):
            raise InvalidShapeError("coefficients must be finite and nonnegative")
        if coeffs[neg_index] != 0.0:
            raise InvalidShapeError("coeffs[neg_index] must be zero (it is replaced by -neg_value)")
        if not math.isfinite(neg_value) or neg_value <= 0.0:
            raise InvalidShapeError("neg_value must be positive and finite")
        if not any(c > 0.0 for c in coeffs):
            raise InvalidShapeError("need at least one positive coefficient besides the negative term")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "neg_index", neg_index)
        object.__setattr__(self, "neg_value", neg_value)

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


def _log_ratio(c: float, scale: float) -> float:
    """log(c / scale) for 0 < c <= scale: the log of the quotient while it is
    a normal float, else log c - log scale, which cannot underflow."""
    r = c / scale
    return math.log(r) if r >= sys.float_info.min else math.log(c) - math.log(scale)


class _LogRadial:
    """h(t), its derivatives and its envelope for the normalized radial
    polynomial, over its positive terms (a_j, d_j = j - k)."""

    def __init__(self, f: SignedRadialPolynomial):
        scale = max(max(f.coeffs), f.neg_value)
        k = f.neg_index
        self.logs, self.ds = [], []
        for j, c in enumerate(f.coeffs):
            if c > 0.0:
                self.logs.append(_log_ratio(c, scale))
                self.ds.append(float(j - k))
        self.nu = f.neg_value / scale  # may underflow; lognu does not
        self.lognu = _log_ratio(f.neg_value, scale)
        # how far a root or the minimizer of h can lie from the matching
        # zero or vertex of T, since T <= h <= T + log N
        self.step = math.log(len(self.ds)) / min(abs(d) for d in self.ds)
        # T <= 0 on [tau1, tau2]: left of each rising line's zero, right of
        # each falling line's zero
        self.tau1, self.tau2 = -math.inf, math.inf
        for a, d in zip(self.logs, self.ds):
            z = (self.lognu - a) / d
            if d > 0.0:
                self.tau2 = min(self.tau2, z)
            else:
                self.tau1 = max(self.tau1, z)

    def stats(self, t: float):
        """Return (h, h', h'') at t; h' and h'' are the mean and variance of
        j - k under the exponential weights, hence h is convex."""
        ds = self.ds
        s = [a + d * t for a, d in zip(self.logs, ds)]
        smax = max(s)
        w = [math.exp(v - smax) for v in s]
        tot = sum(w)
        mean = sum([wi * d for wi, d in zip(w, ds)]) / tot
        var = sum([wi * (d - mean) ** 2 for wi, d in zip(w, ds)]) / tot
        return smax + math.log(tot) - self.lognu, mean, var

    def phi(self, h: float) -> float:
        """phi = nu*(e^h - 1) on the normalized scale.  Past h = 1 it is
        e^(log nu + h) - nu, which cannot overflow where it is used: at the
        envelope's minimum log nu + delta <= 0, and h is at most log N above
        it at t_c and at the minimizer."""
        return self.nu * math.expm1(h) if h < 1.0 else math.exp(self.lognu + h) - self.nu

    def vertex(self):
        """(delta, t_c): the minimum of T and where it is reached."""
        chord, tc = _highest_chord(self.logs, self.ds)
        return chord - self.lognu, tc


def _highest_chord(logs, ds):
    """(C, t_c) for the lines a + d t (a in logs, d in ds, no d zero): C is
    the highest chord (d_j a_i - d_i a_j) / (d_j - d_i) over d_i < 0 < d_j,
    the minimum of max(a + d t), and t_c where that pair of lines crosses;
    (-inf, 0.0) when either sign is missing."""
    best, tc = -math.inf, 0.0
    terms = list(zip(logs, ds))
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


def _clamp(t: float) -> float:
    return min(max(t, -_T_LIMIT), _T_LIMIT)


def _zero(g, t0: float, g0: float, increasing: bool, tol: float, step: float) -> float:
    """Zero of the monotone g, searched from t0 where g(t0)[0] == g0.

    ``g(t)`` returns the pair (g, g') and ``increasing`` says which way g
    runs.  The bracket walk steps from t0 by ``step`` (at least _MIN_STEP),
    then twice, four times, ... as far toward the zero until g changes
    sign; each step is clamped to |t| <= _T_LIMIT before g is evaluated
    there, and a walk that would pass the limit raises.  A Newton iteration
    safeguarded by bisection then narrows the bracket to a relative width
    of ``tol``, or stops early when a Newton step is below half of it.
    """
    if g0 == 0.0:
        return t0
    direction = 1.0 if (g0 < 0.0) == increasing else -1.0
    prev, step = t0, max(step, _MIN_STEP)
    while True:
        t = _clamp(t0 + direction * step)
        if t == prev:
            raise InvalidShapeError("root outside representable range")
        if (g(t)[0] > 0.0) != (g0 > 0.0):
            break
        prev, step = t, 2.0 * step
    lo, hi = min(prev, t), max(prev, t)
    t = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        v, slope = g(t)
        if v == 0.0:
            return t
        if (v > 0.0) == increasing:
            hi = t
        else:
            lo = t
        if hi - lo <= tol * (1.0 + abs(lo) + abs(hi)):
            break
        if slope != 0.0:
            tn = t - v / slope
            # a Newton step below the tolerance has converged; without this
            # test an iterate that rounds onto an end of the bracket would
            # stall there and leave the rest to bisection
            if lo <= tn <= hi and abs(tn - t) <= 0.5 * tol * (1.0 + 2.0 * abs(t)):
                return tn
            if lo < tn < hi:
                t = tn
                continue
        t = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def positive_roots(f: SignedRadialPolynomial) -> PositiveRoots:
    """Locate the positive roots of f.

    One sign change (Cauchy shapes and degenerate one-sided Pellet shapes)
    yields the unique root.  Otherwise a minimum of phi = f/x^k above
    -GAP_RTOL (on the normalized coefficient scale) means the two roots may
    coincide and "none" is returned, else both roots are found by walking
    outward from a point where phi < 0.  The envelope settles most verdicts
    before the minimum is searched for (see the module docstring).
    """
    lr = _LogRadial(f)
    k = f.neg_index
    below = any(c > 0.0 for c in f.coeffs[:k])
    above = any(c > 0.0 for c in f.coeffs[k + 1:])
    h = lambda t: lr.stats(t)[:2]

    if not (below and above):
        # single sign change: h is strictly monotone, increasing when all
        # the mass lies above k (E[j] - k > 0)
        t0 = _clamp(lr.tau1 if below else lr.tau2)
        t = _zero(h, t0, h(t0)[0], not below, _ROOT_TOL, lr.step)
        return PositiveRoots("one", x1=math.exp(t))

    delta, tc = lr.vertex()
    if lr.phi(delta) >= 10.0 * GAP_RTOL:
        return PositiveRoots("none")
    t0 = _clamp(tc)
    h0, slope0, _ = lr.stats(t0)
    marginal = False
    if lr.phi(h0) >= -10.0 * GAP_RTOL:
        # the minimizer of the convex h is the zero of the nondecreasing h'
        slope = lambda t: lr.stats(t)[1:]
        t0 = _zero(slope, t0, slope0, True, _MIN_TOL, lr.step)
        h0 = h(t0)[0]
        phimin = lr.phi(h0)
        marginal = abs(phimin) < 10.0 * GAP_RTOL
        if phimin >= -GAP_RTOL:
            return PositiveRoots("none", marginal=marginal)
    t1 = _zero(h, t0, h0, False, _ROOT_TOL, t0 - lr.tau1)
    t2 = _zero(h, t0, h0, True, _ROOT_TOL, lr.tau2 - t0)
    return PositiveRoots("two", x1=math.exp(t1), x2=math.exp(t2), marginal=marginal)
