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
is done on h in log-x coordinates, over the log form of f: a_j = log c_j
for each of the N positive terms and log nu, taken as they are, with no
scale and no quotient.  h is a log-sum-exp over them, shifted by its
largest term, so degrees up to 100 and coefficients anywhere in the
double range cannot overflow.  N is small, so h is evaluated with plain
Python floats: numpy's per-call cost would exceed the arithmetic.

One builder (``_LogForm``) turns a list of logs by index j into the log
form: the terms (a_j, j - k), log nu and the envelope ends tau1 and tau2
below.  A log of -inf stands for a zero coefficient, and a log of +inf
raises InvalidShapeError, with the message of a coefficient that is not
finite.  ``bounds`` hands it the logs of the norms that ``matpoly`` keeps,
and passes the log form to ``positive_roots`` as it is.
SignedRadialPolynomial is the validated public front over the same
builder: its constructor checks its arguments and takes their logs, and
the polynomial is itself a log form.  Root isolation (``_root``,
``_minimizer`` and the verdict in ``positive_roots``) reads only the log
form.

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

reached at the crossing t_c of the maximizing pair.  That pair is the
edge of the upper convex hull of the points (j, a_j), j != k, that
straddles k, so the maximum is read off that hull by one function,
``_chord``: it builds the hull (``_upper_hull``, Andrew's monotone chain)
and reads the edge (``_hull_chord``), the edge's height C at k and the
crossing t_c of its two lines.  A log form's vertex is always ``_chord``
of its own logs, and ``bounds`` reads C for its prefilter through the
same function.  The verdict and its margin are read on h alone, so no
scale takes part in them: "two" when h_min < -GAP_RTOL, else "none", and
marginal when |h_min| < 10*GAP_RTOL.  As h_min >= delta,
delta >= 10*GAP_RTOL settles "none" (not marginal) without evaluating h.
In fact
h_min >= delta + H(p / (p + q)), with H the binary entropy in nats and
p, q the distances of the edge's ends from k: h is at least the
log-sum-exp of the edge's two terms, whose minimum over t is that.
``bounds`` tries the chord test on a polynomial's kept norms before it
builds a log form at all, at the same margin: for a plain query it is
the same float C - log(nu), and for a preconditioned one a bound on it.
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
# of the threshold (_MARGIN) are flagged marginal, and a chord test at or
# above it settles "none".
GAP_RTOL = 1e-10
_MARGIN = 10.0 * GAP_RTOL

_T_LIMIT = math.log(sys.float_info.max)  # e^t is finite for |t| up to this
_MAX_ITER = 200
_ROOT_TOL = 1e-14  # relative Newton step at which a root of h is final
_MIN_TOL = 1e-12   # the same, or bracket width, for the minimizer of h

_d = operator.itemgetter(1)  # d_j of a term (a_j, d_j)


class InvalidShapeError(Exception):
    """The coefficient data violates the one-negative-term shape."""


class _LogForm:
    """The log form of f (see the module docstring), which is all that root
    isolation reads: the logs it was built from and k (``_logs``, ``_k``),
    the positive terms in ascending j, each once, as the pairs (a_j, d_j)
    of a_j = log c_j and d_j = j - k (``_terms``), log nu (``_lognu``) and
    the envelope ends tau1 and tau2.  ``bounds`` builds it from the logs
    that ``matpoly`` keeps; a SignedRadialPolynomial is one, built from the
    logs of its validated coefficients."""

    def __init__(self, logs, k: int, lognu: float):
        """The one builder: the log form of the logs of c_j by index j (-inf
        for a zero c_j; the k-th is not read), k and log nu.  A log of +inf,
        a c_j beyond the double range, raises InvalidShapeError."""
        terms = []
        # T <= 0 on [tau1, tau2]: right of each falling line's zero, left of
        # each rising line's zero
        tau1, tau2 = -math.inf, math.inf
        for j, a in enumerate(logs):
            if j == k or a == -math.inf:
                continue
            if a == math.inf:
                raise InvalidShapeError("coefficients must be finite and nonnegative")
            d = float(j - k)
            terms.append((a, d))
            z = (lognu - a) / d
            if d > 0.0:
                if z < tau2:
                    tau2 = z
            elif z > tau1:
                tau1 = z
        # past a frozen subclass's __setattr__
        self.__dict__.update(_logs=logs, _k=k, _terms=terms, _lognu=lognu, _tau1=tau1, _tau2=tau2)

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
        """(delta, t_c): the minimum of T and where it is reached, from the
        chord at k of the log form's own logs."""
        chord, tc = _chord(self._logs, self._k)
        return chord - self._lognu, tc


@dataclass(frozen=True)
class SignedRadialPolynomial(_LogForm):
    """f(x) = sum_{j != neg_index} coeffs[j] x^j - neg_value * x^neg_index.

    coeffs must be nonnegative with coeffs[neg_index] == 0, neg_value must be
    positive, and at least one other coefficient must be positive.  Once
    validated, the constructor hands the logs of the coefficients and of
    neg_value to the one builder (``_LogForm``): f is its own log form, kept
    in private attributes, which are not dataclass fields.
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
        if not max(coeffs) > 0.0:
            raise InvalidShapeError("need at least one positive coefficient besides the negative term")
        # past the frozen __setattr__
        self.__dict__.update(coeffs=coeffs, neg_index=neg_index, neg_value=neg_value)
        super().__init__([-math.inf if c == 0.0 else math.log(c) for c in coeffs], neg_index,
                         math.log(neg_value))

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


def _upper_hull(points):
    """The upper convex hull of ``points``, pairs (a, x) in ascending x, by
    Andrew's monotone chain: its vertices in ascending x, each point on or
    below the segment of its neighbours dropped."""
    hull = []
    for a, x in points:
        while len(hull) > 1:
            (a0, x0), (a1, x1) = hull[-2], hull[-1]
            if (a1 - a0) * (x - x0) > (a - a0) * (x1 - x0):
                break  # (a1, x1) lies above the segment from (a0, x0) to (a, x)
            hull.pop()
        hull.append((a, x))
    return hull


def _hull_chord(hull, x):
    """(C, t_c) of the edge of ``hull`` (``_upper_hull``) that straddles x:
    with d = x_j - x at either end, C = (d_j a_i - d_i a_j) / (d_j - d_i)
    is the edge's height at x, the minimum over t of the larger of its two
    lines a + d t, and t_c = (a_i - a_j) / (d_j - d_i) is where they cross;
    (-inf, 0.0) when no edge has one end below x and one above."""
    for (ai, xi), (aj, xj) in zip(hull, hull[1:]):
        if xi < x < xj:
            di, dj = xi - x, xj - x
            return (dj * ai - di * aj) / (dj - di), (ai - aj) / (dj - di)
    return -math.inf, 0.0


def _chord(logs, k: int) -> tuple:
    """(C, t_c) at k of the points (j, a_j) of ``logs`` with j != k and
    a_j > -inf: ``_hull_chord`` at k of their upper hull (``_upper_hull``),
    the highest chord over them at k and where its two lines cross;
    (-inf, 0.0) when no point lies on one side of k.  The one chord
    function: the vertex of every log form and the prefilter of ``bounds``
    read it."""
    return _hull_chord(_upper_hull([(a, j) for j, a in enumerate(logs)
                                    if j != k and a > -math.inf]), k)


def _root(f: _LogForm, tau: float) -> float:
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


def _minimizer(f: _LogForm, tc: float) -> float:
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


def positive_roots(f: _LogForm) -> PositiveRoots:
    """Locate the positive roots of f, a SignedRadialPolynomial or the log
    form that ``bounds`` builds from kept logs (``_LogForm``).

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
    if delta >= _MARGIN:
        return PositiveRoots("none")
    marginal = False
    if f._newton(tc)[0] >= -_MARGIN:
        hmin = f._newton(_minimizer(f, tc))[0]
        marginal = abs(hmin) < _MARGIN
        if hmin >= -GAP_RTOL:
            return PositiveRoots("none", marginal=marginal)
    x1, x2 = math.exp(_root(f, f._tau1)), math.exp(_root(f, f._tau2))
    return PositiveRoots("two", x1=x1, x2=x2, marginal=marginal)
