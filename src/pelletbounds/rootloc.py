"""Positive-root isolation for radial polynomials with one negative term.

Every bound in the library reduces to locating the positive roots of

    f(x) = sum_{j != k} c_j x^j  -  nu * x^k,      c_j >= 0,  nu > 0.

By Descartes' rule f has either one positive root (when the negative term
is leading or trailing among the nonzero coefficients: the Cauchy shapes)
or two-or-none (the Pellet shape).  Writing x = e^t turns the sign analysis
into the convex function

    h(t) = log(sum_j c_j e^{j t}) - log(nu) - k t,

with f(x) < 0 exactly where h(t) < 0, and phi(x) := f(x)/x^k = nu*(e^h - 1).
All root finding is done on h in log-x coordinates, with log-sum-exp
evaluation so degrees up to 100 and widely scaled coefficients cannot
overflow.

Every search is one routine for the zero of a monotone g given with its
derivative: one bracket walk from a start t0 by steps of 1, 2, 4, ... until
g changes sign, then one Newton iteration safeguarded by bisection.  The
single root of a Cauchy shape is the zero of h searched from t = 0.  In the
Pellet shape the minimizer of h is the zero of the nondecreasing h' (Newton
on the pair (h', h'')), and the two roots are the zeros of h on either side
of it.  The walk checks the range guard |t| <= 700 before each evaluation,
so a root beyond double range raises InvalidShapeError instead of
overflowing exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Existence tolerance for a gap, relative to the coefficient scale: when the
# minimum of phi is within GAP_RTOL * scale of zero the two roots may
# coincide, so no gap is reported.  Results within 10x of the threshold are
# flagged marginal.
GAP_RTOL = 1e-10

_T_LIMIT = 700.0  # |log x| beyond this exceeds double range
_MAX_ITER = 200
_ROOT_TOL = 1e-14  # relative bracket width at which a root of h is final
_MIN_TOL = 1e-12   # the same for the minimizer, where phi is flat


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


class _LogRadial:
    """h(t) and its derivatives for the normalized radial polynomial."""

    def __init__(self, f: SignedRadialPolynomial):
        scale = max(max(f.coeffs), f.neg_value)
        js, logs = [], []
        for j, c in enumerate(f.coeffs):
            # terms that underflow relative to the dominant one cannot move
            # any representable root; drop them instead of taking log(0)
            if c > 0.0 and c / scale > 0.0:
                js.append(float(j))
                logs.append(math.log(c / scale))
        if not js or f.neg_value / scale == 0.0:
            raise InvalidShapeError("coefficient magnitudes span more than double range")
        self.js = np.array(js)
        self.logs = np.array(logs)
        self.k = float(f.neg_index)
        self.lognu = math.log(f.neg_value / scale)
        self.nu = f.neg_value / scale

    def stats(self, t: float):
        """Return (h, h', h'') at t; h'' is the variance of j under the
        exponential weights, hence h is convex."""
        s = self.logs + self.js * t
        smax = s.max()
        w = np.exp(s - smax)
        tot = w.sum()
        mean = float((w @ self.js) / tot)
        var = float((w @ (self.js - mean) ** 2) / tot)
        h = smax + math.log(tot) - self.lognu - self.k * t
        return h, mean - self.k, var


def _zero(g, t0: float, g0: float, increasing: bool, tol: float) -> float:
    """Zero of the monotone g, searched from t0 where g(t0)[0] == g0.

    ``g(t)`` returns the pair (g, g') and ``increasing`` says which way g
    runs.  The bracket walk steps from t0 by 1, 2, 4, ... toward the zero
    until g changes sign; each step is clamped to |t| <= _T_LIMIT before g
    is evaluated there, and a walk that would pass the limit raises.  A
    Newton iteration safeguarded by bisection then narrows the bracket to a
    relative width of ``tol``.
    """
    if g0 == 0.0:
        return t0
    direction = 1.0 if (g0 < 0.0) == increasing else -1.0
    prev, step = t0, 1.0
    while True:
        t = min(max(t0 + direction * step, -_T_LIMIT), _T_LIMIT)
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
        tn = t - v / slope if slope != 0.0 else t
        t = tn if lo < tn < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def positive_roots(f: SignedRadialPolynomial, gap_rtol: float = GAP_RTOL) -> PositiveRoots:
    """Locate the positive roots of f.

    One sign change (Cauchy shapes and degenerate one-sided Pellet shapes)
    yields the unique root.  Otherwise the convex phi = f/x^k is minimized:
    a minimum above -gap_rtol (on the normalized coefficient scale) means the
    two roots may coincide and "none" is returned, else both roots are
    found by walking outward from the minimizer.
    """
    lr = _LogRadial(f)
    k = f.neg_index
    below = any(c > 0.0 for c in f.coeffs[:k])
    above = any(c > 0.0 for c in f.coeffs[k + 1:])
    h = lambda t: lr.stats(t)[:2]

    if not (below and above):
        # single sign change: h is strictly monotone, increasing when all
        # the mass lies above k (E[j] - k > 0)
        t = _zero(h, 0.0, h(0.0)[0], not below, _ROOT_TOL)
        return PositiveRoots("one", x1=math.exp(t))

    # the minimizer of the convex h is the zero of the nondecreasing h'
    slope = lambda t: lr.stats(t)[1:]
    tmin = _zero(slope, 0.0, slope(0.0)[0], True, _MIN_TOL)
    hmin = h(tmin)[0]
    phimin = lr.nu * math.expm1(hmin)
    marginal = abs(phimin) < 10.0 * gap_rtol
    if phimin >= -gap_rtol:
        return PositiveRoots("none", marginal=marginal)
    t1 = _zero(h, tmin, hmin, False, _ROOT_TOL)
    t2 = _zero(h, tmin, hmin, True, _ROOT_TOL)
    return PositiveRoots("two", x1=math.exp(t1), x2=math.exp(t2), marginal=marginal)
