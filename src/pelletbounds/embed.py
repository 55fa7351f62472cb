"""Represent a lacunary scalar polynomial as a 2x2 matrix polynomial.

A polynomial with two coefficient clusters,

    p(z) = a z^n + b z^{n-1} + c z^{n-2} + alpha z^2 + beta z + gamma,

with a*alpha != 0 and n >= 5, equals the determinant of an explicit 2x2
matrix polynomial of (roughly) half the degree.  Completing the square in
each cluster and factoring gives

    z^{n-2} (a z^2 + b z + c) = [z^{..}(sqrt(a) z + d+)] [z^{..}(sqrt(a) z + d-)]
    alpha z^2 + beta z + gamma = (sqrt(alpha) z + w+)(sqrt(alpha) z + w-)

with d+- = b/(2 sqrt(a)) +- i (c - b^2/4a)^{1/2} and analogous w+-; placing
the first cluster's factors on the diagonal and the second's (negated on
top) on the antidiagonal reproduces p as a determinant.  Zeros of p then
equal the eigenvalues of the matrix polynomial, so the matrix Cauchy/Pellet
machinery applies to a scalar problem — often detecting gaps the scalar
theorems miss.

Square roots use the principal branch throughout; the determinant identity
is branch-invariant but the coefficient norms (hence the bounds) are not,
so the branch is pinned for reproducibility.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError
from .matpoly import MatrixPolynomial, scalar_polynomial


class InvalidDegreeError(Exception):
    """Degree parity does not match the requested embedding."""


class ZeroLeadingError(Exception):
    """The clusters' leading coefficients must satisfy a * alpha != 0."""


@dataclass(frozen=True)
class LacunaryPolynomial:
    """a z^n + b z^{n-1} + c z^{n-2} + alpha z^2 + beta z + gamma, n >= 5."""

    n: int
    a: complex
    b: complex
    c: complex
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        for field in ("a", "b", "c", "alpha", "beta", "gamma"):
            object.__setattr__(self, field, complex(getattr(self, field)))
        if self.n < 5:
            raise InvalidDegreeError("need n >= 5 so the coefficient clusters do not overlap")
        if self.a * self.alpha == 0:
            raise ZeroLeadingError("need a * alpha != 0")
        if not all(map(cmath.isfinite, (self.a, self.b, self.c, self.alpha, self.beta, self.gamma))):
            raise ValueError("coefficients must be finite")

    def __call__(self, z: complex) -> complex:
        return (self.a * z**self.n + self.b * z**(self.n - 1) + self.c * z**(self.n - 2)
                + self.alpha * z**2 + self.beta * z + self.gamma)


def to_scalar(p: LacunaryPolynomial) -> MatrixPolynomial:
    """The same polynomial as a degree-n, m=1 MatrixPolynomial."""
    coeffs = [0j] * (p.n + 1)
    coeffs[0] += p.gamma
    coeffs[1] += p.beta
    coeffs[2] += p.alpha
    coeffs[p.n - 2] += p.c
    coeffs[p.n - 1] += p.b
    coeffs[p.n] += p.a
    return scalar_polynomial(coeffs)


def _factors(a: complex, b: complex, c: complex) -> tuple:
    """(sqrt(a), d+, d-) with a z^2 + b z + c = (sqrt(a) z + d+)(sqrt(a) z + d-)."""
    s = cmath.sqrt(a)
    dd = cmath.sqrt(c - b**2 / (4 * a))
    return s, b / (2 * s) + 1j * dd, b / (2 * s) - 1j * dd


def _cluster_matrices(p: LacunaryPolynomial):
    """The factors of both clusters, and V and W; raises SingularMatrixError
    when a factor overflows the double range, as c - b^2/4a can for finite p."""
    try:
        factors = _factors(p.a, p.b, p.c) + _factors(p.alpha, p.beta, p.gamma)
    except OverflowError:  # as b^2 can
        factors = (cmath.inf,)
    if not all(map(cmath.isfinite, factors)):
        raise SingularMatrixError("the embedding's cluster factors overflow the double range")
    sa, d_plus, d_minus, salpha, w_plus, w_minus = factors
    v = np.array([[0, -salpha], [salpha, 0]], dtype=np.complex128)
    w = np.array([[0, -w_plus], [w_minus, 0]], dtype=np.complex128)
    return sa, d_plus, d_minus, v, w


def embed_even(p: LacunaryPolynomial) -> MatrixPolynomial:
    """Degree-n/2 matrix polynomial A z^{n/2} + B z^{n/2-1} + V z + W whose
    eigenvalues are exactly the zeros of p (n even).

    A and V are always nonsingular (a*alpha != 0); det W = gamma = p(0).
    Raises SingularMatrixError when a cluster factor overflows (inapplicable).
    """
    if p.n % 2 != 0:
        raise InvalidDegreeError(f"embed_even needs an even degree, got {p.n}")
    sa, d_plus, d_minus, v, w = _cluster_matrices(p)
    half = p.n // 2
    coeffs = np.zeros((half + 1, 2, 2), dtype=np.complex128)
    coeffs[half] += np.diag([sa, sa])
    coeffs[half - 1] += np.diag([d_plus, d_minus])
    coeffs[1] += v
    coeffs[0] += w
    return MatrixPolynomial(coeffs)


def embed_odd(p: LacunaryPolynomial) -> MatrixPolynomial:
    """Degree-(n+1)/2 matrix polynomial C z^{(n+1)/2} + D z^{(n-1)/2}
    + E z^{(n-3)/2} + V z + W (n odd).

    The leading coefficient C = diag(sqrt(a), 0) is singular by
    construction: the zeros of p are the n finite eigenvalues, and one
    eigenvalue is infinite.  For n = 5 the E and V terms share degree 1;
    they occupy disjoint entries (diagonal vs antidiagonal) and are summed.
    Raises SingularMatrixError when a cluster factor overflows (inapplicable).
    """
    if p.n % 2 == 0:
        raise InvalidDegreeError(f"embed_odd needs an odd degree, got {p.n}")
    sa, d_plus, d_minus, v, w = _cluster_matrices(p)
    deg = (p.n + 1) // 2
    coeffs = np.zeros((deg + 1, 2, 2), dtype=np.complex128)
    coeffs[deg] += np.diag([sa, 0.0])
    coeffs[deg - 1] += np.diag([d_plus, sa])
    coeffs[deg - 2] += np.diag([0.0, d_minus])
    coeffs[1] += v
    coeffs[0] += w
    return MatrixPolynomial(coeffs)
