"""Matrix polynomials P(z) = A_n z^n + ... + A_1 z + A_0 and their transforms.

Coefficients are stored ascending (A_0 first) in one read-only
(n+1, m, m) complex array, validated once at construction.  The transforms
here are the structural building blocks for the bounds machinery:
monicization, left preconditioning, the reciprocal polynomial, the degree
shift z*P(z), the block companion linearization, and the companion-squaring
repartition that halves the degree while doubling the block size.  Each
works on the whole coefficient stack: the LU-based ones factor their pivot
once and solve for all coefficients together.

A polynomial never changes after construction, so what the bounds derive
from it again and again is computed once and kept on it in a private memo:
its preconditioned forms here (monicize and reciprocal included), and in
``bounds`` its coefficient norms, its pivot norms nu_k and its
companion-squared polynomials.  Failures are not kept: a singular pivot
raises on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import identity, left_solve

# A leading coefficient within this distance of I (infinity norm) counts as
# monic; anything else must be monicized explicitly by the caller.
MONIC_TOL = 1e-13


class NotMonicError(Exception):
    """Operation requires a monic polynomial (leading coefficient I)."""


class OddDegreeError(Exception):
    """Operation requires an even degree."""


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Degree-n matrix polynomial with m-by-m complex coefficients A_0..A_n.

    ``stack`` is a read-only (n+1, m, m) complex128 copy of the
    coefficients, and ``coeffs`` the tuple of its n+1 read-only views.
    Invariants enforced at construction: degree n >= 1, all coefficients of
    the same square shape, all entries finite, and a nonzero leading
    coefficient (the degree is genuine).  The private ``_memo`` holds
    derived data (see the module docstring); it takes no part in ``repr``
    or equality.
    """

    stack: np.ndarray
    coeffs: tuple
    _memo: dict = field(repr=False, compare=False)

    def __init__(self, coeffs):
        if not isinstance(coeffs, np.ndarray):
            coeffs = list(coeffs)
        try:
            stack = np.array(coeffs, dtype=np.complex128, order="C")
        except ValueError as exc:
            raise ValueError("all coefficients must be the same square shape") from exc
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
            raise ValueError(f"expected n+1 square m-by-m coefficients, got shape {stack.shape}")
        if stack.shape[0] < 2:
            raise ValueError("a matrix polynomial needs degree >= 1")
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
        if not stack[-1].any():
            raise ValueError("leading coefficient must be nonzero")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "coeffs", tuple(stack))
        object.__setattr__(self, "_memo", {})

    @property
    def m(self) -> int:
        return self.stack.shape[1]

    @property
    def n(self) -> int:
        return self.stack.shape[0] - 1

    def is_monic(self) -> bool:
        # infinity norm of A_n - I; the stack is validated already
        return bool(np.abs(self.stack[-1] - identity(self.m)).sum(axis=1).max() <= MONIC_TOL)

    def _cached(self, key, build, *args):
        """build(*args), computed on the first call with ``key`` and kept;
        an exception from ``build`` leaves nothing behind."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(*args)
        return value


def scalar_polynomial(coeffs_ascending) -> MatrixPolynomial:
    """Build an m=1 polynomial from scalar coefficients a_0..a_n."""
    return MatrixPolynomial([np.array([[c]], dtype=np.complex128) for c in coeffs_ascending])


def evaluate(p: MatrixPolynomial, z: complex) -> np.ndarray:
    """Horner evaluation of P(z)."""
    acc = np.array(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    return acc


def monicize(p: MatrixPolynomial) -> MatrixPolynomial:
    """A_n^-1 P: same eigenvalues, leading coefficient exactly I."""
    return left_precondition(p, p.n)


def _precondition(p: MatrixPolynomial, index: int) -> MatrixPolynomial:
    stack = left_solve(p.stack[index], p.stack)
    stack[index] = identity(p.m)
    return MatrixPolynomial(stack)


def left_precondition(p: MatrixPolynomial, index: int) -> MatrixPolynomial:
    """A_index^-1 P from one LU of A_index, with coefficient ``index`` set
    to the exact identity; built once per index and kept on P."""
    if not 0 <= index <= p.n:
        raise ValueError(f"index {index} out of range for degree {p.n}")
    return p._cached(("precondition", index), _precondition, p, index)


def reciprocal(p: MatrixPolynomial) -> MatrixPolynomial:
    """The monic reciprocal polynomial z^n A_0^-1 P(1/z).

    Its coefficients are those of A_0^-1 P in reverse order.  Its eigenvalues
    are the reciprocals of the eigenvalues of P; requires a nonsingular A_0.
    """
    return MatrixPolynomial(left_precondition(p, 0).stack[::-1])


def shift_by_z(p: MatrixPolynomial) -> MatrixPolynomial:
    """z P(z): degree n+1 with a zero constant term (adds m zero eigenvalues)."""
    return MatrixPolynomial(np.concatenate([np.zeros((1, p.m, p.m), dtype=np.complex128), p.stack]))


def _require_monic(p: MatrixPolynomial) -> None:
    if not p.is_monic():
        raise NotMonicError("leading coefficient is not the identity; monicize first")


def companion(p: MatrixPolynomial) -> np.ndarray:
    """Block companion matrix of a monic P: identity blocks on the first
    subdiagonal and -A_0..-A_{n-1} down the last block column.  Its nm
    eigenvalues are exactly the eigenvalues of P."""
    _require_monic(p)
    m, n = p.m, p.n
    c = np.zeros((n * m, n * m), dtype=np.complex128)
    c[m:, :(n - 1) * m] = identity((n - 1) * m)
    c[:, (n - 1) * m:] = -p.stack[:n].reshape(n * m, m)
    return c


def square_repartition(p: MatrixPolynomial) -> MatrixPolynomial:
    """Repartition C(P)^2 as a monic matrix polynomial Q of half the degree.

    For monic P of even degree n, the square of the block companion matrix
    is again a block companion matrix when cut into 2m-by-2m blocks.  The
    resulting Q(z) = I z^{n/2} + B_{n/2-1} z^{n/2-1} + ... + B_0 with

        B_0 = [[A_0,    -A_0 A_{n-1}       ],
               [A_1,    -A_1 A_{n-1} + A_0 ]]

        B_j = [[A_2j,   -A_2j   A_{n-1} + A_{2j-1}],
               [A_2j+1, -A_2j+1 A_{n-1} + A_2j   ]]   for j = 1..n/2-1

    has as eigenvalues exactly the squares of the eigenvalues of P.
    """
    _require_monic(p)
    if p.n % 2 != 0:
        raise OddDegreeError("companion squaring needs an even degree; shift odd degrees by z first")
    m, n, h = p.m, p.n, p.n // 2
    a = p.stack
    top = a[0:n:2]  # A_0, A_2, ..., A_{n-2}: also the extra bottom-right terms
    bottom = a[1:n:2]  # A_1, A_3, ..., A_{n-1}
    extra_top = np.concatenate([np.zeros((1, m, m), dtype=np.complex128), a[1:n - 2:2]])
    q = np.zeros((h + 1, 2 * m, 2 * m), dtype=np.complex128)
    q[:h, :m, :m] = top
    q[:h, m:, :m] = bottom
    q[:h, :m, m:] = -top @ a[n - 1] + extra_top
    q[:h, m:, m:] = -bottom @ a[n - 1] + top
    q[h] = identity(2 * m)
    return MatrixPolynomial(q)


def to_json_dict(p: MatrixPolynomial) -> dict:
    """Serialize to {"m", "n", "coeffs"} with entries as [re, im] pairs.

    Round-trips finite doubles bit-exactly (json preserves shortest repr).
    """
    coeffs = [[[[float(v.real), float(v.imag)] for v in row] for row in c] for c in p.coeffs]
    return {"m": p.m, "n": p.n, "coeffs": coeffs}


def from_json_dict(d: dict) -> MatrixPolynomial:
    m, n = int(d["m"]), int(d["n"])
    coeffs = d["coeffs"]
    if len(coeffs) != n + 1:
        raise ValueError(f"expected {n + 1} coefficients, got {len(coeffs)}")
    mats = []
    for c in coeffs:
        mat = np.array([[complex(v[0], v[1]) for v in row] for row in c], dtype=np.complex128)
        if mat.shape != (m, m):
            raise ValueError(f"coefficient shape {mat.shape} does not match m={m}")
        mats.append(mat)
    return MatrixPolynomial(mats)


def to_json(p: MatrixPolynomial) -> str:
    return json.dumps(to_json_dict(p))


def from_json(text: str) -> MatrixPolynomial:
    return from_json_dict(json.loads(text))
