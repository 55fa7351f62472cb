"""Matrix polynomials P(z) = A_n z^n + ... + A_1 z + A_0 and their transforms.

Coefficients are stored ascending (A_0 first) in one read-only
(n+1, m, m) complex array, validated once: by the constructor, or by the
transform that made it (see below).  The transforms
here are the structural building blocks for the bounds machinery:
monicization, left preconditioning, the reciprocal polynomial, the degree
shift z*P(z), the block companion linearization, and the companion-squaring
repartition that halves the degree while doubling the block size.  Each
works on the whole coefficient stack: the LU-based ones factor their pivot
once per polynomial and solve for all coefficients together.

A polynomial never changes after construction, so what the bounds derive
from it again and again is computed here, once, and kept on it in a
private memo; no other module builds or caches such data.  The memo holds
its coefficient norms per norm kind (``_norms``); one LU factorization per
coefficient A_j, under ``linalg``'s pivot rule (``_lu``); the pivot norms
nu_j = 1/||A_j^-1|| per kind (``_nu``) and the preconditioned forms A_j^-1 P,
monicize and reciprocal included (``left_precondition``), each solved from
that factorization; the highest chord at k of the points (j, log ||A_j||)
per index and kind (``_chord``), which the Pellet prefilter of ``bounds``
reads; and the companion-squared Q and Q_R (``_squared``).  The pivot scale
of each LU is the kept infinity norm of its coefficient.  Failures are not
kept: a singular pivot raises on every call.

The public constructor checks what comes from outside.  A transform here
(``left_precondition`` and so ``monicize``, ``reciprocal``, ``shift_by_z``
and ``square_repartition``) checks what it makes itself (a solve's
finiteness, a nonzero leading coefficient, a squared stack's finiteness),
so it freezes its own C-contiguous stack through
``MatrixPolynomial._from_checked``, without a copy or a second test.

A coefficient that is exactly I (a monic P's A_n, the leading coefficient
of Q and Q_R, index k of A_k^-1 P) is told apart once per index by
comparison with ``linalg``'s shared identity and costs nothing: it is
never factored, and I^-1 P is P itself, with the norms and LUs already
kept on it, and nu_j is exactly 1.0 in every norm.  That case is decided
before the memo, which never holds P.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import SingularMatrixError, identity
from .rootloc import _highest_chord


class NotMonicError(Exception):
    """Operation requires a monic polynomial (leading coefficient I)."""


class OddDegreeError(Exception):
    """Operation requires an even degree."""


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Degree-n matrix polynomial with m-by-m complex coefficients A_0..A_n.

    ``stack`` is a read-only, C-contiguous (n+1, m, m) complex128 copy of
    the coefficients, the only form in which they are kept.  Invariants,
    enforced by the constructor (or by the transform that made the stack,
    see the module docstring): degree n >= 1, all coefficients of the same
    square shape, all entries finite, and a nonzero leading coefficient
    (the degree is genuine).  The private ``_memo`` holds
    derived data (see the module docstring); it takes no part in ``repr``
    or equality.
    """

    stack: np.ndarray
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
        self._store(stack)

    @classmethod
    def _from_checked(cls, stack: np.ndarray) -> "MatrixPolynomial":
        """The polynomial of ``stack``, made by a transform of this module
        that has itself checked what the constructor would: no copy and no
        second test.  ``stack`` must be C-contiguous, as the constructor's
        copy is, so that a norm sums it in the same order."""
        p = object.__new__(cls)
        p._store(stack)
        return p

    def _store(self, stack: np.ndarray) -> None:
        """Freeze a checked, C-contiguous ``stack`` and keep it with an
        empty memo: the one place a polynomial's stack is stored."""
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "_memo", {})

    @property
    def m(self) -> int:
        return self.stack.shape[1]

    @property
    def n(self) -> int:
        return self.stack.shape[0] - 1

    def is_monic(self) -> bool:
        """Whether A_n is exactly I; anything else, however close, must be
        monicized."""
        return _is_identity(self, self.n)

    def _cached(self, key, build, *args):
        """build(*args), computed on the first call with ``key`` and kept;
        an exception from ``build`` leaves nothing behind."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(*args)
        return value


def scalar_polynomial(coeffs_ascending) -> MatrixPolynomial:
    """Build an m=1 polynomial from scalar coefficients a_0..a_n."""
    a = np.asarray(coeffs_ascending, dtype=np.complex128)
    return MatrixPolynomial(a.reshape(len(a), 1, 1))


def evaluate(p: MatrixPolynomial, z: complex) -> np.ndarray:
    """Horner evaluation of P(z)."""
    acc = np.array(p.stack[-1])
    for c in p.stack[-2::-1]:
        acc = acc * z + c
    return acc


def _is_identity(p: MatrixPolynomial, j: int) -> bool:
    """Whether A_j is exactly I, tested once per index against the shared
    identity and kept."""
    return p._cached(("identity", j), lambda: bool((p.stack[j] == identity(p.m)).all()))


def _lu(p: MatrixPolynomial, j: int) -> tuple:
    """The LU factorization of A_j under ``linalg``'s pivot rule, taken once
    per index, with P's kept infinity norm of A_j as the pivot scale; raises
    SingularMatrixError (every time) when A_j is singular."""
    return p._cached(("factor", j), linalg._factor, p.stack[j], _norms(p, linalg.NormKind.INF)[j])


def _norms(p: MatrixPolynomial, kind: linalg.NormKind) -> list:
    """The coefficient norms of P as a list of floats, taken once per kind;
    a norm beyond the double range is inf, without numpy's overflow
    warning."""

    def reduce():
        with np.errstate(over="ignore"):
            return linalg.norm(p.stack, kind).tolist()

    return p._cached(("norms", kind), reduce)


def _chord(p: MatrixPolynomial, k: int, kind: linalg.NormKind) -> float:
    """The highest chord at k of the points (j, log ||A_j||) over the
    nonzero A_j with j != k (``rootloc._highest_chord``), taken once per
    index and kind; -inf when no such pair straddles k."""

    def build():
        norms = _norms(p, kind)
        js = [j for j, c in enumerate(norms) if j != k and c > 0.0]
        return _highest_chord([math.log(norms[j]) for j in js], [float(j - k) for j in js])[0]

    return p._cached(("chord", k, kind), build)


def _nu(p: MatrixPolynomial, j: int, kind: linalg.NormKind) -> float:
    """nu_j = 1/||A_j^-1||, taken once per index and kind: exactly 1.0 when
    A_j is exactly I (every norm of I is 1), else from P's LU of A_j;
    raises SingularMatrixError (every time) when A_j is singular."""
    return p._cached(("nu", j, kind),
                     lambda: 1.0 if _is_identity(p, j) else linalg._inv_norm_inv(_lu(p, j), kind))


def monicize(p: MatrixPolynomial) -> MatrixPolynomial:
    """A_n^-1 P: same eigenvalues, leading coefficient exactly I."""
    return left_precondition(p, p.n)


def _precondition(p: MatrixPolynomial, index: int) -> MatrixPolynomial:
    # _solve returns a transposed view and checks that it is finite
    stack = np.ascontiguousarray(linalg._solve(_lu(p, index), p.stack))
    stack[index] = identity(p.m)
    if not stack[-1].any():
        raise SingularMatrixError("the preconditioned leading coefficient underflows to zero")
    return MatrixPolynomial._from_checked(stack)


def left_precondition(p: MatrixPolynomial, index: int) -> MatrixPolynomial:
    """A_index^-1 P from P's LU of A_index, with coefficient ``index`` set
    to the exact identity; built once per index and kept on P.  When
    A_index is exactly I, this is P itself: no LU, no solve, no copy.

    Raises SingularMatrixError when A_index fails the pivot rule of
    ``linalg``, when the solve overflows, or when A_index^-1 A_n underflows
    to zero: the pivot then cannot carry the polynomial.
    """
    if not 0 <= index <= p.n:
        raise ValueError(f"index {index} out of range for degree {p.n}")
    if _is_identity(p, index):
        # decided before the memo, which must never hold P itself
        return p
    return p._cached(("precondition", index), _precondition, p, index)


def reciprocal(p: MatrixPolynomial) -> MatrixPolynomial:
    """The monic reciprocal polynomial z^n A_0^-1 P(1/z).

    Its coefficients are those of A_0^-1 P in reverse order.  Its eigenvalues
    are the reciprocals of the eigenvalues of P; requires an A_0 that
    ``left_precondition`` accepts (SingularMatrixError otherwise).
    """
    reversed_stack = np.ascontiguousarray(left_precondition(p, 0).stack[::-1])
    return MatrixPolynomial._from_checked(reversed_stack)


def shift_by_z(p: MatrixPolynomial) -> MatrixPolynomial:
    """z P(z): degree n+1 with a zero constant term (adds m zero eigenvalues)."""
    return MatrixPolynomial._from_checked(
        np.concatenate([np.zeros((1, p.m, p.m), dtype=np.complex128), p.stack]))


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
    np.fill_diagonal(c[m:], 1.0)  # no (n-1)m identity: the shared ones are pivot-sized
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

    has as eigenvalues exactly the squares of the eigenvalues of P.  Raises
    SingularMatrixError when an entry of a B_j overflows the double range
    (A_j A_{n-1} is about the square of P's coefficients): like a pivot
    whose inverse overflows, that makes the squared route inapplicable.
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
    with np.errstate(over="ignore", invalid="ignore"):
        q[:h, :m, m:] = -top @ a[n - 1] + extra_top
        q[:h, m:, m:] = -bottom @ a[n - 1] + top
    if not np.isfinite(q[:h]).all():
        raise SingularMatrixError("the companion-squared coefficients overflow the double range")
    q[h] = identity(2 * m)
    return MatrixPolynomial._from_checked(q)


def _squared(p: MatrixPolynomial, use_reciprocal: bool) -> MatrixPolynomial:
    """The companion-squared polynomial Q of P, or Q_R of its reciprocal,
    built once per route and kept on P: P is monicized (P itself when
    monic), replaced by its reciprocal for Q_R, shifted by z when its degree
    is odd, and squared.  Raises SingularMatrixError when a required pivot
    is singular or an entry of Q overflows the double range."""

    def build():
        base = monicize(p)
        if use_reciprocal:
            base = reciprocal(base)
        return square_repartition(shift_by_z(base) if base.n % 2 else base)

    return p._cached(("squared", use_reciprocal), build)


def to_json(p: MatrixPolynomial) -> str:
    """Serialize to {"m", "n", "coeffs"}, where coeffs[j] is A_j as m rows
    of [re, im] pairs.

    Round-trips finite doubles bit-exactly (json preserves shortest repr).
    """
    coeffs = p.stack.view(np.float64).reshape(p.n + 1, p.m, p.m, 2).tolist()
    return json.dumps({"m": p.m, "n": p.n, "coeffs": coeffs})


def _json_int(d: dict, key: str) -> int:
    """d[key], which must be a JSON integer (not a bool, float or string)."""
    v = d[key]
    if type(v) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {v!r}")
    return v


def from_json(text: str) -> MatrixPolynomial:
    """Parse the ``to_json`` schema: m and n must be JSON integers, coeffs
    must have exactly the shape (n+1, m, m, 2), and every entry must be a
    JSON number."""
    d = json.loads(text)
    m, n = _json_int(d, "m"), _json_int(d, "n")
    entries = np.array(d["coeffs"], dtype=object)
    if entries.shape != (n + 1, m, m, 2):
        raise ValueError(f"coeffs must have the shape (n+1, m, m, 2) = {(n + 1, m, m, 2)}, "
                         f"got {entries.shape}")
    if not all(type(v) in (int, float) for v in entries.flat):
        raise ValueError("matrix entries must be JSON numbers")
    return MatrixPolynomial(entries.astype(np.float64).view(np.complex128).reshape(n + 1, m, m))
