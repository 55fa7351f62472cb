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
from it is computed here on first use and kept on it, each kind of data in
its own slots: per index j, whether A_j is exactly I (``_is_identity``), the
LU of A_j under ``linalg``'s pivot rule, scaled by the kept infinity norm of
A_j (``_lu``), and A_j^-1 P solved from it (``left_precondition``); one slot
each for Q and Q_R (``_squared``); and per norm kind one record (``_kept``)
of the coefficient norms and, by index j, nu_j = 1/||A_j^-1|| (``_nu``) and
the highest chord at j of the points (j, log ||A_j||) (``_chord``).  No
other module builds or writes such data: ``bounds`` only reads it.
Failures are not kept: a singular pivot raises on every call.  An A_j that
is exactly I is never factored: nu_j is exactly 1.0 in every norm, and
I^-1 P is P itself, decided before the slot is read, so no slot of P ever
holds P.

The public constructor checks what comes from outside; a transform here
checks what it makes itself and freezes its own C-contiguous stack through
``MatrixPolynomial._from_checked``, without a copy or a second test.  A
transform that sets a coefficient to exactly I (A_j^-1 P at j, the
reciprocal and Q at their leading index) marks it as such there, so that
its identity test, and with it nu = 1.0, costs nothing.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

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
    (the degree is genuine).  The block size ``m`` and the degree ``n`` are
    plain read-only attributes, set with the stack; they and the private
    slots of derived data (see the module docstring) are not dataclass
    fields and take no part in ``repr`` or equality.
    """

    stack: np.ndarray

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
    def _from_checked(cls, stack: np.ndarray, identity_at: int | None = None) -> "MatrixPolynomial":
        """The polynomial of ``stack``, made by a transform of this module
        that has itself checked what the constructor would: no copy and no
        second test.  ``stack`` must be C-contiguous, as the constructor's
        copy is, so that a norm sums it in the same order.  ``identity_at``
        is the index of a coefficient that the transform set to exactly I,
        kept as such without a test."""
        p = object.__new__(cls)
        p._store(stack)
        if identity_at is not None:
            p._identities[identity_at] = True
        return p

    def _store(self, stack: np.ndarray) -> None:
        """Freeze a checked, C-contiguous ``stack`` and keep it with empty
        slots: the one place a polynomial's stack is stored."""
        stack.setflags(write=False)
        size, m = stack.shape[:2]
        # past the frozen __setattr__; None marks a slot not yet filled
        self.__dict__.update(stack=stack, m=m, n=size - 1, _identities=[None] * size,
                             _lus=[None] * size, _preconditioned=[None] * size,
                             _squares=[None, None], _kinds={})

    def is_monic(self) -> bool:
        """Whether A_n is exactly I; anything else, however close, must be
        monicized."""
        return _is_identity(self, self.n)


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


@dataclass(slots=True)
class _Kept:
    """What a polynomial keeps for one norm kind: its coefficient norms and,
    by index j (None until first asked for), nu_j and the chord at j of
    ``_chord``.  Only this module fills it."""

    norms: list
    nu: list
    chord: list


def _is_identity(p: MatrixPolynomial, j: int) -> bool:
    """Whether A_j is exactly I, tested once per index against the shared
    identity and kept."""
    flag = p._identities[j]
    if flag is None:
        flag = p._identities[j] = bool((p.stack[j] == identity(p.m)).all())
    return flag


def _kept(p: MatrixPolynomial, kind: linalg.NormKind) -> _Kept:
    """P's record for ``kind``, made with its coefficient norms on the first
    call; a norm beyond the double range is inf, without numpy's overflow
    warning."""
    kept = p._kinds.get(kind)
    if kept is None:
        with np.errstate(over="ignore"):
            norms = linalg.norm(p.stack, kind).tolist()
        size = len(norms)
        kept = p._kinds[kind] = _Kept(norms, [None] * size, [None] * size)
    return kept


def _lu(p: MatrixPolynomial, j: int) -> tuple:
    """The LU factorization of A_j under ``linalg``'s pivot rule, taken once
    per index, with P's kept infinity norm of A_j as the pivot scale; raises
    SingularMatrixError (every time) when A_j is singular."""
    lu = p._lus[j]
    if lu is None:
        lu = p._lus[j] = linalg._factor(p.stack[j], _kept(p, linalg.NormKind.INF).norms[j])
    return lu


def _chord(kept: _Kept, k: int) -> float:
    """C from the norms of ``kept``, kept there by index: the highest chord
    at k of the points (j, log ||A_j||) over the nonzero A_j with j != k
    (``rootloc._highest_chord``), -inf when no such pair straddles k."""
    chord = kept.chord[k]
    if chord is None:
        terms = [(math.log(c), float(j - k)) for j, c in enumerate(kept.norms) if j != k and c > 0.0]
        chord = kept.chord[k] = _highest_chord(terms)[0]
    return chord


def _nu(p: MatrixPolynomial, j: int, kind: linalg.NormKind) -> float:
    """nu_j = 1/||A_j^-1||, taken once per index and kind: exactly 1.0 when
    A_j is exactly I (every norm of I is 1), else from P's LU of A_j;
    raises SingularMatrixError (every time) when A_j is singular."""
    kept = _kept(p, kind)
    nu = kept.nu[j]
    if nu is None:
        nu = kept.nu[j] = 1.0 if _is_identity(p, j) else linalg._inv_norm_inv(_lu(p, j), kind)
    return nu


def monicize(p: MatrixPolynomial) -> MatrixPolynomial:
    """A_n^-1 P: same eigenvalues, leading coefficient exactly I."""
    return left_precondition(p, p.n)


def left_precondition(p: MatrixPolynomial, index: int) -> MatrixPolynomial:
    """A_index^-1 P from P's LU of A_index, with coefficient ``index`` set
    to the exact identity; built once per index and kept on P.  When
    A_index is exactly I, this is P itself: no LU, no solve, no copy.

    Raises SingularMatrixError when A_index fails the pivot rule of
    ``linalg``, when the solve overflows, or when A_index^-1 A_n underflows
    to zero: the pivot then cannot carry the polynomial.  A non-integer
    ``index`` raises TypeError before any slot is read.
    """
    index = operator.index(index)
    if not 0 <= index <= p.n:
        raise ValueError(f"index {index} out of range for degree {p.n}")
    if _is_identity(p, index):
        # decided before the slot, which must never hold P itself
        return p
    q = p._preconditioned[index]
    if q is None:
        # _solve returns a transposed view and checks that it is finite
        stack = np.ascontiguousarray(linalg._solve(_lu(p, index), p.stack))
        stack[index] = identity(p.m)
        if not stack[-1].any():
            raise SingularMatrixError("the preconditioned leading coefficient underflows to zero")
        q = p._preconditioned[index] = MatrixPolynomial._from_checked(stack, index)
    return q


def reciprocal(p: MatrixPolynomial) -> MatrixPolynomial:
    """The monic reciprocal polynomial z^n A_0^-1 P(1/z).

    Its coefficients are those of A_0^-1 P in reverse order.  Its eigenvalues
    are the reciprocals of the eigenvalues of P; requires an A_0 that
    ``left_precondition`` accepts (SingularMatrixError otherwise).
    """
    reversed_stack = np.ascontiguousarray(left_precondition(p, 0).stack[::-1])
    return MatrixPolynomial._from_checked(reversed_stack, p.n)


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
    q = np.zeros((h + 1, 2 * m, 2 * m), dtype=np.complex128)
    q[:h, :m, :m] = a[0:n:2]  # A_0, A_2, ..., A_{n-2}
    q[:h, m:, :m] = a[1:n:2]  # A_1, A_3, ..., A_{n-1}
    # the added terms first, so that B_0's top right is -A_0 A_{n-1} plus
    # its +0.0 block, which turns a -0.0 of the product into +0.0
    q[1:h, :m, m:] = a[1:n - 2:2]
    q[:h, m:, m:] = a[0:n:2]
    with np.errstate(over="ignore", invalid="ignore"):
        products = -a[:n] @ a[n - 1]  # every -A_j A_{n-1} in one batched product
        q[:h, :m, m:] += products[0::2]
        q[:h, m:, m:] += products[1::2]
    if not np.isfinite(q[:h]).all():
        raise SingularMatrixError("the companion-squared coefficients overflow the double range")
    q[h] = identity(2 * m)
    return MatrixPolynomial._from_checked(q, h)


def _squared(p: MatrixPolynomial, use_reciprocal: bool) -> MatrixPolynomial:
    """The companion-squared polynomial Q of P, or Q_R of its reciprocal,
    built once per route and kept on P: P is monicized (P itself when
    monic), replaced by its reciprocal for Q_R, shifted by z when its degree
    is odd, and squared.  Raises SingularMatrixError when a required pivot
    is singular or an entry of Q overflows the double range."""
    q = p._squares[use_reciprocal]
    if q is None:
        base = reciprocal(monicize(p)) if use_reciprocal else monicize(p)
        q = p._squares[use_reciprocal] = square_repartition(shift_by_z(base) if base.n % 2 else base)
    return q


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
