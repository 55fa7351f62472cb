"""Print a digest of every public result over the criterion-1, ex4 and seeded-family inputs.

Usage::

    python tests/result_digest.py --src <checkout>/src [--count N]
    python tests/result_digest.py --src <checkout>/src --against <other>/src [--count N]

imports ``pelletbounds`` from ``--src`` and, over the first N instances of
``conftest.criterion_1_instance`` (default 2000), prints the number of
results and the SHA-256 of them all, in order.  Two checkouts whose lines
are equal give the same results, bit for bit, on every query below.  A
result is the ``repr`` of a return value, or the type and message of the
exception raised instead, for, in all three norm kinds:

* ``cauchy_bounds``, plain and preconditioned;
* ``squared_bounds`` through Q and Q_R, each plain and B_0- and
  B_1-preconditioned;
* ``pellet_gap`` and ``squared_gap`` at every k in 1..n-1, plain and
  preconditioned;

and, once per instance, the stack and tag of each ``squared_polynomial``,
the stack of each ``left_precondition(p, j)`` for j in 0..n, and the
oracle's moduli.  The queries on an instance share one polynomial, as
the sweep's do, so what one query keeps on it serves the next.  After the
instances come the lacunary ones: for each n in 6, 7 and 20, the first 200
ex4 draws ``gen_ex4(trial_rng(CRITERION_1_SEED, t), n)``, each with the
stack of ``to_scalar`` and of ``embed_even`` (even n) or ``embed_odd``
(odd n), or the error raised instead, and ex4's own queries on each of
the two, in all three norm kinds: ``cauchy_bounds``, and ``pellet_gap``
at k = 2 and n - 2 (k // 2 on the embedding).  Last come the first
min(N, 300) polynomials of two seeded families, each with the queries of
an instance: ``conftest.wide_polynomials(11, ...)``, whose norms span
10^+-60, and ``conftest.near_collinear_polynomials(5, ...)``, whose
log-norms lie on or within ulps of a line, where two chords of the
Newton polygon can tie.

With ``--against``, the results of both source trees are computed, each in
its own process (``--lines`` prints them one by one, labelled), and
compared in order: it prints how many results differ and, when some do,
how many of those differ only in float digits (the same result with every
float replaced, a stack or the moduli of the same shape, their bytes read
as complex128 or float64) and how many in any other way, the largest
relative move of a float with its label, and the first few results that
differ in any other way (else the first few float moves), each with its
index, its instance and query, and both values from a little before their
first differing character.  This file is a script, not a test module;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

KINDS = ("one", "inf", "two")
LACUNARY_DRAWS = 200
FAMILY_SIZE = 300
WIDE_SEED = 11
NEAR_COLLINEAR_SEED = 5

# a float's repr has a point or an exponent (or is inf or nan); an integer
# (an index, a count, a shape) has neither and is not a float
_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|\binf\b|\bnan\b)")
# the bytes of a stack line, after its shape, or of the oracle's moduli
_BYTES = re.compile(r"(\([\d, ]*\) )([0-9a-f]*)|'([0-9a-f]*)'")


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- an error is a result too
        return f"{type(exc).__name__}: {exc}"


def _stack(fn, *args):
    """A polynomial's shape and coefficient bytes, or the error instead."""
    try:
        s = fn(*args).stack
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}"
    return f"{s.shape} {s.tobytes().hex()}"


def _polynomial_results(name, p, n):
    """(label, result) for every query on the polynomial P of degree n that
    the module docstring lists per instance, each label led by ``name``."""
    import pelletbounds as pb
    from pelletbounds.bounds import squared_polynomial

    for kind in KINDS:
        for pre in (False, True):
            yield (f"{name} cauchy_bounds {kind} precondition={pre}",
                   _outcome(pb.cauchy_bounds, p, kind, pre))
        for use_reciprocal in (False, True):
            for index in (None, 0, 1):
                yield (f"{name} squared_bounds {kind} use_reciprocal={use_reciprocal} "
                       f"precondition_index={index}",
                       _outcome(pb.squared_bounds, p, kind, use_reciprocal, index))
        for k in range(1, n):
            for pre in (False, True):
                yield (f"{name} pellet_gap k={k} {kind} precondition={pre}",
                       _outcome(pb.pellet_gap, p, k, kind, pre))
                yield (f"{name} squared_gap k={k} {kind} precondition={pre}",
                       _outcome(pb.squared_gap, p, k, kind, pre))
    for use_reciprocal in (False, True):
        label = f"{name} squared_polynomial use_reciprocal={use_reciprocal}"
        yield label + " stack", _stack(lambda: squared_polynomial(p, use_reciprocal)[0])
        yield label + " tag", _outcome(lambda: squared_polynomial(p, use_reciprocal)[1])
    for j in range(n + 1):
        yield f"{name} left_precondition j={j} stack", _stack(pb.left_precondition, p, j)
    yield f"{name} eigen_oracle moduli", _outcome(
        lambda: pb.eigen_oracle(p).moduli.tobytes().hex())


def _lacunary_results(name, lac, n, make):
    """(label, result) for ex4's own queries on the polynomial ``make(lac)``
    of a lacunary draw of degree n, in every norm kind: its Cauchy bounds
    and its Pellet query for ex4's k = 2 and n - 2 (k // 2 on an
    embedding, whose blocks are 2x2); each the error ``make`` raised, when
    it raised one."""
    import pelletbounds as pb

    try:
        q = make(lac)
    except Exception as exc:  # noqa: BLE001
        q = exc

    def query(fn, *args):
        if isinstance(q, Exception):
            return f"{type(q).__name__}: {q}"
        return _outcome(fn, q, *args)

    for kind in KINDS:
        yield f"{name} {make.__name__} cauchy_bounds {kind}", query(pb.cauchy_bounds, kind)
        for k in (2, n - 2):
            index = k if make is pb.to_scalar else k // 2
            yield (f"{name} {make.__name__} pellet_gap k={k} {kind}",
                   query(pb.pellet_gap, index, kind))


def results(count):
    """(label, result) for every result over the first ``count``
    criterion-1 instances, then over the lacunary draws and the first
    min(``count``, FAMILY_SIZE) polynomials of each seeded family, in
    order."""
    import pelletbounds as pb

    from conftest import (CRITERION_1_SEED, criterion_1_instance, near_collinear_polynomials,
                          wide_polynomials)

    for i in range(count):
        p, n = criterion_1_instance(i)
        yield from _polynomial_results(f"instance {i}", p, n)
    for n in (6, 7, 20):
        embed = pb.embed_odd if n % 2 else pb.embed_even
        for t in range(LACUNARY_DRAWS):
            lac = pb.gen_ex4(pb.trial_rng(CRITERION_1_SEED, t), n)
            yield f"ex4 n={n} draw {t} to_scalar stack", _stack(pb.to_scalar, lac)
            yield f"ex4 n={n} draw {t} {embed.__name__} stack", _stack(embed, lac)
            for make in (pb.to_scalar, embed):
                yield from _lacunary_results(f"ex4 n={n} draw {t}", lac, n, make)
    size = min(count, FAMILY_SIZE)
    families = (("wide", wide_polynomials(WIDE_SEED, size, 3, 8)),
                ("near-collinear", near_collinear_polynomials(NEAR_COLLINEAR_SEED, size, 3, 10)))
    for family, polynomials in families:
        for i, p in enumerate(polynomials):
            yield from _polynomial_results(f"{family} {i}", p, p.n)


def _excerpt(line, at, before=40, width=160):
    """``line`` from ``before`` characters ahead of index ``at``, at most
    ``width`` characters, with an ellipsis where it is cut."""
    start = max(0, at - before)
    text = line[start:start + width]
    return ("..." if start else "") + text + ("..." if start + width < len(line) else "")


def _skeleton(label, result):
    """(the result with every float replaced, its floats): a stack line's
    shape and its bytes read as complex128, the moduli's as float64."""
    match = _BYTES.fullmatch(result) if label.endswith((" stack", " moduli")) else None
    if match:
        import numpy as np

        shape, data = (match[1], match[2]) if match[1] else ("", match[3])
        dtype = np.complex128 if shape else np.float64
        return shape + f"<{len(data)}>", np.frombuffer(bytes.fromhex(data), dtype).tolist()
    return _FLOAT.sub("#", result), [float(v) for v in _FLOAT.findall(result)]


def _move(a, b) -> float:
    """The relative move |a - b| / max(|a|, |b|) of a float (or complex),
    0.0 for equal values, inf where either is not finite."""
    if a == b or (a != a and b != b):
        return 0.0
    move = abs(a - b) / max(abs(a), abs(b))
    return move if move == move else math.inf


def _float_move(ours, theirs):
    """The largest relative move of a float between two results whose
    label is ``ours[0]``, or None when they differ in any other way."""
    (shape, x), (other, y) = _skeleton(*ours), _skeleton(*theirs)
    if shape != other or len(x) != len(y):
        return None
    return max(map(_move, x, y), default=0.0)


def _report(pairs, shown=5):
    """The lines that ``compare`` prints for ``pairs``, each a pair of JSON
    ``[label, result]`` lines (None where one side has no more)."""
    total, floats, other, largest = 0, [], [], (0.0, None)
    for index, pair in enumerate(pairs):
        total += 1
        if pair[0] == pair[1]:
            continue
        ours, theirs = (json.loads(side) if side else None for side in pair)
        move = _float_move(ours, theirs) if ours and theirs else None
        kind = other if move is None else floats
        kind.append((index, ours, theirs))
        if move is not None and (largest[1] is None or move > largest[0]):
            largest = (move, ours[0])
    lines = [f"{total} results, {len(floats) + len(other)} differ"]
    if floats or other:
        lines.append(f"{len(floats)} differ only in float digits, {len(other)} in any other way")
    if floats:
        lines.append(f"largest relative float move {largest[0]:.3g}: {largest[1]}")
    for index, ours, theirs in (other or floats)[:shown]:
        label = (ours or theirs)[0]
        ours, theirs = (side[1] if side else "(no result)" for side in (ours, theirs))
        at = next((d for d, (a, b) in enumerate(zip(ours, theirs)) if a != b),
                  min(len(ours), len(theirs)))
        lines += [f"#{index} {label}", f"  src:     {_excerpt(ours, at)}",
                  f"  against: {_excerpt(theirs, at)}"]
    return lines


def compare(src, against, count, shown=5):
    """Print how many results of the two source trees differ, how (see the
    module docstring), and the first ``shown`` of them."""
    children = [subprocess.Popen([sys.executable, __file__, "--src", tree, "--count", str(count),
                                  "--lines"], stdout=subprocess.PIPE, text=True)
                for tree in (src, against)]
    with children[0].stdout, children[1].stdout:
        lines = _report(itertools.zip_longest(*(c.stdout for c in children)), shown)
    if any(child.wait() for child in children):
        sys.exit("a result process failed")
    print("\n".join(lines))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the checkout to run")
    parser.add_argument("--count", type=int, default=2000, help="instances (default 2000)")
    parser.add_argument("--against", help="the src directory of a checkout to compare with")
    parser.add_argument("--lines", action="store_true",
                        help="print every result as a JSON [label, result] line")
    args = parser.parse_args(argv)
    if args.against:
        compare(args.src, args.against, args.count)
        return
    sys.path.insert(0, str(Path(args.src).resolve()))
    digest, total = hashlib.sha256(), 0
    for label, line in results(args.count):
        if args.lines:
            print(json.dumps([label, line]))
        digest.update(line.encode() + b"\n")
        total += 1
    if not args.lines:
        print(f"{total} results sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
