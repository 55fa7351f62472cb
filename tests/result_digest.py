"""Print a digest of every public result over criterion 1's instances.

Usage::

    python tests/result_digest.py --src <checkout>/src [--count N]

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
the sweep's do, so what one query keeps on it serves the next.  This
file is a script, not a test module; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

KINDS = ("one", "inf", "two")


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


def results(count):
    """Every result over the first ``count`` criterion-1 instances, in order."""
    import pelletbounds as pb
    from pelletbounds.bounds import squared_polynomial

    from conftest import criterion_1_instance

    for i in range(count):
        p, n = criterion_1_instance(i)
        for kind in KINDS:
            for pre in (False, True):
                yield _outcome(pb.cauchy_bounds, p, kind, pre)
            for use_reciprocal in (False, True):
                for index in (None, 0, 1):
                    yield _outcome(pb.squared_bounds, p, kind, use_reciprocal, index)
            for k in range(1, n):
                for pre in (False, True):
                    yield _outcome(pb.pellet_gap, p, k, kind, pre)
                    yield _outcome(pb.squared_gap, p, k, kind, pre)
        for use_reciprocal in (False, True):
            yield _stack(lambda: squared_polynomial(p, use_reciprocal)[0])
            yield _outcome(lambda: squared_polynomial(p, use_reciprocal)[1])
        for j in range(n + 1):
            yield _stack(pb.left_precondition, p, j)
        yield _outcome(lambda: pb.eigen_oracle(p).moduli.tobytes().hex())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the checkout to run")
    parser.add_argument("--count", type=int, default=2000, help="instances (default 2000)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    digest, total = hashlib.sha256(), 0
    for line in results(args.count):
        digest.update(line.encode() + b"\n")
        total += 1
    print(f"{total} results sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
