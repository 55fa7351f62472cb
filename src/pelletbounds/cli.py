"""Command-line frontend.

Subcommands mirror the library surface:

    bounds      Cauchy radii (plain / preconditioned / squared variants)
    gap         Pellet annulus query at one index
    square      emit the companion-squared polynomial Q (or Q_R) as JSON
    embed       emit the 2x2 embedding of a lacunary scalar polynomial
    oracle      brute-force eigenvalue moduli
    experiment  run one of the ex1..ex4 studies and emit its tables

Polynomials come either from a JSON file ({"m", "n", "coeffs"} with [re, im]
entry pairs) via --input, or inline real scalar coefficients in descending
degree via --poly "1,-3,2".

Exit codes: 0 success, 1 input error, 2 singular/inapplicable, 3 numerical
failure.

OpenBLAS reads its thread count when it loads, and a pool of more than one
thread costs a short query CPU and time.  The command line is a program and
not a library, so before its first import of numpy it sets
``OPENBLAS_NUM_THREADS=1`` in its own environment, which the experiment
workers it forks inherit, unless the caller has set one of the variables
OpenBLAS reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _BLAS_THREAD_VARS

# before the first import that loads numpy, and with it OpenBLAS
if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import bounds as bounds_mod
from . import matpoly
from .embed import InvalidDegreeError, LacunaryPolynomial, ZeroLeadingError, embed_even, embed_odd
from .experiments import ExperimentConfig, run_experiment
from .linalg import NoConvergenceError, NormKind, SingularMatrixError
from .matpoly import MatrixPolynomial, NotMonicError, OddDegreeError
from .oracle import eigen_oracle
from .rootloc import InvalidShapeError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INAPPLICABLE = 2
EXIT_NUMERICAL = 3

_INAPPLICABLE = (SingularMatrixError, NotMonicError, OddDegreeError,
                 bounds_mod.OddIndexError, InvalidDegreeError, ZeroLeadingError,
                 InvalidShapeError)


class InputError(Exception):
    pass


def _parse_poly_arg(text: str) -> list:
    fields = text.split(",")
    if any(tok.strip() == "" for tok in fields):
        raise InputError("--poly has an empty field")
    try:
        desc = [float(tok) for tok in fields]
    except ValueError as exc:
        raise InputError(f"could not parse --poly: {exc}") from exc
    if len(desc) < 2:
        raise InputError("--poly needs at least two coefficients")
    if desc[0] == 0.0:
        raise InputError("--poly leading coefficient must be nonzero")
    return desc


def _load_polynomial(args) -> MatrixPolynomial:
    if getattr(args, "poly", None):
        desc = _parse_poly_arg(args.poly)
        return matpoly.scalar_polynomial(list(reversed(desc)))
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                return matpoly.from_json(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"bad polynomial JSON in {args.input}: {exc}") from exc
    raise InputError("provide a polynomial via --poly or --input")


def _json_complex(d: dict, key: str) -> complex:
    """d[key] as a complex number: a JSON number, or an [re, im] pair of
    exactly two, under the number rules of ``matpoly.from_json``."""
    v = d[key]
    pair = v if isinstance(v, list) else [v, 0.0]
    if len(pair) != 2 or not all(type(x) in (int, float) for x in pair):
        raise ValueError(f"{key} must be a JSON number or an [re, im] pair of JSON numbers")
    return complex(float(pair[0]), float(pair[1]))


def _load_lacunary(args) -> LacunaryPolynomial:
    if getattr(args, "poly", None):
        desc = _parse_poly_arg(args.poly)
        n = len(desc) - 1
        if n < 5:
            raise InputError("lacunary polynomial needs degree >= 5")
        asc = list(reversed(desc))
        for j in range(3, n - 2):
            if asc[j] != 0.0:
                raise InputError(f"coefficient of z^{j} must be zero for the lacunary form")
        return LacunaryPolynomial(n, asc[n], asc[n - 1], asc[n - 2], asc[2], asc[1], asc[0])
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                d = json.load(fh)
            coeffs = [_json_complex(d, key) for key in ("a", "b", "c", "alpha", "beta", "gamma")]
            return LacunaryPolynomial(matpoly._json_int(d, "n"), *coeffs)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from exc
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"bad lacunary JSON in {args.input}: {exc}") from exc
    raise InputError("provide a polynomial via --poly or --input")


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt_opt(v) -> str:
    return "absent" if v is None else format(v, ".12g")


def _cmd_bounds(args) -> int:
    p = _load_polynomial(args)
    kinds = [NormKind.coerce(k) for k in (args.norm or ["one"])]
    rows = []
    for kind in kinds:
        if args.variant == "p":
            cb = bounds_mod.cauchy_bounds(p, kind, precondition=args.precondition)
        else:
            idx = 0 if args.precondition else None
            cb = bounds_mod.squared_bounds(p, kind, use_reciprocal=(args.variant == "qr"),
                                           precondition_index=idx)
        rows.append((kind.value, cb))
    if args.format == "json":
        payload = [{"norm": k, "variant": cb.variant, "upper": cb.upper, "lower": cb.lower}
                   for k, cb in rows]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = ["norm,variant,upper,lower"] if args.format == "csv" else \
                ["| norm | variant | upper | lower |", "|---|---|---|---|"]
        for k, cb in rows:
            if args.format == "csv":
                lines.append(f"{k},{cb.variant},{_fmt_opt(cb.upper)},{_fmt_opt(cb.lower)}")
            else:
                lines.append(f"| {k} | {cb.variant} | {_fmt_opt(cb.upper)} | {_fmt_opt(cb.lower)} |")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_gap(args) -> int:
    p = _load_polynomial(args)
    kinds = [NormKind.coerce(k) for k in (args.norm or ["one"])]
    results = []
    for kind in kinds:
        if args.variant == "q":
            g = bounds_mod.squared_gap(p, args.k, kind, precondition=args.precondition)
        else:
            g = bounds_mod.pellet_gap(p, args.k, kind, precondition=args.precondition)
        results.append(g)
    if args.format == "json":
        payload = [{"norm": g.norm_kind.value, "variant": g.variant, "k": g.k,
                    "status": g.status, "x1": g.x1, "x2": g.x2,
                    "count_inside": g.eig_count_inside, "marginal": g.marginal}
                   for g in results]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = []
        for g in results:
            if g.status == bounds_mod.GAP:
                lines.append(f"norm={g.norm_kind.value} k={g.k} gap: x1={g.x1:.12g} "
                             f"x2={g.x2:.12g} count={g.eig_count_inside}"
                             + (" (marginal)" if g.marginal else ""))
            elif g.status == bounds_mod.UPPER_ONLY:
                lines.append(f"norm={g.norm_kind.value} k={g.k} upper-only: x1={g.x1:.12g}")
            else:
                lines.append(f"norm={g.norm_kind.value} k={g.k} no gap")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_square(args) -> int:
    p = _load_polynomial(args)
    q, _ = bounds_mod.squared_polynomial(p, use_reciprocal=(args.variant == "qr"))
    _emit(matpoly.to_json(q), args.out)
    return EXIT_OK


def _cmd_embed(args) -> int:
    lac = _load_lacunary(args)
    q = embed_even(lac) if lac.n % 2 == 0 else embed_odd(lac)
    _emit(matpoly.to_json(q), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    p = _load_polynomial(args)
    rep = eigen_oracle(p)
    if args.format == "json":
        payload = {"count": rep.count,
                   "moduli": [float(v) for v in rep.moduli],
                   "values": [[float(v.real), float(v.imag)] for v in rep.values]}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit("\n".join(format(v, ".12g") for v in rep.moduli), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        example_id=args.example,
        trials=args.trials,
        seed=args.seed,
        norm_kinds=tuple(args.norm) if args.norm else (),
        m=args.m,
        eta=args.eta,
        n=args.n,
        scale_per_entry=args.scale_per_entry,
    )
    result = run_experiment(cfg)
    if args.format == "csv":
        _emit(result.to_csv(), args.out)
    elif args.format == "json":
        _emit(json.dumps(result.to_json_obj(), indent=2), args.out)
    else:
        _emit(result.to_markdown(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pelletbounds",
        description="Eigenvalue localization bounds for matrix polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, formats=("csv", "md", "json")):
        sp.add_argument("--input", help="polynomial JSON file")
        sp.add_argument("--poly", help="inline real scalar coefficients, descending degree")
        if formats:
            sp.add_argument("--format", choices=formats, default="md")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    sp = sub.add_parser("bounds", help="Cauchy-type upper/lower radii")
    add_io(sp)
    sp.add_argument("--norm", action="append", choices=["one", "inf", "two"])
    sp.add_argument("--variant", choices=["p", "q", "qr"], default="p")
    sp.add_argument("--precondition", action="store_true")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("gap", help="Pellet annulus query at index k")
    add_io(sp, formats=("md", "json"))
    sp.add_argument("--norm", action="append", choices=["one", "inf", "two"])
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--variant", choices=["p", "q"], default="p")
    sp.add_argument("--precondition", action="store_true")
    sp.set_defaults(func=_cmd_gap)

    sp = sub.add_parser("square", help="emit the companion-squared polynomial as JSON")
    add_io(sp, formats=())
    sp.add_argument("--variant", choices=["q", "qr"], default="q")
    sp.set_defaults(func=_cmd_square)

    sp = sub.add_parser("embed", help="emit the 2x2 embedding of a lacunary polynomial")
    add_io(sp, formats=())
    sp.set_defaults(func=_cmd_embed)

    sp = sub.add_parser("oracle", help="brute-force eigenvalue moduli")
    add_io(sp, formats=("md", "json"))
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("experiment", help="run one of the ex1..ex4 studies")
    sp.add_argument("--example", required=True, choices=["ex1", "ex2", "ex3", "ex4"])
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--norm", action="append", choices=["one", "inf", "two"])
    sp.add_argument("--m", type=int, default=10, help="block size (ex1)")
    sp.add_argument("--eta", type=float, default=0.0, help="top-coefficient spread (ex2)")
    sp.add_argument("--n", type=int, default=80, help="degree (ex4)")
    sp.add_argument("--scale-per-entry", action="store_true", dest="scale_per_entry",
                    help="ex1: draw one scale factor per entry instead of per matrix")
    sp.add_argument("--format", choices=["csv", "md", "json"], default="md")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _INAPPLICABLE as exc:
        print(f"inapplicable: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (NoConvergenceError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
