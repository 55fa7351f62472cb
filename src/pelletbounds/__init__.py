"""Eigenvalue localization bounds for matrix polynomials.

Cauchy-type outer/inner radii and Pellet-type eigenvalue-free annuli with
exact interior counts, for P(z) = A_n z^n + ... + A_0 with complex matrix
coefficients, under any of the induced 1-, infinity-, or 2-norms.  Includes
the companion-squaring variation (bounds through a half-degree polynomial
with doubled blocks), the 2x2 embedding of lacunary scalar polynomials, a
brute-force eigenvalue oracle with containment checks, and seeded experiment
harnesses comparing the bound families on random ensembles.

Importing the package loads no submodule and not numpy: each public name
is taken from its submodule when it is first asked for (PEP 562) and kept
here, so the command line can limit the BLAS threads before numpy loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The variables OpenBLAS reads for its thread count when it loads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_SUBMODULE_NAMES = {
    "bounds": ("GAP", "NO_GAP", "UPPER_ONLY", "CauchyBounds", "GapResult", "OddIndexError",
               "cauchy_bounds", "pellet_gap", "squared_bounds", "squared_gap"),
    "embed": ("InvalidDegreeError", "LacunaryPolynomial", "ZeroLeadingError", "embed_even",
              "embed_odd", "to_scalar"),
    "experiments": ("ExperimentConfig", "ExperimentResult", "gen_ex1", "gen_ex2", "gen_ex3",
                    "gen_ex4", "run_experiment", "trial_rng"),
    "linalg": ("NoConvergenceError", "NormKind", "SingularMatrixError", "eigenvalues",
               "inv_norm_inv", "left_solve", "norm"),
    "matpoly": ("MatrixPolynomial", "NotMonicError", "OddDegreeError", "companion", "evaluate",
                "from_json", "left_precondition", "monicize", "reciprocal", "scalar_polynomial",
                "shift_by_z", "square_repartition", "to_json"),
    "oracle": ("EigenReport", "count_in_annulus", "count_in_disk", "eigen_oracle"),
    "rootloc": ("InvalidShapeError", "PositiveRoots", "SignedRadialPolynomial", "positive_roots"),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # kept, so later lookups cost what they did with eager imports
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
