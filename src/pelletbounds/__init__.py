"""Eigenvalue localization bounds for matrix polynomials.

Cauchy-type outer/inner radii and Pellet-type eigenvalue-free annuli with
exact interior counts, for P(z) = A_n z^n + ... + A_0 with complex matrix
coefficients, under any of the induced 1-, infinity-, or 2-norms.  Includes
the companion-squaring variation (bounds through a half-degree polynomial
with doubled blocks), the 2x2 embedding of lacunary scalar polynomials, a
brute-force eigenvalue oracle with containment checks, and seeded experiment
harnesses comparing the bound families on random ensembles.
"""

from .bounds import (
    GAP,
    NO_GAP,
    UPPER_ONLY,
    CauchyBounds,
    GapResult,
    OddIndexError,
    cauchy_bounds,
    pellet_gap,
    squared_bounds,
    squared_gap,
)
from .embed import (
    InvalidDegreeError,
    LacunaryPolynomial,
    ZeroLeadingError,
    embed_even,
    embed_odd,
    to_scalar,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    TrialStats,
    gen_ex1,
    gen_ex2,
    gen_ex3,
    gen_ex4,
    run_experiment,
    trial_rng,
)
from .linalg import (
    NoConvergenceError,
    NormKind,
    SingularMatrixError,
    eigenvalues,
    inv_norm_inv,
    left_solve,
    norm,
)
from .matpoly import (
    MatrixPolynomial,
    NotMonicError,
    OddDegreeError,
    companion,
    evaluate,
    from_json,
    left_precondition,
    monicize,
    reciprocal,
    scalar_polynomial,
    shift_by_z,
    square_repartition,
    to_json,
)
from .oracle import EigenReport, count_in_annulus, count_in_disk, eigen_oracle
from .rootloc import (
    InvalidShapeError,
    PositiveRoots,
    SignedRadialPolynomial,
    positive_roots,
)

__version__ = "0.1.0"
