"""Brute-force eigenvalue ground truth, region counting and containment checks.

The oracle computes all nm eigenvalues of a matrix polynomial by sending the
monicized polynomial through its block companion matrix and a dense
eigensolver.  ``check_upper``, ``check_lower`` and ``check_gap`` verify a
reported radius or annulus against these values with relative slack
``DEFAULT_BOUNDARY_TOL`` at region boundaries and raise ``SoundnessError``
on a violation; the experiments and the acceptance suite both use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bounds import GAP, UPPER_ONLY, GapResult
from .matpoly import MatrixPolynomial, companion, monicize

DEFAULT_BOUNDARY_TOL = 1e-9


class SoundnessError(Exception):
    """A reported bound or gap failed its oracle containment check."""


class NonFiniteEigenvalueError(ArithmeticError):
    """An eigenvalue of the companion matrix lies beyond the double range."""


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues of a matrix polynomial sorted by ascending modulus."""

    values: np.ndarray
    moduli: np.ndarray
    count: int

    @property
    def min_modulus(self) -> float:
        return float(self.moduli[0])

    @property
    def max_modulus(self) -> float:
        return float(self.moduli[-1])


def eigen_oracle(p: MatrixPolynomial) -> EigenReport:
    """All nm eigenvalues of P with multiplicity.

    Requires a nonsingular leading coefficient (SingularMatrixError
    otherwise: infinite eigenvalues present, transform first).  Raises
    NonFiniteEigenvalueError when the eigensolve returns an eigenvalue that
    is not finite, as one beyond the double range is.  Raises ValueError,
    before anything is built, when nm exceeds ``linalg.EIGEN_DIM_CAP``.
    """
    if p.n * p.m > linalg.EIGEN_DIM_CAP:
        raise ValueError(f"matrix dimension {p.n * p.m} exceeds cap {linalg.EIGEN_DIM_CAP}")
    vals = linalg.eigenvalues(companion(monicize(p)))
    if not np.isfinite(vals).all():
        raise NonFiniteEigenvalueError("an eigenvalue is not finite: it exceeds the double range")
    order = np.argsort(np.abs(vals), kind="stable")
    vals = vals[order]
    moduli = np.abs(vals)
    report = EigenReport(values=vals, moduli=moduli, count=p.n * p.m)
    assert len(vals) == report.count
    return report


def count_in_disk(rep: EigenReport, radius: float) -> int:
    """Number of eigenvalue moduli <= radius * (1 + tol)."""
    return int(np.count_nonzero(rep.moduli <= radius * (1.0 + DEFAULT_BOUNDARY_TOL)))


def count_in_annulus(rep: EigenReport, x1: float, x2: float) -> int:
    """Number of eigenvalue moduli strictly inside (x1*(1+tol), x2*(1-tol))."""
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got {x1}, {x2}")
    inner = rep.moduli > x1 * (1.0 + DEFAULT_BOUNDARY_TOL)
    outer = rep.moduli < x2 * (1.0 - DEFAULT_BOUNDARY_TOL)
    return int(np.count_nonzero(inner & outer))


def check_upper(rep: EigenReport, value: float, label: str) -> None:
    """Require every eigenvalue modulus to be <= value * (1 + tol)."""
    if not rep.max_modulus <= value * (1.0 + DEFAULT_BOUNDARY_TOL):
        raise SoundnessError(f"{label}: upper bound {value} < max modulus {rep.max_modulus}")


def check_lower(rep: EigenReport, value: float, label: str) -> None:
    """Require value <= min modulus * (1 + tol)."""
    if not value <= rep.min_modulus * (1.0 + DEFAULT_BOUNDARY_TOL):
        raise SoundnessError(f"{label}: lower bound {value} > min modulus {rep.min_modulus}")


def check_gap(rep: EigenReport, gap: GapResult, label: str) -> bool:
    """Verify a Pellet result; returns whether it claimed anything.

    A ``gap`` must have exactly its claimed count inside |z| <= x1 and no
    modulus inside the annulus, both counted at the default boundary slack.
    ``nogap`` claims nothing.  A Pellet query returns only these two; an
    ``upper-only`` result, which a caller may build, is checked as an upper
    bound.
    """
    if gap.status == UPPER_ONLY:
        check_upper(rep, gap.x1, label)
        return True
    if gap.status != GAP:
        return False
    inside = count_in_disk(rep, gap.x1)
    if inside != gap.eig_count_inside:
        raise SoundnessError(
            f"{label}: {inside} eigenvalues inside |z| <= {gap.x1}, claimed {gap.eig_count_inside}")
    stray = count_in_annulus(rep, gap.x1, gap.x2)
    if stray:
        raise SoundnessError(f"{label}: {stray} eigenvalues inside the annulus ({gap.x1}, {gap.x2})")
    return True
