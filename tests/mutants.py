"""Run Tier-1 against named source mutants and print which tests kill each.

Usage::

    python tests/mutants.py

Each mutant below is a named edit of one or two lines of
``src/pelletbounds``, each of which breaks one rule that the bounds rely
on: a radius moved to the unsafe side, a rounding on the unsafe side, a
pivot or overflow check switched off, a shortcut that must give the same
bits taken away.  For each mutant the script copies the working tree to a
temporary directory, applies the edit there (an edit whose line is not
found exactly once stops the script: the list is stale), and runs Tier-1
in the copy, criterion 5 deselected, since it takes about half of Tier-1
and repeats the golden tables.  Each run has one fixed hypothesis seed and
no example database of an earlier run, so the ``@given`` tests draw the
same examples in every run and on every mutant, and a table repeats.  A
mutant is killed when some test fails on it.  The script prints, for
each, how many tests fail and how many of those are not ``identity``
tests, and lists them, each ``identity`` test tagged, so one run gives
the kills with and without them.  Those are the byte-identity and exact-equality
tests (``pytest.mark.identity``): the golden CSVs, the CLI and benchmark
reference outputs, the fresh factorization, block-diagonal and unit-of-z
tests.  None of them checks which side an error lies on, so a mutant that
only they kill goes unseen once those outputs are re-recorded.

The unmutated tree runs first; the script stops if it fails.  Each run
takes about 45 s on two cores, and one that takes 15 minutes is reported
as a timeout, a kill.  This file is a script, not a test module;
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "pelletbounds"
CRITERION_5 = "tests/test_acceptance.py::test_criterion_5_table_reproduction"
TIMEOUT_S = 900.0
HYPOTHESIS_SEED = 0  # every run draws the same examples, so a kill table repeats
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                      ".perfbench_out", "*.egg-info")


def _inward(factor: str) -> tuple:
    """Every radius moved by ``factor`` relative to the unsafe side: a root
    found from tau1 (an upper Cauchy radius, a Pellet x1) down, one found
    from tau2 (a lower Cauchy radius, a Pellet x2) up."""
    return (
        ("rootloc.py",
         'return PositiveRoots("one", x1=math.exp(_root(f, f._tau1 if below else f._tau2)))',
         'return PositiveRoots("one", x1=math.exp(_root(f, f._tau1 if below else f._tau2))'
         f' * (1.0 - {factor} if below else 1.0 + {factor}))'),
        ("rootloc.py",
         "x1, x2 = math.exp(_root(f, f._tau1)), math.exp(_root(f, f._tau2))",
         f"x1, x2 = math.exp(_root(f, f._tau1)) * (1.0 - {factor}), "
         f"math.exp(_root(f, f._tau2)) * (1.0 + {factor})"),
    )


# name -> (what it breaks, its edits as (file in src/pelletbounds, line text, replacement))
MUTANTS = {
    "radius-inward-2e-11": ("every radius 2e-11 relative to the unsafe side", _inward("2e-11")),
    "radius-inward-5e-10": ("every radius 5e-10 relative to the unsafe side", _inward("5e-10")),
    "radius-inward-2e-9": ("every radius 2e-9 relative to the unsafe side", _inward("2e-9")),
    "singularity-rtol-0": ("no relative pivot test: SINGULARITY_RTOL = 0", (
        ("linalg.py", "SINGULARITY_RTOL = 1e-13", "SINGULARITY_RTOL = 0.0"),)),
    "two-iff-hmin-negative": ('"two" iff h_min < 0, in place of -GAP_RTOL', (
        ("rootloc.py", "if hmin >= -GAP_RTOL:", "if hmin >= 0.0:"),)),
    "loss-rule-off": ("a preconditioned coefficient lost to underflow is kept", (
        ("matpoly.py", "floor = _LOSS_RATIO * norms[index]", "floor = 0.0"),)),
    "nu-two-from-sigma-min": ("the 2-norm nu_k as sigma_min of A_k, not from A_k^-1", (
        ("matpoly.py",
         "nu = kept.nu[j] = 1.0 if _is_identity(p, j) else linalg._inv_norm_inv(_lu(p, j), kind)",
         "nu = kept.nu[j] = 1.0 if _is_identity(p, j) else ("
         "(_lu(p, j), float(np.linalg.svd(p.stack[j], compute_uv=False)[-1]))[1]"
         " if kind is linalg.NormKind.TWO else linalg._inv_norm_inv(_lu(p, j), kind))"),)),
    "nu-up-1e-12": ("nu_k rounded up by 1e-12 relative", (
        ("matpoly.py",
         "nu = kept.nu[j] = 1.0 if _is_identity(p, j) else linalg._inv_norm_inv(_lu(p, j), kind)",
         "nu = kept.nu[j] = 1.0 if _is_identity(p, j) else "
         "linalg._inv_norm_inv(_lu(p, j), kind) * (1.0 + 1e-12)"),)),
    "norms-down-1e-12": ("every coefficient norm rounded down by 1e-12 relative", (
        ("matpoly.py", "norms = linalg.norm(p.stack, kind).tolist()",
         "norms = (linalg.norm(p.stack, kind) * (1.0 - 1e-12)).tolist()"),)),
    "preconditioned-prefilter-pivot-nu": (
        "the preconditioned prefilter against log nu_k, not log||A_k||", (
            ("bounds.py", "pivot = logs[k] if precondition else lognu", "pivot = lognu"),)),
    "two-norm-signed-zero": ("the 2-norm of the matrix as it is, -0.0 entries included", (
        ("linalg.py", "return np.linalg.svd(arr + 0.0, compute_uv=False)[..., 0]",
         "return np.linalg.svd(arr, compute_uv=False)[..., 0]"),)),
    "identity-nu-factored": ("nu of an exact identity from its LU, not 1.0", (
        ("matpoly.py",
         "nu = kept.nu[j] = 1.0 if _is_identity(p, j) else linalg._inv_norm_inv(_lu(p, j), kind)",
         "nu = kept.nu[j] = linalg._inv_norm_inv(_lu(p, j), kind)"),)),
    "identity-preconditioned-solved": ("I^-1 P solved from an LU, not P itself", (
        ("matpoly.py", "    if _is_identity(p, index):\n        # decided before the slot",
         "    if False:\n        # decided before the slot"),)),
    "overflow-pivot-norm": ("a pivot whose infinity norm overflows is factored", (
        ("linalg.py", "if scale == np.inf:", "if False:"),)),
    "overflow-solve": ("a solve that overflows is kept", (
        ("linalg.py", "if not np.isfinite(x).all():", "if False:"),)),
    "overflow-inverse-norm": ("nu_k = 0 from an inverse whose norm overflows is kept", (
        ("linalg.py", "if not nu > 0.0:", "if False:"),)),
    "overflow-preconditioned-norm": ("a preconditioned coefficient whose norm overflows is kept", (
        ("matpoly.py",
         "near_overflow = np.abs(stack.view(np.float64)).max() >= _DBL_MAX / (2 * p.m)",
         "near_overflow = False"),)),
    "overflow-squared": ("companion-squared coefficients that overflow are kept", (
        ("matpoly.py", "if not np.isfinite(q[:h]).all():", "if False:"),)),
}


def _apply(tree: Path, edits) -> None:
    """Apply ``edits`` to the copy of the package in ``tree``."""
    for name, old, new in edits:
        path = tree / PACKAGE / name
        path.write_text(path.read_text().replace(old, new))


def _failures(tree: Path) -> list:
    """The tests that fail in ``tree``, criterion 5 deselected; ["timeout"]
    when the run takes longer than TIMEOUT_S."""
    argv = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", "--deselect", CRITERION_5]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ["timeout"]
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        failed.append(f"pytest exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}")
    return failed


def _identity_tests(tree: Path) -> set:
    """The ids of the tests marked ``identity``."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--collect-only", "-m", "identity",
                           "-p", "no:cacheprovider"], cwd=tree, capture_output=True, text=True)
    return set(re.findall(r"^(tests/\S+::\S+)$", proc.stdout, re.MULTILINE))


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(ROOT, base, ignore=_COPY_IGNORE)
        for name, (_, edits) in MUTANTS.items():  # a stale edit stops the script before any run
            for file, old, _ in edits:
                if (base / PACKAGE / file).read_text().count(old) != 1:
                    raise SystemExit(f"stale mutant {name}: {old!r} not found once in {file}")
        identity = _identity_tests(base)
        failed = _failures(base)
        if failed:
            raise SystemExit(f"the unmutated tree fails: {failed}")
        print(f"unmutated tree passes; {len(identity)} tests are marked identity", flush=True)
        for name, (what, edits) in MUTANTS.items():
            tree = Path(tmp) / name
            shutil.copytree(base, tree, ignore=_COPY_IGNORE)
            _apply(tree, edits)
            failed = _failures(tree)
            shutil.rmtree(tree)
            other = len(set(failed) - identity)
            verdict = (f"killed by {len(failed)}, {other} without identity tests"
                       + ("" if other else " (identity tests only)")) if failed else "SURVIVED"
            print(f"{name}: {verdict}  ({what})", flush=True)
            for test in failed:
                print(f"    {test}{'  [identity]' if test in identity else ''}", flush=True)


if __name__ == "__main__":
    main()
