import os
from pathlib import Path

import numpy as np
import pytest

import pelletbounds
from pelletbounds import MatrixPolynomial, trial_rng

CRITERION_1_SEED = 20260810


def pelletbounds_env(**overrides):
    """Environment for a fresh Python process that imports this pelletbounds:
    the caller's, without the variables that set OpenBLAS's thread count,
    then ``overrides``."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    src = str(Path(pelletbounds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(overrides)
    return env


def table_rows(result, name):
    """The rows of the experiment table ``name`` in ``result``, each a dict
    keyed by column."""
    (table,) = [t for t in result.tables if t.name == name]
    return [dict(zip(table.columns, row)) for row in table.rows]


def rand_matrix(rng, m, scale=1.0):
    return scale * (rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m)))


def rand_poly(rng, m, n, scale=1.0, monic=True):
    coeffs = [rand_matrix(rng, m, scale) for _ in range(n)]
    coeffs.append(np.eye(m) if monic else rand_matrix(rng, m, scale))
    return MatrixPolynomial(coeffs)


def criterion_1_instance(i):
    """(P, n) of instance i of acceptance criterion 1's soundness sweep."""
    rng = trial_rng(CRITERION_1_SEED, i)
    m = (1, 2, 3, 5)[i % 4]
    n = 2 + i % 9
    scale = 10.0 ** rng.uniform(-1.0, 1.5)
    coeffs = [rand_matrix(rng, m, scale) for _ in range(n + 1)]
    if i % 2 == 0:
        coeffs[-1] = np.eye(m)
    if rng.uniform() < 0.6:
        k_spike = int(rng.integers(1, n))
        coeffs[k_spike] = coeffs[k_spike] + scale * 10.0 ** rng.uniform(1.0, 4.0) * np.eye(m)
    return MatrixPolynomial(coeffs), n


def max_match_distance(a, b):
    """Greedy nearest-neighbor matching distance between two equal-size
    complex multisets (processed in ascending-modulus order)."""
    a = sorted(np.asarray(a, dtype=complex), key=abs)
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        j = min(range(len(b)), key=lambda i: abs(b[i] - x))
        worst = max(worst, abs(b[j] - x))
        b.pop(j)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
