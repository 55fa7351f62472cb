import math
import os
from pathlib import Path

import numpy as np
import pytest

import pelletbounds
from pelletbounds import MatrixPolynomial, rootloc, trial_rng

CRITERION_1_SEED = 20260810


def pelletbounds_env(**overrides):
    """Environment for a fresh Python process that imports this pelletbounds:
    the caller's, without the variables that set OpenBLAS's thread count,
    then ``overrides``."""
    env = {k: v for k, v in os.environ.items() if k not in pelletbounds._BLAS_THREAD_VARS}
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


def wide_polynomials(seed, count, max_m, max_n, span=60.0):
    """``count`` seeded polynomials of wide dynamic range: m in 1..max_m,
    n in 2..max_n, and each coefficient entry 10^U(-span, span) times
    U(-1, 1) + i U(-1, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, max_m + 1)), int(rng.integers(2, max_n + 1))
        shape = (n + 1, m, m)
        phase = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
        yield MatrixPolynomial(10.0 ** rng.uniform(-span, span, shape) * phase)


def near_collinear_polynomials(seed, count, max_m, max_n):
    """``count`` seeded polynomials whose coefficient norms lie on or near
    one line in log scale: m in 1..max_m, n in 2..max_n, and A_j =
    e^(alpha + beta j + eta_j) D_j with D_j diagonal, of entries of modulus
    one.  Each eta_j is, with chance 1/4 each, 0, within 1e-12 of 0,
    U(-2, 0) or U(0, 3), so that many chords pass within ulps of a point and
    some points stand above the line."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, max_m + 1)), int(rng.integers(2, max_n + 1))
        alpha, beta = rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0)
        eta = np.choose(rng.integers(0, 4, n + 1),
                        [np.zeros(n + 1), 1e-12 * rng.uniform(-1.0, 1.0, n + 1),
                         rng.uniform(-2.0, 0.0, n + 1), rng.uniform(0.0, 3.0, n + 1)])
        scale = np.exp(alpha + beta * np.arange(n + 1) + eta)
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (n + 1, m)))
        yield MatrixPolynomial(scale[:, None, None] * np.eye(m) * phases[:, None, :])


def pair_chord(terms):
    """(C, t_c) of the lines a + d t, one per pair (a, d) of ``terms`` (no d
    zero), by brute force over every pair d_i < 0 < d_j: C is the highest
    (d_j a_i - d_i a_j) / (d_j - d_i), the first met on a tie, and t_c =
    (a_i - a_j) / (d_j - d_i) where that pair's lines cross; (-inf, 0.0)
    when either sign is missing.  The reference for the upper hull of
    ``rootloc``."""
    best, tc = -math.inf, 0.0
    for ai, di in terms:
        if di > 0.0:
            continue
        for aj, dj in terms:
            if dj < 0.0:
                continue
            v = (dj * ai - di * aj) / (dj - di)
            if v > best:
                best, tc = v, (ai - aj) / (dj - di)
    return best, tc


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


@pytest.fixture
def h_evaluations(monkeypatch):
    """The list of points at which h is evaluated.  Every evaluation goes
    through the one (h, h') evaluator of the log form, which a
    SignedRadialPolynomial is too: the (h, h', h'') one calls it."""
    points = []
    newton = rootloc._LogForm._newton

    def counted(f, t):
        points.append(t)
        return newton(f, t)

    monkeypatch.setattr(rootloc._LogForm, "_newton", counted)
    return points
