"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The statistical table checks (criterion 5) compare
desk-scale reruns (200/100 trials) against the reference 1000-trial values
in direction and magnitude; everything else is exact or tolerance-checked.
"""

import time

import numpy as np
import pytest

from pelletbounds import (
    GAP,
    ExperimentConfig,
    LacunaryPolynomial,
    MatrixPolynomial,
    NormKind,
    SignedRadialPolynomial,
    SingularMatrixError,
    cauchy_bounds,
    eigen_oracle,
    embed_even,
    embed_odd,
    evaluate,
    pellet_gap,
    positive_roots,
    reciprocal,
    run_experiment,
    scalar_polynomial,
    square_repartition,
    squared_bounds,
    squared_gap,
    to_scalar,
    trial_rng,
)
from pelletbounds.oracle import check_gap, check_lower, check_upper

from conftest import (CRITERION_1_SEED as SEED, criterion_1_instance, max_match_distance,
                      table_rows)

KINDS = (NormKind.ONE, NormKind.INF, NormKind.TWO)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def _rand_matrix(rng, m, scale=1.0):
    return scale * (rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m)))


def test_criterion_1_soundness_sweep():
    t0 = time.time()
    instances = 2000
    claims = gaps = 0
    for i in range(instances):
        p, n = criterion_1_instance(i)
        kind = KINDS[i % 3]
        rep = eigen_oracle(p)

        radii = [cauchy_bounds(p, kind, precondition=pre) for pre in (False, True)]
        for opts in ({"use_reciprocal": False}, {"use_reciprocal": True}, {"precondition_index": 0}):
            try:
                radii.append(squared_bounds(p, kind, **opts))
            except SingularMatrixError:
                pass
        label = f"instance {i} {kind.value}"
        for cb in radii:
            if cb.upper is not None:
                check_upper(rep, cb.upper, f"{label} {cb.variant}")
                claims += 1
            if cb.lower is not None:
                check_lower(rep, cb.lower, f"{label} {cb.variant}")
                claims += 1
        for k in range(1, n):
            for pre in (False, True):
                try:
                    g = pellet_gap(p, k, kind, precondition=pre)
                except SingularMatrixError:
                    continue
                got = check_gap(rep, g, f"{label} k={k} {g.variant}")
                claims += got
                gaps += got
        if n % 2 == 0 and n >= 4:
            for k_even in range(2, n - 1, 2):
                for pre in (False, True):
                    try:
                        g = squared_gap(p, k_even, kind, precondition=pre)
                    except SingularMatrixError:
                        continue
                    got = check_gap(rep, g, f"{label} k={k_even} {g.variant}")
                    claims += got
                    gaps += got
    elapsed = time.time() - t0
    # the exact totals: a change that drops (or adds) a single claim fails here
    ok = claims == 19173 and gaps == 2810 and elapsed < 300.0
    report(1, "soundness sweep", ok,
           f"{instances} instances, {claims} verified claims ({gaps} annuli), {elapsed:.1f}s")


def test_criterion_2_squared_eigenvalue_identity():
    worst = 0.0
    for i in range(500):
        rng = trial_rng(SEED + 2, i)
        m = 1 + i % 3
        n = (2, 4, 6, 8)[i % 4]
        p = MatrixPolynomial([_rand_matrix(rng, m) for _ in range(n)] + [np.eye(m)])
        q = square_repartition(p)
        squares = eigen_oracle(p).values ** 2
        worst = max(worst, max_match_distance(squares, eigen_oracle(q).values))
    report(2, "companion-squaring identity", worst <= 1e-8,
           f"500 instances, max eigenvalue mismatch {worst:.3e}")


def _rand_lacunary(rng, n):
    while True:
        vals = rng.uniform(-50.0, 50.0, 6)
        if vals[0] * vals[3] != 0.0 and abs(vals[5]) > 1e-3:
            return LacunaryPolynomial(n, *vals)


def test_criterion_3_lacunary_identity():
    worst_det = 0.0
    worst_eig = 0.0
    for i in range(500):
        rng = trial_rng(SEED + 3, i)
        n = 5 + (i % 17)
        lac = _rand_lacunary(rng, n)
        q = embed_even(lac) if n % 2 == 0 else embed_odd(lac)
        radii = 10.0 ** rng.uniform(-1.5, 1.5, 20)
        angles = rng.uniform(0.0, 2 * np.pi, 20)
        for z in radii * np.exp(1j * angles):
            mat = evaluate(q, z)
            det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
            pz = lac(z)
            worst_det = max(worst_det, abs(det - pz) / max(1.0, abs(pz)))
        expected = eigen_oracle(to_scalar(lac)).values
        if n % 2 == 0:
            got = eigen_oracle(q).values
        else:
            rec = eigen_oracle(reciprocal(q))
            assert rec.moduli[0] <= 1e-8 * max(1.0, rec.moduli[1])
            got = 1.0 / rec.values[1:]
        worst_eig = max(worst_eig, max_match_distance(got, expected))
    ok = worst_det <= 1e-8 and worst_eig <= 1e-7
    report(3, "lacunary embedding identity", ok,
           f"500 instances, max det residual {worst_det:.3e}, max eig mismatch {worst_eig:.3e}")


def _oracle_positive_roots(f):
    desc = []
    for j in range(f.degree, -1, -1):
        desc.append(-f.neg_value if j == f.neg_index else f.coeffs[j])
    desc = np.trim_zeros(np.array(desc), "f")
    deriv = np.polyder(desc)
    out = []
    for z in np.roots(desc):
        if abs(z.imag) > 1e-8 * max(1.0, abs(z.real)) or z.real <= 0.0:
            continue
        x = z.real
        for _ in range(8):
            dx = np.polyval(deriv, x)
            if dx == 0.0:
                break
            step = np.polyval(desc, x) / dx
            x -= step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    return sorted(out)


def test_criterion_4_root_solver_oracle_equivalence():
    checked = 0
    for i in range(1000):
        rng = trial_rng(SEED + 4, i)
        n = 2 + (i % 29)
        k = int(rng.integers(0, n + 1))
        coeffs = rng.uniform(0.0, 1.0, n + 1) * 10.0 ** rng.uniform(-2, 2, n + 1)
        coeffs[rng.uniform(size=n + 1) < 0.35] = 0.0
        coeffs[k] = 0.0
        if not coeffs.any():
            coeffs[(k + 1) % (n + 1)] = 1.0
        nu = 10.0 ** rng.uniform(-2, 3)
        f = SignedRadialPolynomial(coeffs, k, nu)
        r = positive_roots(f)
        got = [v for v in (r.x1, r.x2) if v is not None]
        expected = _oracle_positive_roots(f)
        assert len(got) == len(expected), (i, r, expected)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, rel=1e-8), (i, got, expected)
        checked += 1
    # tangency: phi(x) = x + 1/x - (2 + delta) has min phi = -delta at x = 1
    tangents = 0
    for delta in (0.0, 1e-12, -1e-12, 1e-11, -1e-11, 5e-11, -5e-11, 1e-10, -1e-10):
        for scale in (1.0, 37.0):
            f = SignedRadialPolynomial([scale, 0.0, scale], 1, scale * (2.0 + delta))
            r = positive_roots(f)
            assert r.kind == "none", (delta, scale, r)
            tangents += 1
    report(4, "root-solver oracle equivalence", True,
           f"{checked} random radial polynomials agree, {tangents} tangency cases report none")


def test_criterion_5_table_reproduction():
    t0 = time.time()
    details = []

    def run_ex1(m):
        cfg = ExperimentConfig("ex1", trials=200, seed=SEED, m=m, norm_kinds=("one",))
        res = run_experiment(cfg)
        return {side: {row["variant"]: row for row in table_rows(res, f"ex1_{side}_m{m}_one")}
                for side in ("upper", "lower")}

    paper_upper = {10: (316.0, 247.0), 25: (481.0, 312.0)}
    ex1 = {m: run_ex1(m) for m in (2, 10, 25)}
    ok = True
    for m in (10, 25):
        mean_p = ex1[m]["upper"]["P"]["mean_ratio_percent"]
        mean_q = ex1[m]["upper"]["Q"]["mean_ratio_percent"]
        tp, tq = paper_upper[m]
        ok &= mean_q < mean_p
        ok &= abs(mean_p - tp) <= 0.10 * tp
        ok &= abs(mean_q - tq) <= 0.10 * tq
        details.append(f"ex1 m={m}: P {mean_p:.1f} (ref {tp:.0f}), Q {mean_q:.1f} (ref {tq:.0f})")
    for m in (2, 10, 25):
        lower = ex1[m]["lower"]
        qr = lower["QR"]["best_count"]
        others = max(lower["A0invP"]["best_count"], lower["B0invQ"]["best_count"])
        ok &= qr > others
        details.append(f"ex1 m={m}: QR wins {qr}/200 lower-bound trials")

    for eta, expect_q_ahead in ((0.0, True), (1.0, False)):
        cfg = ExperimentConfig("ex2", trials=100, seed=SEED, eta=eta)
        (plain,) = table_rows(run_experiment(cfg), "ex2_gap_frequency")
        p_total, q_total = plain["P_total"], plain["Q_total"]
        ok &= (q_total > p_total) if expect_q_ahead else (p_total > q_total)
        details.append(f"ex2 eta={eta:g}: gaps P={p_total}, Q={q_total} /100")

    cfg = ExperimentConfig("ex4", trials=200, seed=SEED, n=80)
    (b,) = table_rows(run_experiment(cfg), "ex4_bounds_n80")
    scalar_mean = b["upper_scalar_mean"]
    matrix_mean = b["upper_matrix_mean"]
    ok &= matrix_mean <= 105.0
    ok &= abs(scalar_mean - 118.0) <= 6.0
    details.append(f"ex4 n=80: upper scalar {scalar_mean:.1f} (ref 118+-6), "
                   f"matrix {matrix_mean:.1f} (ref <=105)")

    elapsed = time.time() - t0
    ok &= elapsed < 1800.0
    report(5, "table reproduction", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_closed_forms():
    p = scalar_polynomial([2.0, -3.0, 1.0])
    g = pellet_gap(p, 1, "one")
    ok = g.status == GAP and abs(g.x1 - 1.0) <= 1e-10 and abs(g.x2 - 2.0) <= 1e-10

    cb = cauchy_bounds(scalar_polynomial([-4.0, 0.0, 1.0]), "one")
    ok &= abs(cb.upper - 2.0) <= 1e-10 and abs(cb.lower - 2.0) <= 1e-10

    sg = squared_gap(scalar_polynomial([4.0, 0.0, -5.0, 0.0, 1.0]), 2, "one")
    ok &= sg.status == GAP and abs(sg.x1 - 1.0) <= 1e-10 and abs(sg.x2 - 2.0) <= 1e-10
    ok &= sg.eig_count_inside == 2
    report(6, "closed-form cases", ok,
           "z^2-3z+2 gap (1,2); z^2-4 R=r=2; z^4-5z^2+4 squared gap (1,2)")


def test_criterion_7_deterministic_output():
    ok = True
    for cfg in (ExperimentConfig("ex1", trials=20, seed=7, m=2, norm_kinds=("one",)),
                ExperimentConfig("ex4", trials=10, seed=7, n=20)):
        first = run_experiment(cfg).to_csv()
        second = run_experiment(cfg).to_csv()
        ok &= first == second
    report(7, "byte-identical reruns", ok, "ex1 and ex4 CSV outputs match across reruns")
