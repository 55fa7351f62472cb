import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pelletbounds import (
    ExperimentConfig,
    gen_ex1,
    gen_ex2,
    gen_ex3,
    gen_ex4,
    run_experiment,
    trial_rng,
)

from conftest import pelletbounds_env


def test_trial_rng_substreams():
    a = trial_rng(42, 0).uniform(size=4)
    b = trial_rng(42, 0).uniform(size=4)
    c = trial_rng(42, 1).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_ex1_ranges_and_determinism():
    p = gen_ex1(trial_rng(7, 3), m=4)
    q = gen_ex1(trial_rng(7, 3), m=4)
    assert p.n == 10 and p.m == 4
    assert np.array_equal(p.stack[10], np.eye(4))
    for j in range(10):
        assert np.array_equal(p.stack[j], q.stack[j])
        assert np.abs(p.stack[j].real).max() <= 10.0
        assert np.abs(p.stack[j].imag).max() <= 10.0
        # one scale per coefficient: |im/re| pattern is shared, so the
        # largest |re| and |im| entries stay below the shared scale
    r = gen_ex1(trial_rng(7, 4), m=4)
    assert not np.array_equal(p.stack[0], r.stack[0])


def test_gen_ex1_scale_modes_differ():
    a = gen_ex1(trial_rng(1, 0), m=3, scale_per_entry=False)
    b = gen_ex1(trial_rng(1, 0), m=3, scale_per_entry=True)
    assert not np.array_equal(a.stack[0], b.stack[0])


def test_gen_ex2_ranges():
    p = gen_ex2(trial_rng(11, 0), eta=0.0)
    assert p.n == 14 and p.m == 25
    assert np.array_equal(p.stack[13], np.zeros((25, 25)))
    assert np.abs(p.stack[11].real).max() <= 1250.0
    assert np.abs(p.stack[11].real).max() > 100.0
    assert np.abs(p.stack[12].real).max() <= 20000.0
    assert np.abs(p.stack[12].real).max() > 2000.0
    assert np.abs(p.stack[0].real).max() <= 2.0
    q = gen_ex2(trial_rng(11, 0), eta=1.0)
    assert np.abs(q.stack[13].real).max() <= 1.0
    assert np.abs(q.stack[13].real).max() > 0.0
    # the eta channel does not disturb the other coefficients' stream
    assert np.array_equal(p.stack[0], q.stack[0])


def test_gen_ex3_bands():
    p = gen_ex3(trial_rng(5, 9))
    c = [p.stack[j][0, 0].real for j in range(21)]
    assert c[20] == 1.0
    for j in (3, 5, 11, 13):
        assert 1.0 <= abs(c[j]) <= 2.0
    assert 8.0 <= abs(c[4]) <= 10.0
    assert 14.0 <= abs(c[12]) <= 16.0
    for j in (0, 1, 2, 6, 7, 8, 9, 10, 14, 15, 16, 17, 18, 19):
        assert abs(c[j]) <= 1.0


def test_gen_ex3_signs_cover_both_sides():
    signs = set()
    for t in range(40):
        p = gen_ex3(trial_rng(123, t))
        signs.add(p.stack[12][0, 0].real > 0)
    assert signs == {True, False}


def test_gen_ex4_ranges():
    for t in range(20):
        lac = gen_ex4(trial_rng(2, t), n=20)
        assert lac.n == 20
        assert lac.a * lac.alpha != 0
        for v in (lac.a, lac.b, lac.c, lac.alpha, lac.beta, lac.gamma):
            assert abs(v.real) <= 50.0 and v.imag == 0.0
    a = gen_ex4(trial_rng(2, 5), n=20)
    b = gen_ex4(trial_rng(2, 5), n=20)
    assert (a.a, a.gamma) == (b.a, b.gamma)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("ex9")
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig("ex4", n=7)
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig("ex3", seed=2**64)
    with pytest.raises(ValueError):
        ExperimentConfig("ex2", eta=float("nan"))
    with pytest.raises(ValueError):
        ExperimentConfig("ex2", eta=float("inf"))
    assert ExperimentConfig("ex3", seed=2**64 - 1).seed == 2**64 - 1
    cfg = ExperimentConfig("ex3", trials=5)
    assert cfg.resolved_kinds[0].value == "two"


def test_ex1_run_stats_and_tables():
    cfg = ExperimentConfig("ex1", trials=8, seed=3, m=2)
    res = run_experiment(cfg)
    up = res.stats["one"]["upper"]
    lo = res.stats["one"]["lower"]
    # soundness floors/ceilings on the ratio scale
    for v, s in up.items():
        assert s.mean_ratio_percent >= 100.0 * (1 - 1e-9)
    for v, s in lo.items():
        if not math.isnan(s.mean_ratio_percent):
            assert s.mean_ratio_percent <= 100.0 * (1 + 1e-9)
    # best counts partition the trials
    assert sum(s.best_count for s in up.values()) == cfg.trials
    assert sum(lo[v].best_count for v in ("A0invP", "B0invQ", "QR")) == cfg.trials
    names = [t.name for t in res.tables]
    assert names == ["ex1_upper_m2_one", "ex1_lower_m2_one"]


def test_ex1_multiple_norms():
    cfg = ExperimentConfig("ex1", trials=3, seed=3, m=1, norm_kinds=("one", "two"))
    res = run_experiment(cfg)
    assert set(res.stats) == {"one", "two"}


def test_ex3_run_consistency():
    cfg = ExperimentConfig("ex3", trials=25, seed=1)
    res = run_experiment(cfg)
    for k in (4, 12):
        s = res.stats[k]
        assert 0 <= s["p"].gap_total <= cfg.trials
        assert s["p"].gap_only <= s["p"].gap_total
        assert s["BkinvQ"].gap_only <= s["BkinvQ"].gap_total
    assert res.stats["both_k"]["p"] <= min(res.stats[4]["p"].gap_total,
                                           res.stats[12]["p"].gap_total)


def test_ex4_run_consistency():
    cfg = ExperimentConfig("ex4", trials=20, seed=4, n=20)
    res = run_experiment(cfg)
    b = res.stats["bounds"]
    assert b["upper_scalar"].mean_ratio_percent >= 100.0 * (1 - 1e-9)
    assert b["upper_matrix"].mean_ratio_percent >= 100.0 * (1 - 1e-9)
    assert b["lower_scalar"].mean_ratio_percent <= 100.0 * (1 + 1e-9)
    assert 0.0 <= b["pct_upper_better"] <= 100.0
    for k in (2, 18):
        assert res.stats["gaps"][k]["scalar"].gap_total <= cfg.trials


def test_ex2_run_smoke():
    cfg = ExperimentConfig("ex2", trials=2, seed=9, eta=0.25)
    res = run_experiment(cfg)
    plain = res.stats["plain"]
    assert plain["P"].gap_total <= 2
    assert plain["Q"].gap_total <= 2
    assert len(res.tables) == 4


def test_csv_determinism_and_format():
    cfg = ExperimentConfig("ex4", trials=6, seed=12, n=20)
    first = run_experiment(cfg).to_csv()
    second = run_experiment(cfg).to_csv()
    assert first == second
    assert first.startswith("# pelletbounds experiment ex4")
    header = first.splitlines()[2]
    assert header.split(",")[0] == "n"
    other = run_experiment(ExperimentConfig("ex4", trials=6, seed=13, n=20)).to_csv()
    assert other != first


def test_markdown_and_json_outputs():
    cfg = ExperimentConfig("ex1", trials=3, seed=5, m=1)
    res = run_experiment(cfg)
    md = res.to_markdown()
    assert "### ex1_upper_m1_one" in md
    obj = res.to_json_obj()
    assert "ex1_upper_m1_one" in obj["tables"]
    rows = obj["tables"]["ex1_upper_m1_one"]["rows"]
    assert rows[0][0] == "P"


GOLDEN = Path(__file__).parent / "data"


GOLDEN_CASES = [
    ("ex1_m2_trials12_seed3.csv",
     ExperimentConfig("ex1", trials=12, seed=3, m=2, norm_kinds=("one", "inf", "two"))),
    ("ex2_trials2_seed5.csv", ExperimentConfig("ex2", trials=2, seed=5)),
    ("ex3_trials60_seed1.csv", ExperimentConfig("ex3", trials=60, seed=1)),
    ("ex4_n20_trials40_seed4.csv", ExperimentConfig("ex4", trials=40, seed=4, n=20)),
]


@pytest.mark.parametrize("name, cfg", GOLDEN_CASES)
def test_csv_matches_golden(name, cfg):
    # any change to an ensemble, a tally or the number format shows here
    expected = (GOLDEN / name).read_text()
    assert run_experiment(cfg).to_csv() == expected


def test_golden_csvs_with_two_blas_threads():
    # test_csv_matches_golden runs on the one-thread default; here a fresh
    # process with two threads per pool, where ex2's eigensolve is split
    script = ("import json, pickle, sys\n"
              "from pelletbounds import run_experiment\n"
              "print(json.dumps([run_experiment(c).to_csv() for c in pickle.load(sys.stdin.buffer)]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps([cfg for _, cfg in GOLDEN_CASES]),
                          env=pelletbounds_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    for (name, _), csv in zip(GOLDEN_CASES, json.loads(proc.stdout), strict=True):
        assert csv == (GOLDEN / name).read_text(), name
