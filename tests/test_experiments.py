import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pelletbounds import (
    ExperimentConfig,
    MatrixPolynomial,
    NoConvergenceError,
    NormKind,
    gen_ex1,
    gen_ex2,
    gen_ex3,
    gen_ex4,
    run_experiment,
    trial_rng,
)
from pelletbounds import experiments
from pelletbounds.oracle import SoundnessError

from conftest import pelletbounds_env, table_rows


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
    with pytest.raises(ValueError, match="m >= 1"):
        ExperimentConfig("ex1", m=0)
    with pytest.raises(ValueError):
        ExperimentConfig("ex1", seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig("ex3", seed=2**64)
    with pytest.raises(ValueError):
        ExperimentConfig("ex2", eta=float("nan"))
    with pytest.raises(ValueError):
        ExperimentConfig("ex2", eta=float("inf"))
    with pytest.raises(ValueError, match="repeat"):
        ExperimentConfig("ex1", norm_kinds=("one", "two", "one"))
    for example in ("ex2", "ex3", "ex4"):
        with pytest.raises(ValueError, match="one norm kind"):
            ExperimentConfig(example, norm_kinds=("one", "two"))
        assert ExperimentConfig(example, norm_kinds=("inf",)).resolved_kinds == (NormKind.INF,)
    assert ExperimentConfig("ex3", seed=2**64 - 1).seed == 2**64 - 1
    cfg = ExperimentConfig("ex3", trials=5)
    assert cfg.resolved_kinds[0].value == "two"
    assert ExperimentConfig("ex1", m=2, scale_per_entry=True).describe() == (
        "ex1 trials=200 seed=0 norms=one m=2 scale_per_entry=true")


@pytest.mark.parametrize("field", ["trials", "seed", "m", "n"])
def test_config_integers_must_be_integers(field):
    # seed=1.5 ran seed 1's tables under a seed=1.5 header, trials=2.5 was
    # accepted, and m=2.0 failed later inside the generator
    example = {"m": "ex1", "n": "ex4"}.get(field, "ex3")
    for value in (6.0, 6.5, "6"):
        with pytest.raises(TypeError):
            ExperimentConfig(example, **{field: value})
    cfg = ExperimentConfig(example, **{field: np.int64(6)})
    assert getattr(cfg, field) == 6 and type(getattr(cfg, field)) is int


def test_config_scale_per_entry_must_be_a_bool():
    # scale_per_entry="no" was kept as a truthy string: ex1 drew one scale
    # per entry and the header said scale_per_entry=true
    for value in ("no", 1, None, np.bool_(True)):
        with pytest.raises(TypeError, match="scale_per_entry must be a bool"):
            ExperimentConfig("ex1", scale_per_entry=value)
    assert ExperimentConfig("ex1", scale_per_entry=False).describe() == (
        "ex1 trials=200 seed=0 norms=one m=10")


def _patched_instances(monkeypatch, edit):
    """Make every trial's instance ``edit`` of the one it would draw."""
    draw = experiments._trial_instance
    monkeypatch.setattr(experiments, "_trial_instance", lambda cfg, t: edit(draw(cfg, t)))


def test_ex1_tallies_every_lower_variant_as_skipped_when_a0_is_zero(monkeypatch):
    # with A_0 = 0 every lower variant pivots on a singular A_0 (or on Q's
    # B_0, whose top row is zero), so each is skipped and none is best
    def zero_a0(p):
        stack = p.stack.copy()
        stack[0] = 0.0
        return MatrixPolynomial(stack)

    _patched_instances(monkeypatch, zero_a0)
    _force_workers(monkeypatch, 1)
    cfg = ExperimentConfig("ex1", trials=3, seed=2, m=2)
    res = run_experiment(cfg)
    lower = table_rows(res, "ex1_lower_m2_one")
    assert [row["variant"] for row in lower] == ["P", "Q", "A0invP", "B0invQ", "QR"]
    for row in lower:
        assert row["skipped"] == cfg.trials and row["best_count"] == 0, row
        assert math.isnan(row["mean_ratio_percent"])
    upper = table_rows(res, "ex1_upper_m2_one")
    assert sum(row["best_count"] for row in upper) == cfg.trials
    assert all(row["skipped"] == 0 for row in upper)


def test_ex3_tallies_a_zero_pivot_as_skipped(monkeypatch):
    # a_4 = 0: the scalar Pellet query at k = 4 has a singular pivot
    def zero_a4(p):
        stack = p.stack.copy()
        stack[4] = 0.0
        return MatrixPolynomial(stack)

    _patched_instances(monkeypatch, zero_a4)
    _force_workers(monkeypatch, 1)
    cfg = ExperimentConfig("ex3", trials=4, seed=1)
    freq = {row["k"]: row for row in table_rows(run_experiment(cfg), "ex3_gap_frequency")}
    assert freq[4]["p_skipped"] == cfg.trials and freq[4]["p_total"] == 0
    assert freq[12]["p_skipped"] == 0


def test_a_worker_that_dies_raises_child_process_error(monkeypatch):
    # a worker that exits without sending its reports is named with its
    # trials and exit code, and no process is left behind
    cfg = ExperimentConfig("ex3", trials=4, seed=1)
    _force_workers(monkeypatch, 2)
    caller, oracle = os.getpid(), experiments.eigen_oracle

    def dying(p):
        if os.getpid() != caller:
            os._exit(3)
        return oracle(p)

    monkeypatch.setattr(experiments, "eigen_oracle", dying)
    with pytest.raises(ChildProcessError, match=r"trials 2\.\.3 exited with code 3"):
        list(experiments._oracle_trials(cfg))
    assert multiprocessing.active_children() == []


def test_ex1_run_stats_and_tables():
    cfg = ExperimentConfig("ex1", trials=8, seed=3, m=2)
    res = run_experiment(cfg)
    up = {row["variant"]: row for row in table_rows(res, "ex1_upper_m2_one")}
    lo = {row["variant"]: row for row in table_rows(res, "ex1_lower_m2_one")}
    # soundness floors/ceilings on the ratio scale
    for v, s in up.items():
        assert s["mean_ratio_percent"] >= 100.0 * (1 - 1e-9)
    for v, s in lo.items():
        if not math.isnan(s["mean_ratio_percent"]):
            assert s["mean_ratio_percent"] <= 100.0 * (1 + 1e-9)
    # best counts partition the trials
    assert sum(s["best_count"] for s in up.values()) == cfg.trials
    assert sum(lo[v]["best_count"] for v in ("A0invP", "B0invQ", "QR")) == cfg.trials
    names = [t.name for t in res.tables]
    assert names == ["ex1_upper_m2_one", "ex1_lower_m2_one"]


def test_ex1_multiple_norms():
    cfg = ExperimentConfig("ex1", trials=3, seed=3, m=1, norm_kinds=("one", "two"))
    res = run_experiment(cfg)
    assert [t.name for t in res.tables] == ["ex1_upper_m1_one", "ex1_lower_m1_one",
                                            "ex1_upper_m1_two", "ex1_lower_m1_two"]


def test_ex3_run_consistency():
    cfg = ExperimentConfig("ex3", trials=25, seed=1)
    res = run_experiment(cfg)
    freq = {row["k"]: row for row in table_rows(res, "ex3_gap_frequency")}
    for k in (4, 12):
        s = freq[k]
        assert 0 <= s["p_total"] <= cfg.trials
        assert s["p_only"] <= s["p_total"]
        assert s["BkinvQ_only"] <= s["BkinvQ_total"]
    (both_k,) = table_rows(res, "ex3_both_k")
    assert both_k["p_both"] <= min(freq[4]["p_total"], freq[12]["p_total"])


def test_ex4_run_consistency():
    cfg = ExperimentConfig("ex4", trials=20, seed=4, n=20)
    res = run_experiment(cfg)
    (b,) = table_rows(res, "ex4_bounds_n20")
    assert b["upper_scalar_mean"] >= 100.0 * (1 - 1e-9)
    assert b["upper_matrix_mean"] >= 100.0 * (1 - 1e-9)
    assert b["lower_scalar_mean"] <= 100.0 * (1 + 1e-9)
    assert 0.0 <= b["pct_upper_better"] <= 100.0
    freq = {row["k"]: row for row in table_rows(res, "ex4_gap_frequency_n20")}
    for k in (2, 18):
        assert freq[k]["scalar_total"] <= cfg.trials


def test_ex2_run_smoke():
    cfg = ExperimentConfig("ex2", trials=2, seed=9, eta=0.25)
    res = run_experiment(cfg)
    (plain,) = table_rows(res, "ex2_gap_frequency")
    assert plain["P_total"] <= 2
    assert plain["Q_total"] <= 2
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


def _force_workers(monkeypatch, workers):
    """Run the oracles on ``workers`` processes whatever the CPU count."""
    monkeypatch.setattr(experiments, "_worker_count", lambda trials: min(trials, workers))


@pytest.mark.identity
@pytest.mark.parametrize("name, cfg", GOLDEN_CASES)
def test_csv_matches_golden(name, cfg, monkeypatch):
    # any change to an ensemble, a tally or the number format shows here,
    # with the oracles in the calling process and on two processes
    expected = (GOLDEN / name).read_text()
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        assert run_experiment(cfg).to_csv() == expected, f"{workers} worker(s)"


@pytest.mark.identity
def test_golden_csvs_with_two_blas_threads():
    # test_csv_matches_golden runs on the one-thread default; here a fresh
    # process with two threads per pool, where ex2's eigensolve is split,
    # and two worker processes
    script = ("import json, pickle, sys\n"
              "from pelletbounds import experiments, run_experiment\n"
              "experiments._worker_count = lambda trials: min(trials, 2)\n"
              "print(json.dumps([run_experiment(c).to_csv() for c in pickle.load(sys.stdin.buffer)]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps([cfg for _, cfg in GOLDEN_CASES]),
                          env=pelletbounds_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    for (name, _), csv in zip(GOLDEN_CASES, json.loads(proc.stdout), strict=True):
        assert csv == (GOLDEN / name).read_text(), name


def _fail_at(monkeypatch, cfg, trial, exc):
    """Make the oracle raise ``exc`` on the instance of ``trial``."""
    bad = experiments._trial_instance(cfg, trial).stack
    oracle = experiments.eigen_oracle

    def failing(p):
        if np.array_equal(p.stack, bad):
            raise exc
        return oracle(p)

    monkeypatch.setattr(experiments, "eigen_oracle", failing)


def test_worker_error_raises_its_type_and_leaves_no_process(monkeypatch):
    # trials 0-2 are the caller's, 3-5 the worker's; trial 4 fails there
    cfg = ExperimentConfig("ex3", trials=6, seed=1)
    _force_workers(monkeypatch, 2)
    _fail_at(monkeypatch, cfg, 4, NoConvergenceError("no convergence at trial 4"))
    with pytest.raises(NoConvergenceError, match="trial 4"):
        run_experiment(cfg)
    assert multiprocessing.active_children() == []


def test_caller_error_stops_the_workers(monkeypatch):
    # the caller's first tally fails while the worker is still solving
    cfg = ExperimentConfig("ex2", trials=6, seed=1)
    _force_workers(monkeypatch, 2)

    def unsound(rep, gap, label):
        raise SoundnessError(label)

    monkeypatch.setattr(experiments, "check_gap", unsound)
    with pytest.raises(SoundnessError, match="ex2 trial 0"):
        run_experiment(cfg)
    assert multiprocessing.active_children() == []


def test_error_order_matches_one_process(monkeypatch):
    # a worker trial that fails its oracle after a trial that fails its
    # tally: both paths raise the tally's error, as trials come in order
    cfg = ExperimentConfig("ex3", trials=4, seed=1)
    _fail_at(monkeypatch, cfg, 3, NoConvergenceError("trial 3"))
    check_gap = experiments.check_gap

    def unsound_at_2(rep, gap, label):
        if label.startswith("ex3 trial 2 "):
            raise SoundnessError(label)
        return check_gap(rep, gap, label)

    monkeypatch.setattr(experiments, "check_gap", unsound_at_2)
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        with pytest.raises(SoundnessError, match="ex3 trial 2"):
            run_experiment(cfg)
    assert multiprocessing.active_children() == []


def _run_small_ex3():
    return run_experiment(ExperimentConfig("ex3", trials=4, seed=1)).to_csv()


def test_runs_inside_a_daemonic_worker():
    # a pool worker may not start processes, so its run stays in one process
    expected = _run_small_ex3()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_run_small_ex3).get(timeout=120) == expected


def test_import_starts_no_process_machinery():
    script = ("import sys, pelletbounds\n"
              "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
              " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=pelletbounds_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
