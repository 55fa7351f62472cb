"""Self-tests of the benchmark.  Run with

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import hostspeed
import run
from tracer import Tracer, summarize
from workloads import ROOT, Cli, Sweep

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_child_spans():
    # outer [0, 20] calls a [2, 5] and b [6, 10]; b raises and outer catches it
    ticks = iter([0.0, 2.0, 5.0, 6.0, 10.0, 20.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.wrap("m.a", lambda: None)
    b = tracer.wrap("m.b", lambda: 1 / 0)

    def body():
        a()
        try:
            b()
        except ZeroDivisionError:
            pass

    tracer.wrap("m.outer", body)()
    stats = summarize(tracer.spans)
    assert stats["m.outer"]["self_s"] == 13.0
    assert stats["m.a"]["self_s"] == 3.0
    assert stats["m.b"]["self_s"] == 4.0
    assert (stats["m.b"]["calls"], stats["m.b"]["failed"], stats["m.outer"]["failed"]) == (1, 1, 0)


def test_host_slowdown_is_the_median_of_the_chunks_around_each_unit():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_CHUNK_S
    host.chunks = [nominal] * 15 + [2 * nominal] * 15  # the host halves its speed mid-run
    host.marks = [0, 15, 30]
    assert hostspeed.WINDOW == 10
    assert host.slowdowns() == [1.0, 1.5, 2.0]


def test_calibration_pays_its_share_of_unit_time():
    host = hostspeed.HostSpeed()
    for _ in range(20):
        host.keep_pace(0.05)
    paid = sum(host.chunks)
    assert host.marks[0] == 0 and len(host.marks) == 20
    assert 0.1 - 1e-12 <= paid < 0.1 + max(host.chunks)


def _per_instance_counts(sweep, xs):
    counts = []
    for x in xs:
        before = (sweep.claims, sweep.annuli)
        assert sweep.check(x, sweep.run(x)) == []
        counts.append((sweep.claims - before[0], sweep.annuli - before[1]))
    return counts


def test_traced_and_untraced_sweep_give_identical_counts(pb, ref):
    sweep = Sweep(pb, ref)
    xs = sweep.round_inputs(5)
    original = pb.cauchy_bounds
    plain = _per_instance_counts(sweep, xs)
    tracer = Tracer()
    tracer.install(pb)
    try:
        assert pb.cauchy_bounds is not original
        traced = _per_instance_counts(sweep, xs)
    finally:
        tracer.uninstall()
    assert pb.cauchy_bounds is original
    assert traced == plain == [tuple(ref["sweep"]["counts"][x[0]]) for x in xs]
    assert summarize(tracer.spans)["linalg.norm"]["calls"] > 0  # reached through bounds' own binding


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    groups = {k: [m["name"] for m in spec[k]] for k in ("workloads", "end_to_end", "per_layer")}
    for names in groups.values():
        assert all(NAME.fullmatch(n) for n in names), names
        assert len(set(names)) == len(names)
    assert groups["workloads"] == list(run.WORKLOADS)
    assert groups["end_to_end"] == list(run.E2E_UNITS)
    assert groups["per_layer"] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for k in ("end_to_end", "per_layer") for m in spec[k])


def test_per_layer_counts_repeat_across_traced_runs(pb, ref):
    for workload in (Sweep, Cli):
        first, second = (run.trace_workload(workload(pb, ref), pb, seed=5, seconds=0) for _ in range(2))
        assert first[0].failed == second[0].failed == 0
        counts = [{k: v for k, v in values.items() if not k.endswith(("self_s", "overhead_ratio"))}
                  for _, values, _, _ in (first, second)]
        assert counts[0] == counts[1]
        assert any(v > 0 for k, v in counts[0].items() if k.endswith(".calls"))


def test_failed_check_is_counted_and_exits_nonzero(ref, tmp_path, monkeypatch, capsys):
    bad = json.loads(json.dumps(ref))
    bad["cli"][0]["stdout"] += "tampered\n"
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "REFERENCE_PATH", str(path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "cli", "--seconds", "0.1"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("FAILED cli" in line for line in out)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_timed_sweep_instance_is_checked_against_reference_counts(pb, ref):
    bad = json.loads(json.dumps(ref))
    sweep = Sweep(pb, bad)
    inst = next(iter(sweep.inputs(seed=7)))
    bad["sweep"]["counts"][inst[0]][0] += 1
    errors = sweep.check(inst, sweep.run(inst))
    assert len(errors) == 1 and "claims" in errors[0]
