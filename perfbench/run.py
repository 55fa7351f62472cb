"""pelletbounds benchmark: the sweep, ex2 and cli workloads (see workloads.py).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

It benchmarks the source tree in ``src/`` next to this directory, imported
with BLAS threading left as the caller's environment sets it.  ``all`` runs
each workload in a fresh process of this script, one after the other, and
prints their metrics prefixed by the workload name.

``--trace 0`` measures the end-to-end metrics without any tracing: a short
untimed warm-up that also checks outputs against the recorded reference,
then a closed loop of timed units for ``--seconds``.  The metrics use the
whole passes over the workload's pool of inputs, so every seed times the
same inputs once a run makes a pass.  On sweep, each unit's wall and CPU
time is divided by the host's slowdown around it, measured by calibration
chunks interleaved with the units (hostspeed.py); the unadjusted figures go
to the full record.  Set-up time is the median over fresh processes of the
time from process start until ``import pelletbounds`` returns.  Peak RSS is
that of the process running the units: this one for sweep and ex2, the
largest query process for cli.

``--trace 1`` reports the per-layer metrics.  It repeats one fixed round of
units (36 sweep instances, one ex2 table, one pass over the CLI queries run
in-process through ``cli.main``), alternating an untraced and a traced pass,
until ``--seconds`` have passed.  Counts are per round and repeat exactly;
self times are (low) medians over rounds; ``trace.overhead_ratio`` is the untraced
over the traced time of a round (traced throughput / untraced throughput).

Every unit's output is checked; a mismatch or an unexpected exception
counts as a failed unit and is printed.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record
(environment, tail percentile, every error, the whole traced table) goes to
``.perfbench_out/``.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the checkout has no pelletbounds source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from hostspeed import HostSpeed
from tracer import Tracer, summarize
from workloads import REFERENCE_PATH, ROOT, SRC, WORKLOADS, child_env

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
TAIL_LADDER = (99, 95, 90, 75, 70, 50)
MIN_BEYOND = 10  # a tail percentile needs at least this many samples above it
SHOWN_ERRORS = 50

PER_LAYER = {
    "linalg.norm": ("calls", "self_s"),
    "linalg.left_solve": ("calls", "self_s", "failed"),
    "linalg.inv_norm_inv": ("calls", "self_s", "failed"),
    "linalg.inverse": ("calls", "self_s", "failed"),
    "linalg.as_matrix": ("calls", "self_s"),
    "linalg.eigenvalues": ("calls", "self_s", "dim3_sum"),
    "matpoly.MatrixPolynomial": ("calls", "self_s"),
    "matpoly.monicize": ("calls", "self_s"),
    "matpoly.left_precondition": ("calls", "self_s"),
    "matpoly.reciprocal": ("calls", "self_s"),
    "matpoly.square_repartition": ("calls", "self_s"),
    "matpoly.companion": ("calls", "self_s"),
    "rootloc.positive_roots": ("calls", "self_s", "two_ratio"),
    "bounds.cauchy_bounds": ("calls", "self_s", "failed"),
    "bounds.pellet_gap": ("calls", "self_s", "failed", "gap_ratio"),
    "bounds.squared_bounds": ("calls", "self_s", "failed"),
    "bounds.squared_gap": ("calls", "self_s", "failed", "gap_ratio"),
    "oracle.eigen_oracle": ("calls", "self_s"),
    "experiments.run_experiment": ("calls", "self_s"),
    "experiments.gen_ex2": ("calls", "self_s"),
    "embed.embed_even": ("calls", "self_s"),
    "embed.embed_odd": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "failed": "count", "two_ratio": "ratio",
              "gap_ratio": "ratio", "dim3_sum": "count"}
# outcome predicates behind the *_ratio stats, and the work behind dim3_sum
OUTCOMES = {
    "rootloc.positive_roots": lambda r: r.kind == "two",
    "bounds.pellet_gap": lambda r: r.status == "gap",
    "bounds.squared_gap": lambda r: r.status == "gap",
}
WORK = {"linalg.eigenvalues": lambda a, *args, **kwargs: len(a) ** 3}
E2E_UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
             "cpu_s_per_unit": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names():
    return [f"{fn}.{stat}" for fn, stats in PER_LAYER.items() for stat in stats] + ["trace.overhead_ratio"]


def percentile(ordered, p):
    """Linearly interpolated percentile of an ascending list."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(ordered, preferred):
    """(p, value) at the workload's fixed tail percentile, stepping down the
    ladder when fewer than MIN_BEYOND samples lie beyond it.  The percentile
    is fixed per workload so that a faster program, which collects more
    samples, is not measured at a higher percentile than its parent."""
    for p in (q for q in TAIL_LADDER if q <= preferred):
        if len(ordered) * (100 - p) / 100.0 >= MIN_BEYOND:
            return p, percentile(ordered, p)
    return 50, percentile(ordered, 50)


def cpu_seconds():
    """User+system CPU of this process (all its threads) and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def measure_setup(env):
    """Median time from the start of a fresh process until `import pelletbounds` returns."""
    probe = [sys.executable, "-c", "import time, pelletbounds; print(time.monotonic())"]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        out = subprocess.run(probe, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        if i:  # the first probe only warms the file cache and bytecode
            times.append(float(out.split()[-1]) - start)
    return statistics.median(times)


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # older builds lack the dict form; the record says so
            return "unknown"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": blas(numpy), "openblas_scipy": blas(scipy),
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


class Tally:
    """Wall and CPU time of each call, with units attempted and failed."""

    def __init__(self):
        self.samples, self.cpu, self.attempted, self.failed, self.errors = [], [], 0, 0, []

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_units(wl, inputs, call, tally, until=None, tracer=None, host=None):
    """Call ``call`` on each input, timing the call and checking its output;
    ``host`` calibrates the host's speed between the calls."""
    for x in inputs:
        if until is not None and time.perf_counter() >= until:
            break
        if tracer is not None:
            tracer.unit = tally.attempted
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out, errors = call(x), None
        except Exception:
            out, errors = None, [f"{wl.label(x)}: {traceback.format_exc(limit=-1).strip()}"]
        t1, cpu1 = time.perf_counter(), cpu_seconds()
        if errors is None:
            errors = wl.check(x, out)
        tally.samples.append(t1 - t0)
        tally.cpu.append(cpu1 - cpu0)
        tally.attempted += wl.units_per_call
        if errors:
            tally.failed += wl.units_per_call
            tally.errors += errors
        if host is not None:
            host.keep_pace(t1 - t0)


def time_workload(wl, seed, seconds, setup_s):
    checked = Tally()
    run_units(wl, wl.warmup_inputs(), wl.run, checked)
    timed, host = Tally(), HostSpeed() if wl.host_adjusted else None
    run_units(wl, wl.inputs(seed), wl.run, timed, until=time.perf_counter() + seconds, host=host)
    checked.add(timed)
    # whole passes over the pool only, so that every seed times the same inputs
    calls = len(timed.samples) // wl.pool * wl.pool or len(timed.samples)
    units = calls * wl.units_per_call
    slow = host.slowdowns()[:calls] if host else [1.0] * calls

    def stats(wall, cpu):
        per_unit_ms = sorted(s * 1e3 / wl.units_per_call for s in wall)
        p, tail_ms = tail(per_unit_ms, wl.tail_percentile)
        return p, {"throughput_per_s": units / sum(wall), "latency_ms_p50": percentile(per_unit_ms, 50),
                   "latency_ms_tail": tail_ms, "cpu_s_per_unit": sum(cpu) / units}

    _, raw = stats(timed.samples[:calls], timed.cpu[:calls])
    p, values = stats([s / h for s, h in zip(timed.samples[:calls], slow)],
                      [c / h for c, h in zip(timed.cpu[:calls], slow)])
    mean_slow = statistics.fmean(slow)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = wl.peak_rss_kb() / 1024.0
    notes = {"latency_ms_tail": f"p{p} of {calls} samples",
             "latency_ms_p50": f"{calls} samples",
             "throughput_per_s": f"{units} of {timed.attempted} units timed"
                                 + (f", host slowdown {mean_slow:.3f}" if host else ""),
             "setup_s": f"median of {SETUP_PROBES} fresh processes"}
    return checked, values, notes, {"tail_percentile": p, "samples": calls, "host_slowdown": mean_slow,
                                    "unadjusted": raw, "wall_s": timed.samples, "slowdowns": slow}


def trace_workload(wl, pb, seed, seconds):
    xs = wl.round_inputs(seed)
    checked, rounds, ratios, spans = Tally(), [], [], []
    until = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < until:
        plain, traced = Tally(), Tally()
        tracer = Tracer(outcomes=OUTCOMES, work=WORK)
        traced_first = len(rounds) % 2 == 1  # alternate so order effects cancel in the median
        if not traced_first:
            run_units(wl, xs, wl.run_in_process, plain)
        tracer.install(pb)
        try:
            run_units(wl, xs, wl.run_in_process, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        if traced_first:
            run_units(wl, xs, wl.run_in_process, plain)
        checked.add(plain)
        checked.add(traced)
        rounds.append(summarize(tracer.spans))
        ratios.append(sum(plain.samples) / sum(traced.samples))
        spans = tracer.spans

    def stat(summary, fn, name):
        s = summary.get(fn, {"calls": 0, "self_s": 0.0, "failed": 0, "hits": 0, "work": 0})
        if name.endswith("_ratio"):
            return s["hits"] / s["calls"] if s["calls"] else 0.0
        return s["work"] if name == "dim3_sum" else s[name]

    values = {f"{fn}.{name}": statistics.median_low(stat(r, fn, name) for r in rounds)
              for fn, names in PER_LAYER.items() for name in names}
    values["trace.overhead_ratio"] = statistics.median_low(ratios)
    every = sorted({fn for r in rounds for fn in r})
    table = {fn: {k: statistics.median_low(r.get(fn, {}).get(k, 0) for r in rounds)
                  for k in ("calls", "self_s", "failed", "hits", "work")} for fn in every}
    notes = {"trace.overhead_ratio": f"{len(rounds)} rounds of {len(xs)} calls"}
    return checked, values, notes, {"rounds": len(rounds), "round_calls": len(xs), "layers": table,
                                    "spans": spans}


def write_spans(path, spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "parent", "unit", "start", "end", "failed", "hit", "work"],
                   "names": names,
                   "spans": [[index[s[0]], *s[1:]] for s in spans]}, fh, separators=(",", ":"))


def report(name, args, env, checked, values, notes, extra):
    print(f"== {name}  seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    ratio = checked.failed / checked.attempted
    print(f"checks: {checked.attempted} units attempted, {checked.failed} failed "
          f"(failed_ratio {ratio:g})")
    for err in checked.errors[:SHOWN_ERRORS]:
        print(f"  FAILED {err}")
    if len(checked.errors) > SHOWN_ERRORS:
        print(f"  ... and {len(checked.errors) - SHOWN_ERRORS} more failures")
    for metric, value in values.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<40} {value:.6g} {unit_of(metric)}{note}")
    if "layers" in extra:
        layers = extra["layers"]
        total = sum(s["self_s"] for s in layers.values()) or 1.0
        print("  traced self time per round, largest first:")
        for fn, s in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"    {fn:<34} {s['self_s']:.4g} s  {100 * s['self_s'] / total:5.1f}%  "
                  f"{s['calls']:g} calls")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if "spans" in extra:
        write_spans(os.path.join(OUT_DIR, f"spans-{stem}.json"), extra.pop("spans"))
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": checked.attempted, "failed": checked.failed,
              "failed_ratio": ratio, "errors": checked.errors, "metrics": values, "notes": notes,
              **extra}
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)


def unit_of(metric):
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    return "ratio" if metric == "trace.overhead_ratio" else STAT_UNITS[metric.rsplit(".", 1)[1]]


def run_all(args):
    """Every workload in a fresh process of this script, so that none starts
    with another's memory peak; prints their reports and one combined result."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stdout, end="")
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pelletbounds", "__init__.py")):
        print(f"perfbench: no pelletbounds source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import pelletbounds as pb
    if not os.path.abspath(pb.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported pelletbounds from {pb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)

    wl = WORKLOADS[args.workload](pb, ref)
    if args.trace:
        checked, values, notes, extra = trace_workload(wl, pb, args.seed, args.seconds)
    else:
        checked, values, notes, extra = time_workload(wl, args.seed, args.seconds,
                                                      measure_setup(child_env()))
    report(args.workload, args, environment(), checked, values, notes, extra)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    print(json.dumps({"correct": checked.failed == 0, "attempted": checked.attempted,
                      "failed": checked.failed, "metrics": metrics}))
    return 0 if checked.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
