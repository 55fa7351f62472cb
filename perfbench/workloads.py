"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one client.  Its timed unit is a call
(or a subprocess) into the public pelletbounds API, and every unit's output
is checked outside the timed region:

* ``sweep`` -- the criterion-1 soundness sweep, one instance per call.  Many
  tiny matrices and all three norms, so it stresses the norm, LU-transform,
  representation and root-isolation layers; the oracle is a small share.
  The instances are criterion 1's own (seed ``REF_SEED``): the first
  ``SWEEP_POOL`` of them, cycled from a start that the workload seed picks.
  Every claim is re-checked against the oracle's moduli and every
  instance's claim and annulus counts against the recorded reference.
  Its times are adjusted for the host's speed (see hostspeed.py); those of
  ex2 and cli are not, as the calibration chunk does not track a two-thread
  BLAS eigensolve or a fresh process's start, and adjusting them widened
  their spread over seeds.
* ``ex2`` -- ``run_experiment`` on ex2 tables of ``EX2_TRIALS`` trials.  A
  350x350 companion eigensolve dominates, so it is the workload on which
  norm-side changes should not move anything.  Each table's CSV must match
  the recorded SHA-256.
* ``cli`` -- one fresh ``python -m pelletbounds.cli`` process per query,
  the latency a command-line user sees; mostly import time.  Exit code and
  stdout must match the recorded reference.

Functions of the program are looked up on the package at call time, so a
tracer that wraps them sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import random
import resource
import subprocess
import sys
import threading

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")

TOL = 1e-9  # criterion-1 containment slack
REF_SEED = 20260810  # criterion-1 seed; the sweep draws its instances from it
SWEEP_ROUND = 36  # lcm of the m, n and norm cycles: one instance of every shape
# 4 rounds: a 30 s run makes 4-6 whole passes at the seed commit, and at
# least one even if the program became four times as slow
SWEEP_POOL = 4 * SWEEP_ROUND

EX2_TRIALS = 2
EX2_POOL = 64  # ex2 seeds 0..63 have recorded CSV digests

JSON_POLY = "perfbench/data/matpoly.json"
QUERIES = (
    ("gap", "--poly", "1,-111,1110,-1000", "--k", "1"),
    ("gap", "--poly", "2,-3,1,5,-7,4,1,-1", "--k", "3", "--norm", "inf"),
    ("gap", "--input", JSON_POLY, "--k", "2", "--norm", "two", "--precondition"),
    ("gap", "--poly", "1,-2,30,0,0,0,7,1,2", "--k", "2", "--variant", "q", "--norm", "two"),
    ("bounds", "--poly", "1,-6,11,-6", "--variant", "qr", "--norm", "two"),
    ("bounds", "--poly", "2,-3,1,5,-7,4,1,-1", "--variant", "qr", "--norm", "two"),
    ("bounds", "--input", JSON_POLY, "--variant", "qr", "--norm", "two"),
    ("square", "--poly", "1,-6,11,-6"),
    ("square", "--input", JSON_POLY),
    ("embed", "--poly", "2,-1,3,0,5,-4,1"),
    ("embed", "--poly", "1,3,-2,0,0,4,1,-5"),
    ("oracle", "--poly", "2,-3,1,5,-7,4,1,-1"),
    ("oracle", "--input", JSON_POLY),
)
QUERY_TIMEOUT_S = 60.0


def child_env() -> dict:
    """Environment for subprocesses: the checkout's ``src`` first on the
    path, everything else (BLAS threading included) as the caller has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_query(argv, env):
    """One CLI query as a fresh process; returns (exit code, stdout, its peak
    resident set in KiB).  The process is killed after QUERY_TIMEOUT_S."""
    proc = subprocess.Popen([sys.executable, "-m", "pelletbounds.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
    finally:
        timer.cancel()
        timer.join()
        # reap it here rather than in proc.wait(), which would drop its rusage
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def _inapplicable(pb, fn, *args, **kwargs):
    """fn(*args) or None when the theorem does not apply (singular pivot)."""
    try:
        return fn(*args, **kwargs)
    except pb.SingularMatrixError:
        return None


class Workload:
    """``inputs(seed)`` cycles through ``pool`` distinct inputs, so any
    ``pool`` consecutive calls make one whole pass over them."""

    units_per_call = 1
    host_adjusted = False

    def peak_rss_kb(self):
        """Peak resident set of the process that runs the units: this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Sweep(Workload):
    name = "sweep"
    tail_percentile = 95
    pool = SWEEP_POOL
    host_adjusted = True

    def __init__(self, pb, ref):
        """``ref["sweep"]["counts"]`` holds [claims, annuli] per instance; None
        skips that comparison (when recording it)."""
        self.pb = pb
        self.ref_counts = ref["sweep"]["counts"]
        self.claims = self.annuli = 0

    def draw(self, i):
        """Raw coefficient arrays of criterion-1 instance i."""
        rng = self.pb.trial_rng(REF_SEED, i)
        m = (1, 2, 3, 5)[i % 4]
        n = 2 + i % 9
        kind = ("one", "inf", "two")[i % 3]
        scale = 10.0 ** rng.uniform(-1.0, 1.5)
        coeffs = [scale * (rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m)))
                  for _ in range(n + 1)]
        if i % 2 == 0:
            coeffs[-1] = np.eye(m)
        if rng.uniform() < 0.6:
            k_spike = int(rng.integers(1, n))
            coeffs[k_spike] = coeffs[k_spike] + scale * 10.0 ** rng.uniform(1.0, 4.0) * np.eye(m)
        return i, n, kind, coeffs

    def label(self, inst):
        return f"sweep instance={inst[0]} norm={inst[2]}"

    def indices(self, seed):
        """The pool's instances in order from a start the seed picks, wrapping round."""
        start = random.Random(seed).randrange(SWEEP_POOL)
        return ((start + j) % SWEEP_POOL for j in itertools.count())

    def inputs(self, seed):
        return map(self.draw, self.indices(seed))

    def round_inputs(self, seed):
        return [self.draw(i) for i in itertools.islice(self.indices(seed), SWEEP_ROUND)]

    def warmup_inputs(self):
        return [self.draw(i) for i in range(SWEEP_ROUND)]

    def run(self, inst):
        pb = self.pb
        _, n, kind, coeffs = inst
        p = pb.MatrixPolynomial(coeffs)
        rep = pb.eigen_oracle(p)
        radii = [_inapplicable(pb, pb.cauchy_bounds, p, kind, precondition=pre)
                 for pre in (False, True)]
        radii += [_inapplicable(pb, pb.squared_bounds, p, kind, use_reciprocal=rec)
                  for rec in (False, True)]
        radii.append(_inapplicable(pb, pb.squared_bounds, p, kind, precondition_index=0))
        gaps = [_inapplicable(pb, pb.pellet_gap, p, k, kind, precondition=pre)
                for k in range(1, n) for pre in (False, True)]
        if n % 2 == 0 and n >= 4:
            gaps += [_inapplicable(pb, pb.squared_gap, p, k, kind, precondition=pre)
                     for k in range(2, n - 1, 2) for pre in (False, True)]
        return rep.moduli, radii, gaps

    run_in_process = run

    def check(self, inst, out):
        """Re-check every claim against the oracle moduli; returns mismatches."""
        i = inst[0]
        moduli, radii, gaps = out
        where = self.label(inst)
        hi, lo = float(np.max(moduli)), float(np.min(moduli))
        errors, claims, annuli = [], 0, 0
        for cb in filter(None, radii):
            if cb.upper is not None:
                claims += 1
                if not hi <= cb.upper * (1 + TOL):
                    errors.append(f"{where} {cb.variant}: upper {cb.upper} < max modulus {hi}")
            if cb.lower is not None:
                claims += 1
                if not lo >= cb.lower * (1 - TOL):
                    errors.append(f"{where} {cb.variant}: lower {cb.lower} > min modulus {lo}")
        for g in filter(None, gaps):
            if g.status == self.pb.UPPER_ONLY:
                if not hi <= g.x1 * (1 + TOL):
                    errors.append(f"{where} k={g.k} {g.variant}: upper-only {g.x1} < {hi}")
            elif g.status == self.pb.GAP:
                inside = int(np.count_nonzero(moduli <= g.x1 * (1 + TOL)))
                stray = int(np.count_nonzero((moduli > g.x1 * (1 + TOL)) & (moduli < g.x2 * (1 - TOL))))
                if inside != g.eig_count_inside or stray:
                    errors.append(f"{where} k={g.k} {g.variant}: {inside} inside (claimed "
                                  f"{g.eig_count_inside}), {stray} in ({g.x1}, {g.x2})")
            else:
                continue
            claims += 1
            annuli += 1
        if self.ref_counts is not None and [claims, annuli] != self.ref_counts[i]:
            errors.append(f"{where}: {claims} claims / {annuli} annuli, reference "
                          f"{self.ref_counts[i][0]} / {self.ref_counts[i][1]}")
        self.claims += claims
        self.annuli += annuli
        return errors


class Ex2(Workload):
    name = "ex2"
    units_per_call = EX2_TRIALS
    tail_percentile = 50
    pool = EX2_POOL

    def __init__(self, pb, ref):
        self.pb = pb
        self.digests = ref["ex2"]["sha256"]

    def label(self, ex2_seed):
        return f"ex2 seed={ex2_seed} trials={EX2_TRIALS}"

    def order(self, seed):
        return random.Random(seed).sample(range(EX2_POOL), EX2_POOL)

    def inputs(self, seed):
        return itertools.cycle(self.order(seed))

    def round_inputs(self, seed):
        return self.order(seed)[:1]

    def warmup_inputs(self):
        return [0]

    def run(self, ex2_seed):
        cfg = self.pb.ExperimentConfig("ex2", eta=0.0, seed=ex2_seed, trials=EX2_TRIALS)
        return self.pb.run_experiment(cfg).to_csv()

    run_in_process = run

    def check(self, ex2_seed, csv):
        digest = hashlib.sha256(csv.encode()).hexdigest()
        if digest != self.digests[str(ex2_seed)]:
            return [f"{self.label(ex2_seed)}: CSV sha256 {digest} "
                    f"!= reference {self.digests[str(ex2_seed)]}"]
        return []


class Cli(Workload):
    name = "cli"
    tail_percentile = 70  # ten queries beyond it from three whole passes on
    pool = len(QUERIES)

    def __init__(self, pb, ref):
        self.pb = pb
        self.expected = ref["cli"]
        if [tuple(e["argv"]) for e in self.expected] != list(QUERIES):
            raise ValueError("reference.json does not list the benchmark's CLI queries")
        self.env = child_env()
        self.query_rss_kb = 0

    def label(self, q):
        return "cli " + " ".join(QUERIES[q])

    def order(self, seed):
        return random.Random(seed).sample(range(len(QUERIES)), len(QUERIES))

    def inputs(self, seed):
        return itertools.cycle(self.order(seed))

    def round_inputs(self, seed):
        return self.order(seed)

    def warmup_inputs(self):
        return [0]

    def run(self, q):
        code, stdout, rss_kb = run_query(QUERIES[q], self.env)
        self.query_rss_kb = max(self.query_rss_kb, rss_kb)
        return code, stdout

    def peak_rss_kb(self):
        """Peak resident set of the query processes, the CLI's own workers."""
        return self.query_rss_kb

    def run_in_process(self, q):
        """The same query through ``cli.main(argv)`` in this process."""
        cli = importlib.import_module("pelletbounds.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(QUERIES[q]))
        return code, buf.getvalue()

    def check(self, q, out):
        code, stdout = out
        exp = self.expected[q]
        if code != exp["exit"] or stdout != exp["stdout"]:
            return [f"{self.label(q)}: exit {code} stdout {stdout[:200]!r}, "
                    f"reference exit {exp['exit']} stdout {exp['stdout'][:200]!r}"]
        return []


WORKLOADS = {"sweep": Sweep, "ex2": Ex2, "cli": Cli}
