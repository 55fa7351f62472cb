"""Seeded random ensembles and table emission for the four benchmark studies.

Each example draws a family of random (matrix) polynomials and computes a
set of competing bound variants per trial, with one oracle eigensolve per
trial.  Two tallies verify every reported bound or gap with the oracle's
containment checks (a violation raises ``SoundnessError`` and aborts the
run) and aggregate it: ``_BoundRatios`` keeps radius-to-truth ratios, skip
and best-bound counts (ex1, ex4), and ``_GapPair`` keeps the gap
frequencies, width ratios and every-k counts of a pair of gap variants
(ex2, ex3, ex4).  The tallies fill the rows of the run's tables directly,
and an ``ExperimentResult`` is the config and those tables: the tables are
the run's one record.  The studies:

* ex1 -- degree-10 polynomials with random m x m coefficients; Cauchy upper
  bounds from P vs its companion-squared Q, and lower bounds from P, Q, the
  preconditioned A_0^-1 P and B_0^-1 Q, and the reciprocal-squared Q_R.
* ex2 -- degree-14, 25 x 25 polynomials with two dominant coefficients;
  Pellet gap detection at k=12 for P vs Q, plain and preconditioned, as the
  top coefficient's magnitude eta varies.
* ex3 -- random scalar degree-20 polynomials; scalar Pellet at k=4,12 vs the
  preconditioned squared variant.
* ex4 -- random lacunary polynomials of degree n; scalar Cauchy/Pellet vs the
  2x2 matrix embedding, at k=2 and k=n-2.

The table cells are Python ints, strings and unrounded floats, NaN where a
mean, standard deviation or percentage is undefined (no values, or a zero
denominator).  Only the printers round: CSV and markdown print floats to six
significant digits and NaN as ``nan``, and JSON prints NaN as ``null``.
ex1 may compare several norm kinds, one table pair each; ex2--ex4 take one.
A norm kind may not repeat.

Per-trial randomness comes from counter-based Philox streams keyed by
(seed, trial index), so runs are reproducible and trials independent.
Identical (seed, config) produces byte-identical CSV output.

The oracle eigensolves, most of a trial's time, run on one process per CPU
in the process's affinity mask (at most one per trial): the calling process
solves the first contiguous chunk of trials and forked workers the others.
A worker draws its trials' instances from (seed, trial) itself and returns
only the eigenvalue reports; the bounds, the oracle checks and the tallies
stay in the calling process, in trial order, so the output is byte-identical
for any worker count.  ``taskset`` limits the workers; there is no setting.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import GAP, cauchy_bounds, pellet_gap, squared_bounds, squared_gap
from .embed import LacunaryPolynomial, embed_even, to_scalar
from .linalg import NormKind, SingularMatrixError
from .matpoly import MatrixPolynomial, scalar_polynomial
from .oracle import EigenReport, check_gap, check_lower, check_upper, eigen_oracle

EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4")

_DEFAULT_KINDS = {
    "ex1": (NormKind.ONE,),
    "ex2": (NormKind.ONE,),
    "ex3": (NormKind.TWO,),
    "ex4": (NormKind.TWO,),
}

_EX1_DEGREE = 10
_EX2_DEGREE = 14
_EX2_BLOCK = 25
_EX2_K = 12
_EX3_DEGREE = 20
_EX3_KS = (4, 12)


@dataclass(frozen=True)
class ExperimentConfig:
    """Which study to run and at what scale.

    ``norm_kinds`` left empty selects the norms the reference tables use
    (1-norm for ex1/ex2, 2-norm for ex3/ex4); ex1 takes any distinct kinds,
    ex2-ex4 one.  ``m`` applies to ex1, ``eta`` to ex2, ``n`` to ex4.
    ``scale_per_entry`` switches ex1 to drawing one scale factor per
    coefficient entry instead of one per coefficient matrix.
    """

    example_id: str
    trials: int = 200
    seed: int = 0
    norm_kinds: tuple = ()
    m: int = 10
    eta: float = 0.0
    n: int = 80
    scale_per_entry: bool = False

    def __post_init__(self):
        if self.example_id not in EXAMPLE_IDS:
            raise ValueError(f"unknown example {self.example_id!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        if self.example_id == "ex1" and self.m < 1:
            raise ValueError("ex1 needs m >= 1")
        if self.example_id == "ex2" and not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("ex2 needs a finite eta >= 0")
        if self.example_id == "ex4" and (self.n < 6 or self.n % 2 != 0):
            raise ValueError("ex4 needs an even degree n >= 6")
        kinds = tuple(NormKind.coerce(k) for k in self.norm_kinds)
        if len(set(kinds)) < len(kinds):
            raise ValueError("a norm kind may not repeat")
        if self.example_id != "ex1" and len(kinds) > 1:
            raise ValueError(f"{self.example_id} takes one norm kind")
        object.__setattr__(self, "norm_kinds", kinds)

    @property
    def resolved_kinds(self) -> tuple:
        return self.norm_kinds or _DEFAULT_KINDS[self.example_id]

    def describe(self) -> str:
        extras = {"ex1": f"m={self.m}", "ex2": f"eta={self.eta:.6g}",
                  "ex3": "", "ex4": f"n={self.n}"}[self.example_id]
        kinds = ",".join(k.value for k in self.resolved_kinds)
        parts = [self.example_id, f"trials={self.trials}", f"seed={self.seed}", f"norms={kinds}"]
        if extras:
            parts.append(extras)
        if self.example_id == "ex1" and self.scale_per_entry:
            parts.append("scale_per_entry=true")
        return " ".join(parts)


@dataclass
class ResultTable:
    name: str
    columns: list
    rows: list


@dataclass
class ExperimentResult:
    """A run's record: its config and its tables (see the module docstring)."""

    config: ExperimentConfig
    tables: list

    def to_csv(self) -> str:
        lines = [f"# pelletbounds experiment {self.config.describe()}"]
        for table in self.tables:
            lines.append(f"# table: {table.name}")
            lines.append(",".join(table.columns))
            for row in table.rows:
                lines.append(",".join(_fmt(v) for v in row))
            lines.append("")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"Experiment {self.config.describe()}", ""]
        for table in self.tables:
            lines.append(f"### {table.name}")
            lines.append("| " + " | ".join(table.columns) + " |")
            lines.append("|" + "|".join("---" for _ in table.columns) + "|")
            for row in table.rows:
                lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
            lines.append("")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.describe(),
            "tables": {t.name: {"columns": t.columns,
                                "rows": [[None if isinstance(v, float) and math.isnan(v) else v
                                          for v in row] for row in t.rows]}
                       for t in self.tables},
        }


def _fmt(v) -> str:
    return format(v, ".6g") if isinstance(v, float) else str(v)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial: Philox keyed by (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# instance generators

def gen_ex1(rng: np.random.Generator, m: int, scale_per_entry: bool = False) -> MatrixPolynomial:
    """Monic degree-10 polynomial; each lower coefficient has entries with
    real and imaginary parts uniform in [-1, 1], the whole matrix scaled by
    one uniform [0, 10] draw (or one per entry)."""
    coeffs = []
    for _ in range(_EX1_DEGREE):
        re = rng.uniform(-1.0, 1.0, (m, m))
        im = rng.uniform(-1.0, 1.0, (m, m))
        scale = rng.uniform(0.0, 10.0, (m, m)) if scale_per_entry else rng.uniform(0.0, 10.0)
        coeffs.append(scale * (re + 1j * im))
    coeffs.append(np.eye(m))
    return MatrixPolynomial(coeffs)


def gen_ex2(rng: np.random.Generator, eta: float) -> MatrixPolynomial:
    """Monic degree-14 polynomial with 25 x 25 coefficients: entries uniform
    in +-50^2/2 for j=11, +-200^2/2 for j=12, +-eta for j=13, +-2 otherwise."""
    m = _EX2_BLOCK
    coeffs = []
    for j in range(_EX2_DEGREE):
        half = {11: 50.0**2 / 2, 12: 200.0**2 / 2, 13: float(eta)}.get(j, 2.0)
        re = rng.uniform(-half, half, (m, m))
        im = rng.uniform(-half, half, (m, m))
        coeffs.append(re + 1j * im)
    coeffs.append(np.eye(m))
    return MatrixPolynomial(coeffs)


def gen_ex3(rng: np.random.Generator) -> MatrixPolynomial:
    """Monic real scalar degree-20 polynomial with two dominant coefficient
    pairs: |a_4| in [8,10], |a_12| in [14,16], |a_j| in [1,2] for
    j=3,5,11,13, all other coefficients uniform in [-1,1]."""
    coeffs = []
    for j in range(_EX3_DEGREE):
        if j in (3, 5, 11, 13):
            lo, hi = 1.0, 2.0
        elif j == 4:
            lo, hi = 8.0, 10.0
        elif j == 12:
            lo, hi = 14.0, 16.0
        else:
            coeffs.append(rng.uniform(-1.0, 1.0))
            continue
        mag = rng.uniform(lo, hi)
        sign = -1.0 if rng.uniform(0.0, 1.0) < 0.5 else 1.0
        coeffs.append(sign * mag)
    coeffs.append(1.0)
    return scalar_polynomial(coeffs)


def gen_ex4(rng: np.random.Generator, n: int) -> LacunaryPolynomial:
    """Lacunary polynomial of degree n with six real coefficients uniform in
    [-50, 50]; redraws the (measure-zero) case a * alpha == 0."""
    while True:
        vals = rng.uniform(-50.0, 50.0, 6)
        if vals[0] * vals[3] != 0.0:
            return LacunaryPolynomial(n, *vals)


# ---------------------------------------------------------------------------
# trial instances and their oracle reports, computed on one process per CPU

def _trial_instance(cfg: ExperimentConfig, t: int):
    """Trial t's instance, drawn from its own (seed, trial) stream."""
    rng = trial_rng(cfg.seed, t)
    if cfg.example_id == "ex1":
        return gen_ex1(rng, cfg.m, cfg.scale_per_entry)
    if cfg.example_id == "ex2":
        return gen_ex2(rng, cfg.eta)
    if cfg.example_id == "ex3":
        return gen_ex3(rng)
    return gen_ex4(rng, cfg.n)


def _trial_oracle(instance) -> EigenReport:
    """The eigenvalues of an instance: a lacunary one through its scalar form."""
    return eigen_oracle(to_scalar(instance) if isinstance(instance, LacunaryPolynomial)
                        else instance)


def _worker_count(trials: int) -> int:
    """Processes that share a run's oracles: one per CPU this process may run
    on, at most one per trial, and one alone where it cannot fork workers."""
    multiprocessing = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (multiprocessing and multiprocessing.current_process().daemon):
        return 1  # a daemonic multiprocessing worker may not start processes
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(trials, cpus or 1)


def _oracle_chunk(conn, cfg: ExperimentConfig, start: int, stop: int) -> None:
    """Worker body: send the reports of trials start..stop-1 in order, up to
    the first whose oracle raises, with that exception or None."""
    reports, error = [], None
    try:
        for t in range(start, stop):
            reports.append(_trial_oracle(_trial_instance(cfg, t)))
    except Exception as exc:  # the caller raises it after tallying the trials before it
        error = exc
    with conn:
        conn.send((reports, error))


def _oracle_trials(cfg: ExperimentConfig):
    """Yield (instance, EigenReport) for every trial, in trial order.

    With w = ``_worker_count`` processes, the trials split into w contiguous
    chunks: the caller solves the first itself while w - 1 forked workers
    solve the others, and it redraws each worker trial's instance.  An
    exception from a trial's oracle is raised after every earlier trial has
    been yielded, as a run in one process raises it.  Every worker is
    joined, or terminated and joined, before the generator finishes or is
    closed.
    """
    w = _worker_count(cfg.trials)
    cuts = [cfg.trials * i // w for i in range(w + 1)]
    workers = []
    try:
        if w > 1:
            # fork, not spawn: a spawned worker pays a fresh import of numpy
            # and scipy, longer than an ex2 trial.  OpenBLAS quiesces its
            # thread pool around fork, and a worker runs only numpy/LAPACK.
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            for start, stop in zip(cuts[1:-1], cuts[2:]):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_oracle_chunk, args=(send, cfg, start, stop), daemon=True)
                workers.append((proc, recv, start, stop))
                proc.start()
                send.close()
        for t in range(cuts[1]):
            instance = _trial_instance(cfg, t)
            yield instance, _trial_oracle(instance)
        for proc, recv, start, stop in workers:
            try:
                reports, error = recv.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(f"oracle worker for trials {start}..{stop - 1} exited "
                                        f"with code {proc.exitcode}") from None
            proc.join()
            for t, rep in enumerate(reports, start):
                yield _trial_instance(cfg, t), rep
            if error is not None:
                raise error
    finally:
        for proc, recv, _, _ in workers:
            if proc.is_alive():
                proc.terminate()
            if proc.pid is not None:
                proc.join()
            recv.close()


# ---------------------------------------------------------------------------
# tallies: every value is checked against the oracle before it is counted

def _mean_std(values):
    if not values:
        return math.nan, math.nan
    if len(values) == 1:
        return float(values[0]), 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1))


def _pct(count: int, denom: int) -> float:
    return 100.0 * count / denom if denom else math.nan


def _best_index(values, names, maximize: bool):
    """Index of the winning variant; ties keep the first-listed one."""
    best = None
    for i, v in enumerate(values):
        if v is None:
            continue
        if best is None or (v > values[best] if maximize else v < values[best]):
            best = i
    return None if best is None else names[best]


class _BoundRatios:
    """Upper or lower radii of named variants over trials.

    Each radius is kept as a percent of the true extreme modulus; an absent
    one (singular coefficient) counts as skipped.  Per trial, the tightest
    of the ``best_of`` variants wins, ties toward the first listed.
    """

    def __init__(self, upper: bool, names, best_of=()):
        self.upper = upper
        self.best_of = best_of
        self.ratios = {v: [] for v in names}
        self.skipped = dict.fromkeys(names, 0)
        self.best = dict.fromkeys(names, 0)

    def add(self, rep: EigenReport, values: dict, label: str) -> None:
        for name, ratios in self.ratios.items():
            value = values[name]
            if value is None:
                self.skipped[name] += 1
            elif self.upper:
                check_upper(rep, value, f"{label} upper {name}")
                ratios.append(100.0 * value / rep.max_modulus)
            else:
                check_lower(rep, value, f"{label} lower {name}")
                ratios.append(100.0 * value / rep.min_modulus)
        win = _best_index([values[v] for v in self.best_of], self.best_of, maximize=not self.upper)
        if win is not None:
            self.best[win] += 1

    def rows(self) -> list:
        """[variant, mean, std, best_count, skipped] per variant; mean and std
        of the ratios in percent."""
        return [[v, *_mean_std(ratios), self.best[v], self.skipped[v]]
                for v, ratios in self.ratios.items()]


class _GapPair:
    """Pellet gaps of two competing variants, a and b, over trials at each k.

    Per k: each side's gap widths as a percent of the true gap, the gaps
    only one side found, singular-pivot skips, and how often b's gap is the
    wider when both found one.  Across all k: the trials in which a side
    found a gap at every k, and those in which the other side did not.
    ``m`` is the block size, so a gap at k encloses k*m eigenvalues.
    ``wider`` names the ratio table's b-wider share column, by default
    ``pct_gap_<b>_gt_<a>``.
    """

    def __init__(self, names, ks, m: int = 1, wider: str | None = None):
        a, b = names
        self.names, self.ks, self.m = names, ks, m
        self.wider = wider or f"pct_gap_{b}_gt_{a}"
        self.widths = {(side, k): [] for side in (0, 1) for k in ks}
        self.only = dict.fromkeys(self.widths, 0)
        self.skipped = dict.fromkeys(self.widths, 0)
        self.both = dict.fromkeys(ks, 0)
        self.b_wider = dict.fromkeys(ks, 0)
        self.every_k = [0, 0]
        self.every_k_only = [0, 0]

    def add(self, rep: EigenReport, gap_fns, label: str) -> None:
        """Tally one trial; ``gap_fns[side](k)`` returns that side's GapResult
        or raises SingularMatrixError when its pivot is singular."""
        found = set()
        for k in self.ks:
            actual = rep.moduli[k * self.m] - rep.moduli[k * self.m - 1]
            width = {}
            for side, fn in enumerate(gap_fns):
                try:
                    gap = fn(k)
                except SingularMatrixError:
                    self.skipped[side, k] += 1
                    continue
                check_gap(rep, gap, f"{label} k={k} {self.names[side]}")
                if gap.status == GAP:
                    width[side] = gap.x2 - gap.x1
                    self.widths[side, k].append(100.0 * width[side] / actual)
                    found.add((side, k))
            if len(width) == 1:
                (side,) = width
                self.only[side, k] += 1
            elif len(width) == 2:
                self.both[k] += 1
                if width[1] > width[0]:
                    self.b_wider[k] += 1
        every = [all((side, k) in found for k in self.ks) for side in (0, 1)]
        for side in (0, 1):
            if every[side]:
                self.every_k[side] += 1
                if not every[1 - side]:
                    self.every_k_only[side] += 1

    def tables(self, freq_name: str, ratio_name: str, key: str, rows) -> list:
        """Frequency and ratio tables with one row per (key value, k) in ``rows``."""
        a, b = self.names
        freq = ResultTable(freq_name, [key] + [f"{v}_{col}" for col in ("total", "only", "skipped")
                                               for v in (a, b)], [])
        ratio = ResultTable(ratio_name, [key, f"{a}_mean", f"{a}_std", f"{b}_mean", f"{b}_std",
                                         self.wider], [])
        for value, k in rows:
            freq.rows.append([value] + [len(self.widths[side, k]) for side in (0, 1)]
                             + [tally[side, k] for tally in (self.only, self.skipped)
                                for side in (0, 1)])
            ratio.rows.append([value, *_mean_std(self.widths[0, k]), *_mean_std(self.widths[1, k]),
                               _pct(self.b_wider[k], self.both[k])])
        return [freq, ratio]

    def every_k_table(self, name: str) -> ResultTable:
        a, b = self.names
        return ResultTable(name, [f"{a}_both", f"{b}_both", f"{a}_both_only", f"{b}_both_only"],
                           [[*self.every_k, *self.every_k_only]])


# ---------------------------------------------------------------------------
# ex1: Cauchy upper/lower bound comparison

_EX1_UPPER = ("P", "Q")
_EX1_LOWER = ("P", "Q", "A0invP", "B0invQ", "QR")
# P and Q are dominated by their preconditioned versions, so the best-bound
# tally runs over the undominated three, ties toward the first listed.
_EX1_LOWER_BEST = ("A0invP", "B0invQ", "QR")


def _lower_or_none(bound_fn, *args, **kwargs):
    """Lower radius of a variant whose transform needs a nonsingular pivot."""
    try:
        return bound_fn(*args, **kwargs).lower
    except SingularMatrixError:
        return None


def _run_ex1(cfg: ExperimentConfig) -> ExperimentResult:
    kinds = cfg.resolved_kinds
    tallies = {kind: {"upper": _BoundRatios(True, _EX1_UPPER, _EX1_UPPER),
                      "lower": _BoundRatios(False, _EX1_LOWER, _EX1_LOWER_BEST)}
               for kind in kinds}

    for t, (p, rep) in enumerate(_oracle_trials(cfg)):
        for kind in kinds:
            cb = cauchy_bounds(p, kind)
            sq = squared_bounds(p, kind)
            lowers = {"P": cb.lower, "Q": sq.lower,
                      "A0invP": _lower_or_none(cauchy_bounds, p, kind, precondition=True),
                      "B0invQ": _lower_or_none(squared_bounds, p, kind, precondition_index=0),
                      "QR": _lower_or_none(squared_bounds, p, kind, use_reciprocal=True)}
            label = f"ex1 trial {t} {kind.value}"
            tallies[kind]["upper"].add(rep, {"P": cb.upper, "Q": sq.upper}, label)
            tallies[kind]["lower"].add(rep, lowers, label)

    columns = ["variant", "mean_ratio_percent", "std_percent", "best_count", "skipped"]
    return ExperimentResult(cfg, [ResultTable(f"ex1_{side}_m{cfg.m}_{kind.value}", columns,
                                              tally.rows())
                                  for kind in kinds for side, tally in tallies[kind].items()])


# ---------------------------------------------------------------------------
# ex2: Pellet gap detection, plain and preconditioned pairs

def _run_ex2(cfg: ExperimentConfig) -> ExperimentResult:
    kind = cfg.resolved_kinds[0]
    # keyed by table-name suffix
    pairs = {"": (False, _GapPair(("P", "Q"), (_EX2_K,), m=_EX2_BLOCK)),
             "_preconditioned": (True, _GapPair(("AkinvP", "BkinvQ"), (_EX2_K,), m=_EX2_BLOCK))}

    for t, (p, rep) in enumerate(_oracle_trials(cfg)):
        for pre, gaps in pairs.values():
            gaps.add(rep, (lambda k: pellet_gap(p, k, kind, precondition=pre),
                           lambda k: squared_gap(p, k, kind, precondition=pre)), f"ex2 trial {t}")

    return ExperimentResult(cfg, [table for suffix, (_, gaps) in pairs.items()
                                  for table in gaps.tables(f"ex2_gap_frequency{suffix}",
                                                           f"ex2_gap_ratio{suffix}", "eta",
                                                           [(cfg.eta, _EX2_K)])])


# ---------------------------------------------------------------------------
# ex3: scalar Pellet vs preconditioned squared variant at k=4, 12

def _run_ex3(cfg: ExperimentConfig) -> ExperimentResult:
    kind = cfg.resolved_kinds[0]
    gaps = _GapPair(("p", "BkinvQ"), _EX3_KS)

    for t, (p, rep) in enumerate(_oracle_trials(cfg)):
        gaps.add(rep, (lambda k: pellet_gap(p, k, kind),
                       lambda k: squared_gap(p, k, kind, precondition=True)), f"ex3 trial {t}")

    tables = gaps.tables("ex3_gap_frequency", "ex3_gap_ratio", "k", [(k, k) for k in _EX3_KS])
    return ExperimentResult(cfg, tables + [gaps.every_k_table("ex3_both_k")])


# ---------------------------------------------------------------------------
# ex4: scalar vs lacunary-embedding bounds and gaps

_EX4_BOUNDS = ("upper_scalar", "upper_matrix", "lower_scalar", "lower_matrix")
_EX4_BETTER = ("pct_upper_better", "pct_lower_better", "pct_both_better")


def _run_ex4(cfg: ExperimentConfig) -> ExperimentResult:
    kind = cfg.resolved_kinds[0]
    n = cfg.n
    ks = (2, n - 2)
    upper = _BoundRatios(True, _EX4_BOUNDS[:2])
    lower = _BoundRatios(False, _EX4_BOUNDS[2:])
    gaps = _GapPair(("scalar", "matrix"), ks, wider="pct_matrix_wider")
    # trials with all four bounds, and those whose matrix upper, lower, both are tighter
    both_present, better = 0, [0, 0, 0]

    for t, (lac, rep) in enumerate(_oracle_trials(cfg)):
        ps, qe = to_scalar(lac), embed_even(lac)
        su, mu = cauchy_bounds(ps, kind), cauchy_bounds(qe, kind)
        label = f"ex4 trial {t}"
        upper.add(rep, {"upper_scalar": su.upper, "upper_matrix": mu.upper}, label)
        lower.add(rep, {"lower_scalar": su.lower, "lower_matrix": mu.lower}, label)
        if None not in (su.upper, mu.upper, su.lower, mu.lower):
            both_present += 1
            up, lo = mu.upper < su.upper, mu.lower > su.lower
            better = [count + hit for count, hit in zip(better, (up, lo, up and lo))]
        gaps.add(rep, (lambda k: pellet_gap(ps, k, kind),
                       lambda k: pellet_gap(qe, k // 2, kind)), label)

    # the bound rows come in _EX4_BOUNDS order; each gives its mean and std
    columns = ["n"] + [f"{v}_{col}" for v in _EX4_BOUNDS for col in ("mean", "std")]
    row = [n] + [x for bound in upper.rows() + lower.rows() for x in bound[1:3]]
    bounds = ResultTable(f"ex4_bounds_n{n}", columns + list(_EX4_BETTER),
                         [row + [_pct(count, both_present) for count in better]])
    return ExperimentResult(cfg, [bounds, *gaps.tables(f"ex4_gap_frequency_n{n}",
                                                       f"ex4_gap_ratio_n{n}", "k",
                                                       [(k, k) for k in ks]),
                                  gaps.every_k_table(f"ex4_both_k_n{n}")])


_RUNNERS = {"ex1": _run_ex1, "ex2": _run_ex2, "ex3": _run_ex3, "ex4": _run_ex4}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one configured study; every reported bound is oracle-checked."""
    return _RUNNERS[cfg.example_id](cfg)
