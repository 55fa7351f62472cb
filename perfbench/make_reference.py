"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes perfbench/reference.json from the checked-out program:

* sweep: claim and annulus counts of each of the first 2000 criterion-1
  instances at seed 20260810 (every claim oracle-checked while recording;
  the totals must be criterion 1's 19173 claims and 2810 annuli);
* ex2: the SHA-256 of the CSV of each ex2 table (eta=0, EX2_TRIALS trials)
  for seeds 0..EX2_POOL-1;
* cli: exit code and stdout of every query, each run as a fresh process.

Run it only on a commit whose outputs are known to be right: the benchmark
treats these values as the truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pelletbounds as pb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import (EX2_POOL, EX2_TRIALS, QUERIES, REF_SEED, REFERENCE_PATH, Ex2, Sweep,  # noqa: E402
                       child_env, run_query)

SWEEP_INSTANCES = 2000
CRITERION_1_TOTALS = (19173, 2810)


def sweep_counts():
    sweep = Sweep(pb, {"sweep": {"counts": None}})
    counts = []
    for i in range(SWEEP_INSTANCES):
        inst = sweep.draw(i)
        before = (sweep.claims, sweep.annuli)
        errors = sweep.check(inst, sweep.run(inst))
        if errors:
            raise SystemExit("\n".join(errors))
        counts.append([sweep.claims - before[0], sweep.annuli - before[1]])
    if (sweep.claims, sweep.annuli) != CRITERION_1_TOTALS:
        raise SystemExit(f"sweep totals {sweep.claims}/{sweep.annuli} != criterion 1 {CRITERION_1_TOTALS}")
    return counts


def main():
    ex2 = Ex2(pb, {"ex2": {"sha256": {}}})
    digests = {str(s): hashlib.sha256(ex2.run(s).encode()).hexdigest() for s in range(EX2_POOL)}
    queries = []
    for argv in QUERIES:
        code, stdout, _ = run_query(argv, child_env())
        queries.append({"argv": list(argv), "exit": code, "stdout": stdout})
    ref = {
        "sweep": {"seed": REF_SEED, "counts": sweep_counts()},
        "ex2": {"eta": 0.0, "trials": EX2_TRIALS, "sha256": digests},
        "cli": queries,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
