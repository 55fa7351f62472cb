"""Smoke tests of ``tests/result_digest.py``, the digest of every public result."""

import re
import subprocess
import sys
from pathlib import Path

import pelletbounds

from conftest import pelletbounds_env

SCRIPT = Path(__file__).resolve().parent / "result_digest.py"
SRC = Path(pelletbounds.__file__).resolve().parents[1]


def _digest(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), "--src", str(SRC), "--count", "3", *argv],
                          env=pelletbounds_env(), capture_output=True, text=True,
                          timeout=300, check=True).stdout


def test_two_fresh_runs_print_the_same_digest():
    outputs = [_digest() for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert re.fullmatch(r"[1-9]\d* results sha256 [0-9a-f]{64}\n", outputs[0])


def test_a_checkout_against_itself_differs_nowhere():
    total = _digest().split()[0]
    assert _digest("--against", str(SRC)) == f"{total} results, 0 differ\n"


def test_float_moves_are_told_apart_from_other_changes():
    import json

    import numpy as np

    import result_digest

    def line(label, result):
        return json.dumps([label, result]) + "\n"

    stack = np.array([[[1.0 + 2.0j]], [[3.0 - 0.5j]]])
    moved = stack.copy()
    moved[1, 0, 0] = np.nextafter(3.0, 4.0) - 0.5j
    pairs = [
        (line("a cauchy_bounds", "CauchyBounds(upper=2.5, lower=None)"),) * 2,
        (line("a cauchy_bounds", "CauchyBounds(upper=60.16735669844254, lower=0.5)"),
         line("a cauchy_bounds", "CauchyBounds(upper=60.16735669844259, lower=0.5)")),
        (line("a pellet_gap k=1", "GapResult(k=1, status='gap', x1=1.0, x2=2.0, marginal=False)"),
         line("a pellet_gap k=1", "GapResult(k=1, status='nogap', x1=None, x2=None, "
                                  "marginal=False)")),
        (line("a stack", f"(2, 1, 1) {stack.tobytes().hex()}"),
         line("a stack", f"(2, 1, 1) {moved.tobytes().hex()}")),
        (line("b pellet_gap k=2", "GapResult(k=2, status='gap', x1=1.0, x2=2.0)"),
         line("b pellet_gap k=2", "GapResult(k=3, status='gap', x1=1.0, x2=2.0)")),
    ]
    lines = result_digest._report(pairs)
    assert lines[:3] == [
        "5 results, 4 differ",
        "2 differ only in float digits, 2 in any other way",
        "largest relative float move 8.27e-16: a cauchy_bounds",
    ]
    # the first of those that differ in any other way: the status change
    assert lines[3] == "#2 a pellet_gap k=1"
    assert lines[6] == "#4 b pellet_gap k=2"
    assert result_digest._report(pairs[:1]) == ["1 results, 0 differ"]
