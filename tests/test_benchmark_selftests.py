"""The benchmark's own tests, run in a fresh process.

``perfbench/`` and ``tests/`` each have a top-level ``conftest`` module, so
one pytest session cannot collect both; this runs ``python -m pytest
perfbench`` from the repository root, as its own session.  Among them,
``test_traced_and_untraced_sweep_give_identical_counts`` needs
``linalg.norm`` to be called through a module binding that the tracer
replaces.  The session compares the benchmark's reference outputs byte for
byte, so the test is marked ``identity``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import pelletbounds_env

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.identity
def test_benchmark_selftests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=pelletbounds_env(), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
