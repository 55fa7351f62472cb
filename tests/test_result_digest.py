"""Smoke test of ``tests/result_digest.py``, the digest of every public result."""

import re
import subprocess
import sys
from pathlib import Path

import pelletbounds

from conftest import pelletbounds_env

SCRIPT = Path(__file__).resolve().parent / "result_digest.py"


def test_two_fresh_runs_print_the_same_digest():
    src = Path(pelletbounds.__file__).resolve().parents[1]
    outputs = [subprocess.run([sys.executable, str(SCRIPT), "--src", str(src), "--count", "3"],
                              env=pelletbounds_env(), capture_output=True, text=True,
                              timeout=300, check=True).stdout
               for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert re.fullmatch(r"[1-9]\d* results sha256 [0-9a-f]{64}\n", outputs[0])
