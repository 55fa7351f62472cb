"""The README's Python quick tour runs as written."""

import pathlib
import re

import numpy as np

from pelletbounds import from_json

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_json_schema_example_decodes():
    schema = README.read_text().split("### Polynomial JSON schema", 1)[1]
    block = re.search(r"```json\n(.*?)```", schema, re.S).group(1)
    p = from_json(block)
    assert np.array_equal(p.stack, [[[-2, 1j], [0.5 - 0.5j, -3]], np.eye(2)])
