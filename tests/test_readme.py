"""The README's Python quick tour and CLI examples run as written."""

import pathlib
import re
import shlex

import numpy as np
import pytest

from pelletbounds import cli, from_json

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, lang):
    """The first ``lang`` code block after ``heading`` in the README."""
    section = README.read_text().split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    block = _block("## Library quick tour", "python")
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_json_schema_example_decodes():
    p = from_json(_block("### Polynomial JSON schema", "json"))
    assert np.array_equal(p.stack, [[[-2, 1j], [0.5 - 0.5j, -3]], np.eye(2)])


def _cli_examples():
    """The commands of the README's CLI block, each as its argv without
    the program name."""
    lines = _block("## CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert all(argv[0] == "pelletbounds" for argv in commands)
    return [argv[1:] for argv in commands]


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[0])
def test_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    # p.json is the JSON schema example; --out writes into the temp dir
    (tmp_path / "p.json").write_text(_block("### Polynomial JSON schema", "json"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
