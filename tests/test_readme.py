"""Every `$ cacti ...` example in README.md prints the line after it."""

import pathlib
import shlex

import pytest

from cacti import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
LINES = README.read_text().splitlines()
EXAMPLES = [(line[len("$ cacti "):], LINES[i + 1])
            for i, line in enumerate(LINES) if line.startswith("$ cacti ")]


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected + "\n"
