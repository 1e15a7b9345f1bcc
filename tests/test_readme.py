"""The README's command-line and input examples run and succeed.

Each ``traintracks ...`` line of the ``sh`` block under "## Command line"
runs in-process through :func:`traintracks.cli.main`, from a temporary
directory so that ``--json report.json`` lands there.  Each fenced block
under "### Input format" is read by :func:`traintracks.parse_input`.
"""

import re
import shlex
from pathlib import Path

import pytest

from traintracks import parse_input
from traintracks.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("traintracks ")]


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_readme_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_input_examples_parse():
    text = README.read_text(encoding="utf-8")
    start = text.index("### Input format")
    blocks = re.findall(r"```\n(.*?)```", text[start : text.index("\n## ", start)], re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_input(block)
