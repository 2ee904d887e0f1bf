"""The README's Python API example runs as written, and its commands parse."""

import re
import shlex
from pathlib import Path

import pytest

from kmajority.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
SUBCOMMANDS = {"meanfield", "critical", "simulate", "compare", "sweep", "graphgen"}


def _readme_commands():
    """Every ``kmajority`` command in the README's bash blocks, and every
    inline code span that names a subcommand and gives a flag a value
    (``simulate --q`` names a flag; it is not a command)."""
    text = README.read_text()
    commands = []
    for lang, body in FENCE.findall(text):
        if lang == "bash":
            for line in body.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["kmajority"]:
                    commands.append(words[1:])
    for span in re.findall(r"`([^`]+)`", FENCE.sub("", text)):
        words = span.split()
        if words[:1] == ["kmajority"]:
            words = words[1:]
        if words[:1] and words[0] in SUBCOMMANDS and any(
                not word.startswith("-") for word in words[1:]):
            commands.append(words)
    return commands


def test_python_example_runs(capsys):
    blocks = [body for lang, body in FENCE.findall(README.read_text()) if lang == "python"]
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_command_parses(argv):
    # the parser exits 2 on a missing or rejected flag
    args = _build_parser().parse_args(argv)
    assert args.command == argv[0]
