"""The README's commands and code stay true.

Every ``python -m repro ...`` command in a shell block parses with the
command line's own parser (which also checks experiment names and
``--saved`` choices), every Python block compiles, and the Quickstart
block runs.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

ROOT = Path(repro.__file__).resolve().parent.parent.parent
README = (ROOT / "README.md").read_text("utf-8")
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks(language):
    return [body for lang, body in _BLOCK.findall(README) if lang == language]


def _commands():
    """Each ``python -m repro`` command of a shell block, continuation
    lines joined, as the argument list after ``repro``."""
    commands = []
    for body in _blocks("bash"):
        for line in body.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for i in range(len(words) - 2):
                if words[i:i + 3] == ["python", "-m", "repro"]:
                    commands.append(words[i + 3:])
    return commands


COMMANDS = _commands()


def test_the_readme_has_commands_and_code():
    assert len(COMMANDS) >= 10
    assert len(_blocks("python")) >= 4


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_command_parses(argv):
    parser, _documented = build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits 0
            assert exc.code == 0 and "--help" in argv


def test_a_mistyped_command_does_not_parse():
    """The check above can fail: argparse exits 2 on a bad choice."""
    parser, _documented = build_parser()
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--saved", "fig4"])


@pytest.mark.parametrize("index", range(len(_blocks("python"))))
def test_every_python_block_compiles(index):
    compile(_blocks("python")[index], f"README.md python block {index}", "exec")


def test_the_quickstart_runs():
    section = README[README.index("\n## Quickstart\n"):]
    quickstart = _BLOCK.search(section)
    assert quickstart.group(1) == "python"
    exec(compile(quickstart.group(2), "README.md Quickstart", "exec"), {})
