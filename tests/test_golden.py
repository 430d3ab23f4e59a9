"""CLI outputs pinned byte for byte.

Each case in ``golden_cli.txt`` is a ``$ <arguments>`` line, the standard
output of ``sievecodec <arguments>`` and a closing ``exit=<code>`` line.  A
case is added by appending the output of the command as printed by
``python -m sievecodec.cli <arguments>`` and its exit code.
"""

import shlex
from pathlib import Path

import pytest

from sievecodec.cli import main


def _cases():
    text = Path(__file__).with_name("golden_cli.txt").read_text()
    for block in text.split("\n\n"):
        command, _, rest = block.strip("\n").partition("\n")
        output, _, code = rest.rpartition("exit=")
        yield pytest.param(shlex.split(command[2:]), output, int(code), id=command[2:])


@pytest.mark.parametrize("argv, output, code", _cases())
def test_cli_output_is_unchanged(capsys, argv, output, code):
    assert main(argv) == code
    assert capsys.readouterr().out == output
