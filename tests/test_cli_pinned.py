"""CLI outputs pinned byte for byte.

`cli_pinned.json` holds, for a fixed list of argv, the stdout, stderr and
exit code of `infcc` before the base families stated their own frame and
fountain.  The list covers cc, flip, validate, quiver, reduce, tiling and
frontier on a zigzag, a fountain and polygons: members, straddling arcs,
arcs off the polygon, malformed arcs and windows, polygon tilings and bad
frontier words.  A refactor that leaves the outputs alone passes unchanged;
an intended output change edits the file and says so.
"""

import json
from pathlib import Path

import pytest

from infcc.cli import main

PINNED = json.loads((Path(__file__).parent / "cli_pinned.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_pinned(capsys, case):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
