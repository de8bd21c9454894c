"""Golden CLI output: every captured invocation must replay byte for byte.

tests/golden/cli.json holds argument lists with the exit code, stdout,
stderr and written files that cli.main produced for them; see
tests/golden/capture_golden.py for how they were captured and how to
recapture.  Entries that print numbers from numpy's LAPACK or random streams
carry the numpy version they were captured with.  Under another numpy only
their exit code and their line or key structure are compared.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden")
sys.path.insert(0, str(GOLDEN))
from capture_golden import run_cli  # noqa: E402

ENTRIES = json.loads((GOLDEN / "cli.json").read_text(encoding="ascii"))
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|\b(nan|inf)\b")


def _structure(text: str):
    """Keys and list lengths of a JSON document, else lines with numbers masked."""
    def keys(v):
        if isinstance(v, dict):
            return {k: keys(x) for k, x in v.items()}
        if isinstance(v, list):
            return [keys(x) for x in v]
        return None

    try:
        return keys(json.loads(text))
    except ValueError:
        return [NUMBER.sub("#", line) for line in text.splitlines()]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_replay(entry):
    got = run_cli(entry["argv"])
    want = {k: entry[k] for k in ("exit", "stdout", "stderr", "files")}
    if entry.get("numpy", np.__version__) != np.__version__:
        assert got["exit"] == want["exit"]
        for part in ("stdout", "stderr"):
            assert _structure(got[part]) == _structure(want[part])
        assert got["files"].keys() == want["files"].keys()
        return
    assert got == want


def test_entries_cover_every_subcommand_in_both_modes():
    seen = {(e["argv"][0], "--json" in e["argv"]) for e in ENTRIES}
    for command in ("classify", "fixed-points", "stability", "simulate",
                    "simplex", "sweep", "verify"):
        assert {(command, False), (command, True)} <= seen
    assert {e["exit"] for e in ENTRIES} == {0, 2, 3}
