"""Golden CLI output: every captured invocation must replay byte for byte.

tests/golden/cli.json holds argument lists with the exit code, stdout,
stderr and written files that cli.main produced for them; see
tests/golden/capture_golden.py for how they were captured and how to
recapture.  Entries that print numbers from numpy's LAPACK or random streams
carry the numpy version they were captured with.  Under another numpy only
their exit code and their line or key structure are compared.
"""

import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("golden")
sys.path.insert(0, str(GOLDEN))
from capture_golden import (  # noqa: E402
    SWEEP_RADIUS_BRANCHES,
    SWEEP_X_STAR_KINDS,
    numpy_dependent,
    run_cli,
)

from mospop.cli import _parse_axis  # noqa: E402
from mospop.params import RATES  # noqa: E402
from mospop.stability import jacobian_entries  # noqa: E402

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


def test_only_output_computed_with_numpy_carries_a_numpy_tag():
    tagged = {e["name"] for e in ENTRIES if "numpy" in e}
    assert tagged == {e["name"] for e in ENTRIES
                      if numpy_dependent(e["argv"], e["exit"])}
    assert "exit2 verify no draws" not in tagged and "verify" in tagged


def test_no_successful_entry_prints_nan():
    for e in ENTRIES:
        if e["exit"] == 0:
            for text in (e["stdout"], *e["files"].values()):
                assert not re.search(r"\bnan\b", text, re.IGNORECASE), e["name"]


def _origin_discriminants(argv: list[str]) -> list[float]:
    """tr*tr - 4*det of the Jacobian at the origin, per cell of a sweep's argv."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    rates = {name: float(opts.get("--" + name, 0.0)) for name in RATES}
    axes = []
    for spec in (opts["--axis1"], opts["--axis2"]):
        name, lo, step, n = _parse_axis(spec)
        axes.append([(name, lo + k * step) for k in range(n)])
    out = []
    for cell in itertools.product(*axes):
        cell_rates = dict(rates, **dict(cell))
        j00, j01, j10, j11 = jacobian_entries(*(cell_rates[name] for name in RATES), 0.0)
        tr, det = j00 + j11, j00 * j11 - j01 * j10
        out.append(tr * tr - 4.0 * det)
    return out


@pytest.mark.parametrize("name, reaches", [
    ("sweep spectral radius rounded negative discriminant", lambda d: d < 0.0),
    ("sweep spectral radius zero discriminant", lambda d: d == 0.0),
    ("sweep spectral radius overflowing discriminant", lambda d: d == math.inf),
])
def test_radius_branch_grids_reach_their_branch(name, reaches):
    discriminants = _origin_discriminants(SWEEP_RADIUS_BRANCHES[name])
    assert any(reaches(d) for d in discriminants)
    assert name in {e["name"] for e in ENTRIES}


def test_x_star_grid_reaches_each_kind_of_denominator():
    # hypot(alpha/2, beta) + alpha/2 per cell: normal, below 2**-960, and inf
    (entry,) = [e for e in ENTRIES if e["name"] == SWEEP_X_STAR_KINDS]
    opts = dict(zip(entry["argv"][1::2], entry["argv"][2::2]))
    (_, lo1, step1, n1), (_, lo2, step2, n2) = (
        _parse_axis(opts[axis]) for axis in ("--axis1", "--axis2"))
    kinds = set()
    for i, j in itertools.product(range(n1), range(n2)):
        half, beta = 0.5 * (lo1 + i * step1), lo2 + j * step2
        den = math.hypot(half, beta) + half
        kinds.add("inf" if den == math.inf else "tiny" if den < 2.0**-960 else "normal")
    assert kinds == {"normal", "tiny", "inf"}
