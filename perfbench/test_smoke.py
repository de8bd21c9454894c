"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed and finite,
that ok_ratio is 1 - failed/attempted and the printed fail_ratio is
failed/attempted, that traced counts repeat exactly across two runs with
the same seed, and that a directory without mospop sources gives no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNIT = "count"


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload: str, trace: int, seed: int = 7):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    res, lines = result(workload, 0)
    assert res["correct"], "\n".join(lines)
    assert res["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(res["metrics"]) == set(names)
    for name, unit in names.items():
        assert res["metrics"][name]["unit"] == unit
        assert math.isfinite(res["metrics"][name]["value"]), name
    ratio = res["failed"] / res["attempted"]
    assert res["metrics"]["ok_ratio"]["value"] == pytest.approx(1.0 - ratio, abs=1e-12)
    printed = [ln for ln in lines if ln.startswith("# fail_ratio = ")]
    assert printed == [f"# fail_ratio = {res['failed']}/{res['attempted']} = {ratio:.6g}"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics_and_repeatable_counts(workload):
    first, lines = result(workload, 1)
    second, _ = result(workload, 1)
    assert first["correct"], "\n".join(lines)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == set(names)
    for name, unit in names.items():
        assert first["metrics"][name]["unit"] == unit
        assert math.isfinite(first["metrics"][name]["value"]), name
        if unit == COUNT_UNIT:
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.overhead_s"]["value"] != 0.0


def test_no_sources_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("point_queries", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
