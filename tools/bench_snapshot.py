"""Run the benchmark on every workload and write one BENCH_<n>.json snapshot.

Run from the root of a checkout:

    python3 tools/bench_snapshot.py --output BENCH_7.json
    python3 tools/bench_snapshot.py --size tiny --seconds 1 --repeats 1 \
        --output /tmp/bench.json

Each workload that BENCHMARK.json names runs through perfbench/run.py
--repeats times (default 3), with seeds 1, 2, ... on every workload, each
run for --seconds (default: the run_seconds of BENCHMARK.json).  The
snapshot records, per workload and end-to-end metric, every repeat's
value, their minimum and the direction BENCHMARK.json calls better, plus
the correctness fields of each run, the seeds, the Python and numpy
versions the runs printed, and the commit of the checkout (with a flag
for uncommitted changes).  Comparing two snapshots taken on the same
machine gives a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = re.compile(r"^# python=(\S+) numpy=(\S+)", re.MULTILINE)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_once(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, str]:
    """The result object of one perfbench run, and the run's full stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1]), proc.stdout


def summary(metric: dict, runs: list[dict]) -> dict:
    """One end-to-end metric of BENCHMARK.json over the repeats."""
    values = [r["metrics"][metric["name"]]["value"] for r in runs]
    return {"unit": metric["unit"], "better": metric["better"],
            "min": min(values), "values": values}


def snapshot(seconds: float, repeats: int, size: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, repeats + 1))
    workloads, versions = {}, None
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for s in seeds:
            result, stdout = run_once(wl, s, seconds, size)
            versions = versions or VERSIONS.search(stdout)
            runs.append(result)
            print(f"{wl} seed {s}: items_per_s "
                  f"{result['metrics']['items_per_s']['value']:.6g}", file=sys.stderr)
        workloads[wl] = {
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")}
                     for r in runs],
            "metrics": {m["name"]: summary(m, runs) for m in spec["end_to_end"]},
        }
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": versions.group(1) if versions else None,
        "numpy": versions.group(2) if versions else None,
        "seconds": seconds,
        "size": size,
        "seeds": seeds,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--output", type=Path, required=True,
                    help="write the snapshot to this path")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per workload")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    data = snapshot(seconds, args.repeats, args.size)
    args.output.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
