"""Capture the golden CLI outputs that tests/test_golden.py replays.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/capture_golden.py

It rewrites tests/golden/cli.json.  Each entry holds an argument list, the
exit code, stdout, stderr and the text of every file the command wrote.
Output paths in argument lists are written as {tmp}/NAME; the replay runs
each command in a fresh temporary directory and writes {tmp} back in place
of its path, so the data does not depend on where it ran.

The argument lists of the benchmark's cold_cli workload (seeds 1-5) and the
tiny grid_sweep grids (seed 1) are stored literally, so the replay never
needs perfbench.  Entries whose numbers come from numpy's LAPACK or random
streams (stability --verify, verify, unless they exit 2) record the numpy
version they were captured with.

Recapture only on purpose: every golden byte a change moves must be named
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from mospop.cli import MAX_VALUES, main

TMP = "{tmp}"
DATA = Path(__file__).with_name("cli.json")
ROOT = Path(__file__).resolve().parents[2]

EX3 = ["--alpha", "6", "--beta", "0.5", "--mu", "0.4", "--d0", "0.6"]
PHI2 = ["--alpha", "1", "--beta", "2", "--mu", "0.5", "--d0", "0.5", "--d1", "0.5"]
PSI = ["--alpha", "1", "--beta", "1", "--mu", "1"]
THETA_BELOW = ["--alpha", "0.4", "--beta", "0.3", "--mu", "0.5", "--d0", "0.2"]
THETA_ABOVE = ["--alpha", "0.5", "--beta", "0.8", "--mu", "0.5"]
THETA_EQUAL = ["--alpha", "0.5", "--beta", "1", "--mu", "0.5", "--d0", "0.5"]
PHI_STAR = ["--alpha", "0.5", "--beta", "1.5", "--mu", "0.5", "--d0", "0.3"]
PSI_STAR = ["--alpha", "0.5", "--beta", "0.4", "--mu", "0.4"]


def run_cli(argv: list[str]) -> dict:
    """Run cli.main(argv) in this process inside a fresh temporary directory.

    Returns the exit code, stdout, stderr and the files written there, with
    the directory's path replaced by {tmp}.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([a.replace(TMP, tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
        files = {}
        for name in sorted(os.listdir(tmp)):
            files[name] = Path(tmp, name).read_bytes().decode("ascii")
        return {
            "exit": code,
            "stdout": out.getvalue().replace(tmp, TMP),
            "stderr": err.getvalue().replace(tmp, TMP),
            "files": files,
        }


def numpy_dependent(argv: list[str], code: int) -> bool:
    """True when the output holds numbers from numpy's LAPACK or RNG: a
    verify run or a stability --verify run that got past its input checks
    (an exit 2 prints only the error, which numpy computed nothing for)."""
    return code in (0, 1) and (
        argv[0] == "verify" or (argv[0] == "stability" and "--verify" in argv))


def both(name: str, argv: list[str]) -> list[tuple[str, list[str]]]:
    """The human and the --json form of one invocation."""
    return [(name, argv), (name + " --json", argv + ["--json"])]


def curated() -> list[tuple[str, list[str]]]:
    sweep_small = ["--axis1", "alpha:1:2:1", "--axis2", "beta:0.5:1:0.5"]
    out = [
        *both("classify phi1", ["classify", *EX3]),
        *both("classify psi", ["classify", *PSI]),
        *both("classify eps", ["classify", "--alpha", "1", "--beta", "1.0000005",
                               "--mu", "1", "--eps", "1e-3"]),
        *both("classify eps none", ["classify", *EX3, "--eps", "1e-9"]),
        *both("classify simplex class", ["classify", "--alpha", "1.5", "--beta",
                                         "0.5", "--mu", "0.5"]),
        *both("fixed-points phi1", ["fixed-points", *EX3]),
        *both("fixed-points phi2", ["fixed-points", *PHI2]),
        *both("fixed-points omega_star negative discriminant",
              ["fixed-points", "--alpha", "1", "--beta", "0.5", "--mu", "1",
               "--d0", "0.2", "--d1", "1"]),
        *both("fixed-points omega_star", ["fixed-points", *THETA_BELOW]),
        *both("fixed-points psi", ["fixed-points", *PSI]),
        *both("fixed-points psi samples", ["fixed-points", *PSI, "--samples", "4"]),
        *both("fixed-points phi1 verify", ["fixed-points", *EX3, "--verify"]),
        *both("fixed-points phi2 verify", ["fixed-points", *PHI2, "--verify"]),
        *both("fixed-points psi verify", ["fixed-points", *PSI, "--verify"]),
        *both("stability phi1", ["stability", *EX3]),
        *both("stability at", ["stability", *EX3, "--at", "1.5", "9"]),
        *both("stability at tol", ["stability", *EX3, "--at", "1.5", "9",
                                   "--tol", "1e-6"]),
        *both("stability phi2", ["stability", *PHI2]),
        *both("stability psi", ["stability", *PSI]),
        *both("stability declared theta_star below", ["stability", *THETA_BELOW]),
        *both("stability declared theta_star above", ["stability", *THETA_ABOVE]),
        *both("stability declared threshold", ["stability", *THETA_EQUAL]),
        *both("stability declared phi_star", ["stability", *PHI_STAR]),
        *both("stability declared psi_star", ["stability", *PSI_STAR]),
        *both("stability verify", ["stability", *EX3, "--verify"]),
        *both("stability verify psi_star", ["stability", *PSI_STAR, "--verify"]),
        *both("simulate converges", ["simulate", *EX3, "--x0", "50", "--y0", "80"]),
        *both("simulate diverges", ["simulate", "--alpha", "1.5", "--beta", "0.5",
                                    "--mu", "0.4", "--x0", "10", "--y0", "9",
                                    "--divergence-threshold", "1000"]),
        *both("simulate periodic", ["simulate", "--alpha", "2", "--beta", "1",
                                    "--mu", "1", "--x0", "0.3", "--y0", "0.7"]),
        *both("simulate budget", ["simulate", *EX3, "--x0", "50", "--y0", "80",
                                  "--iters", "10"]),
        *both("simulate tol", ["simulate", *EX3, "--x0", "50", "--y0", "80",
                               "--tol", "1e-3"]),
        *both("simulate leaves domain", ["simulate", "--alpha", "1e300", "--beta",
                                         "2", "--mu", "1", "--d0", "1e-10",
                                         "--x0", "1", "--y0", "1"]),
        *both("simulate quadrant", ["simulate", "--alpha", "0.5", "--beta", "0.1",
                                    "--mu", "0.5", "--d0", "1.2", "--x0", "1",
                                    "--y0", "0", "--iters", "50"]),
        *both("simulate csv svg", ["simulate", *EX3, "--x0", "50", "--y0", "80",
                                   "--csv", "{tmp}/traj.csv",
                                   "--svg", "{tmp}/traj.svg"]),
        *both("simplex corner", ["simplex", "--alpha", "2", "--beta", "1"]),
        *both("simplex corner orbit", ["simplex", "--alpha", "2", "--beta", "1",
                                       "--x0", "0.3"]),
        *both("simplex orbit", ["simplex", "--alpha", "1", "--beta", "1", "--x0", "0"]),
        *both("simplex orbit iterates", ["simplex", "--alpha", "1", "--beta", "1",
                                         "--x0", "0", "--orbit", "10"]),
        *both("simplex orbit csv", ["simplex", "--alpha", "1", "--beta", "1",
                                    "--x0", "0", "--orbit", "10",
                                    "--csv", "{tmp}/orbit.csv"]),
        *both("simplex valley", ["simplex", "--alpha", "1.5", "--beta", "0.3",
                                 "--x0", "0.2"]),
        *both("simplex verify", ["simplex", "--alpha", "1", "--beta", "0.5",
                                 "--verify"]),
        *both("simplex outside interior witness", ["simplex", "--alpha", "1.9",
                                                   "--beta", "0.1"]),
        *both("simplex outside top", ["simplex", "--alpha", "1", "--beta", "1.5"]),
        *both("simplex outside right", ["simplex", "--alpha", "2.5", "--beta", "0.8"]),
        ("sweep region", ["sweep", "--axis1", "beta:0.5:1.5:0.5", "--axis2",
                          "d0:0:0.25:0.25", "--quantity", "region", "--alpha", "1",
                          "--mu", "1", "--output", "-"]),
        ("sweep r0", ["sweep", *sweep_small, "--quantity", "r0", "--mu", "0.5",
                      "--output", "-"]),
        ("sweep fixed_point_count", ["sweep", "--axis1", "beta:0.25:2:0.25",
                                     "--axis2", "mu:0.25:2:0.25", "--quantity",
                                     "fixed_point_count", "--alpha", "1.5",
                                     "--output", "-"]),
        ("sweep spectral radius", ["sweep", "--axis1", "alpha:0.5:1.5:0.5",
                                   "--axis2", "beta:0.5:1:0.25", "--quantity",
                                   "spectral_radius_at_origin", "--mu", "0.5",
                                   "--d1", "0.25", "--output", "-"]),
        ("sweep x_star", ["sweep", "--axis1", "alpha:0.5:1.5:0.5", "--axis2",
                          "beta:0.5:1:0.25", "--quantity", "x_star", "--output", "-"]),
        ("sweep underflowing r0", ["sweep", "--axis1", "alpha:1e-200:2e-200:1e-200",
                                   "--axis2", "mu:1e-200:2e-200:1e-200",
                                   "--quantity", "r0", "--beta", "1",
                                   "--output", "-"]),
        *both("sweep to file", ["sweep", *sweep_small, "--quantity", "r0",
                                "--mu", "0.5", "--output", "{tmp}/grid.csv"]),
        *both("verify", ["verify", "--draws", "40"]),
        # exit 2: invalid input
        ("exit2 stability non-fixed at", ["stability", *EX3, "--at", "2", "2"]),
        ("exit2 classify bad rates", ["classify", "--alpha", "0", "--beta", "-1",
                                      "--mu", "1", "--d1", "-2"]),
        ("exit2 simulate bad rates", ["simulate", "--alpha", "1", "--beta", "1",
                                      "--mu", "0", "--x0", "1", "--y0", "1"]),
        ("exit2 simulate bad start", ["simulate", *EX3, "--x0", "-2", "--y0", "1"]),
        ("exit2 fixed-points samples", ["fixed-points", *PSI, "--samples", "1"]),
        ("exit2 simplex outside region", ["simplex", "--alpha", "1.9", "--beta",
                                          "0.1", "--x0", "0.5"]),
        ("exit2 simplex bad rates", ["simplex", "--alpha", "-1", "--beta", "0.5"]),
        ("exit2 sweep too few fields", ["sweep", "--axis1", "alpha:2:1", "--axis2",
                                        "beta:0.5:1:0.5", "--quantity", "x_star",
                                        "--output", "-"]),
        ("exit2 sweep unknown axis", ["sweep", "--axis1", "gamma:0:1:0.5",
                                      "--axis2", "beta:0.5:1:0.5", "--quantity",
                                      "x_star", "--output", "-"]),
        ("exit2 sweep infinite bound", ["sweep", "--axis1", "alpha:0.5:inf:1",
                                        "--axis2", "beta:0.5:1:0.5", "--quantity",
                                        "x_star", "--output", "-"]),
        ("exit2 sweep empty range", ["sweep", "--axis1", "alpha:2:1:0.5", "--axis2",
                                     "beta:0.5:1:0.5", "--quantity", "x_star",
                                     "--output", "-"]),
        ("exit2 sweep duplicate axes", ["sweep", "--axis1", "alpha:1:2:1",
                                        "--axis2", "alpha:1:2:1", "--quantity",
                                        "x_star", "--output", "-"]),
        ("exit2 sweep missing rate", ["sweep", *sweep_small, "--quantity", "r0",
                                      "--output", "-"]),
        ("exit2 sweep inadmissible cell", ["sweep", "--axis1", "alpha:0:1:0.5",
                                           "--axis2", "beta:-1:1:0.5", "--quantity",
                                           "region", "--mu", "1", "--output", "-"]),
        # exit 3: output path that cannot be written
        ("exit3 simulate csv", ["simulate", *EX3, "--x0", "1", "--y0", "1",
                                "--csv", "{tmp}/missing/traj.csv"]),
        ("exit3 simulate svg", ["simulate", *EX3, "--x0", "1", "--y0", "1",
                                "--svg", "{tmp}/missing/traj.svg"]),
        ("exit3 simplex csv", ["simplex", "--alpha", "1", "--beta", "1", "--x0",
                               "0", "--orbit", "3", "--csv", "{tmp}/missing/o.csv"]),
        ("exit3 sweep", ["sweep", *sweep_small, "--quantity", "x_star",
                         "--output", "{tmp}/missing/grid.csv"]),
    ]
    return out


def benchmark_argvs() -> list[tuple[str, list[str]]]:
    """cold_cli seeds 1-5 and the tiny grid_sweep grids of seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = []
    for seed in range(1, 6):
        cold = workloads.ColdCli(seed, False, True, dict(os.environ), str(ROOT))
        for k, op in enumerate(cold.ops):
            argv = op.args[0]
            out.append((f"cold_cli seed {seed} #{k:02d} {' '.join(argv[:2])}", argv))
    for k, op in enumerate(workloads.GridSweep(1, True).ops):
        argv = op.args[0]
        out.append((f"grid_sweep seed 1 #{k} {argv[6]}", argv))
    return out


def appended() -> list[tuple[str, list[str]]]:
    """Invocations added after the first capture; kept last, so that adding
    them only extends the file and every earlier entry keeps its bytes."""
    phi1_beyond = ["--alpha", "1e300", "--beta", "2", "--mu", "1", "--d0", "1e-10"]
    return [
        ("simulate psi curve left of the origin --json",
         ["simulate", "--alpha", "0.4242591665637453", "--beta",
          "0.8241239267624378", "--mu", "0.8241239267624378",
          "--x0", "-0.13368015321381987", "--y0", "0", "--json"]),
        ("exit2 fixed-points phi1 overflow", ["fixed-points", *phi1_beyond]),
        ("exit2 stability phi1 overflow", ["stability", *phi1_beyond]),
        ("exit2 simulate phi1 overflow", ["simulate", *phi1_beyond,
                                          "--x0", "0", "--y0", "0"]),
        ("stability close eigenvalue pair at the origin",
         ["stability", "--alpha", "2.3928868106350317e-12", "--beta",
          "3.3124892075191155e-11", "--mu", "1.4828361822966769e-07"]),
        ("fixed-points phi1 where mu*d0 underflows",
         ["fixed-points", "--alpha", "1e-200", "--beta", "3e-200",
          "--mu", "1e-200", "--d0", "1e-200"]),
        ("exit2 simplex orbit budget exhausted",
         ["simplex", "--alpha", "1.99999999", "--beta", "1", "--x0", "0.1"]),
        *SWEEP_RADIUS_BRANCHES.items(),
        # non-finite JSON numbers: x overflows to inf, then to -inf
        *both("simulate x overflows to inf",
              ["simulate", "--alpha", "1", "--beta", "1e300", "--mu", "0.5",
               "--x0", "1", "--y0", "1e10", "--divergence-threshold", "inf"]),
        *both("simulate x overflows to -inf",
              ["simulate", "--alpha", "1", "--beta", "1", "--mu", "0.5",
               "--d1", "1", "--x0", "1e200", "--y0", "1"]),
        ("exit2 simplex csv without orbit",
         ["simplex", "--alpha", "1", "--beta", "0.5", "--x0", "0.3",
          "--csv", "{tmp}/o.csv"]),
        ("exit2 simplex orbit without x0",
         ["simplex", "--alpha", "1", "--beta", "0.5", "--orbit", "5",
          "--csv", "{tmp}/o.csv"]),
        ("exit2 classify nan eps", ["classify", *EX3, "--eps", "nan"]),
        ("exit2 verify no draws", ["verify", "--draws", "0"]),
        ("exit2 simplex negative orbit",
         ["simplex", "--alpha", "1", "--beta", "0.5", "--x0", "0.3",
          "--orbit", "-3", "--json"]),
        *SWEEP_SHAPES.items(),
        ("exit2 verify negative seed", ["verify", "--seed", "-1", "--draws", "5"]),
        # caps checked before any value is built; the cap + 1 only
        ("exit2 fixed-points samples above the cap",
         ["fixed-points", *PSI, "--samples", str(MAX_VALUES + 1)]),
        ("exit2 simplex orbit above the cap",
         ["simplex", "--alpha", "1", "--beta", "1", "--x0", "0",
          "--orbit", str(MAX_VALUES + 1)]),
        ("exit2 simulate no iterations",
         ["simulate", *EX3, "--x0", "1", "--y0", "1", "--iters", "0"]),
        ("exit2 simulate nan divergence threshold",
         ["simulate", *EX3, "--x0", "1", "--y0", "1", "--divergence-threshold", "nan"]),
        # the float map returns (0.5, 0.5) bit for bit; no fixed point is near
        *both("simulate float map stalls",
              ["simulate", "--alpha", "1e-200", "--beta", "3e-200", "--mu", "1e-200",
               "--d0", "1e-200", "--x0", "0.5", "--y0", "0.5"]),
        # sweep flags that would otherwise be dropped without a word
        ("exit2 sweep json to stdout",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "beta:1:2:1",
          "--quantity", "r0", "--mu", "1", "--output", "-", "--json"]),
        ("exit2 sweep fixed rate on an axis",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "beta:1:2:1",
          "--quantity", "r0", "--mu", "1", "--alpha", "3", "--output", "-"]),
        # the 2-cycle quadratic with its denominator cleared: a constant at
        # beta = 2, and no containment at beta = 3
        ("simplex beta 2", ["simplex", "--alpha", "1", "--beta", "2"]),
        ("simplex beta 3", ["simplex", "--alpha", "1", "--beta", "3"]),
        # phi2 points where the discriminant overflows: one fits, and one
        # whose y does not fit must not come back as a second origin
        ("fixed-points phi2 with an overflowing discriminant",
         ["fixed-points", "--alpha", "1", "--beta", "1e298", "--mu", "1e-10",
          "--d1", "1"]),
        ("exit2 fixed-points phi2 beyond the double range",
         ["fixed-points", "--alpha", "1.51041395633044e+275", "--beta",
          "8.74552075343304e-247", "--mu", "1.5589363987788385e-279", "--d0",
          "7.87881045432017e-197", "--d1", "6.176065267504663e-150"]),
        # x* where 2*beta or hypot(alpha, 2*beta) overflows
        ("simplex x* where 2*beta overflows", ["simplex", "--alpha", "1", "--beta", "1e308"]),
        ("sweep x_star where 2*beta overflows",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "beta:1e308:1e308:1",
          "--quantity", "x_star", "--output", "-"]),
        ("sweep x_star near the largest alpha",
         ["sweep", "--axis1", "alpha:1e308:1.2e308:1e307", "--axis2", "beta:1:1:1",
          "--quantity", "x_star", "--output", "-"]),
        # radius cells whose determinant overflows: to inf - inf, and to inf
        ("sweep spectral radius where the determinant is inf - inf",
         ["sweep", "--axis1", "alpha:2.1505788236058427e+272:2.1505788236058427e+272:1",
          "--axis2", "beta:2.0502665463542175e+288:2.0502665463542175e+288:1",
          "--quantity", "spectral_radius_at_origin", "--mu", "6.416820027389572e+40",
          "--d0", "2.060381975368855e+125", "--output", "-"]),
        ("sweep spectral radius where the determinant is inf",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "mu:1:1:1",
          "--quantity", "spectral_radius_at_origin", "--beta", "1e308",
          "--output", "-"]),
        # U'(x*) where the former closed form was nan
        ("simplex multiplier at extreme rates",
         ["simplex", "--alpha", "1e-300", "--beta", "1e300"]),
        # |U'(x*)| = 1e300: the derivative gap is relative, not about 1e289
        ("simplex verify at extreme rates --json",
         ["simplex", "--alpha", "1e-300", "--beta", "1e300", "--verify", "--json"]),
        ("simplex verify at swapped extreme rates --json",
         ["simplex", "--alpha", "1e300", "--beta", "1e-300", "--verify", "--json"]),
        # the phi2 closed form overflows to (inf, nan): no target, so the
        # orbit stops at the origin
        ("simulate phi2 point beyond the double range",
         ["simulate", "--alpha", "5.789738304514491e-128", "--beta",
          "1.2732347862781518e+288", "--mu", "6.90982348082502e-230", "--d0",
          "1.9255630303276417e+154", "--d1", "2.3870432366756736e-07",
          "--x0", "0", "--y0", "0"]),
        # the cap + 1 only: rejected before any draw is made
        ("exit2 verify draws above the cap", ["verify", "--draws", str(MAX_VALUES + 1)]),
        # x* reads alpha and beta only: no other rate may be an axis or a flag
        ("exit2 sweep x_star mu axis",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "mu:0.5:1:0.5",
          "--quantity", "x_star", "--beta", "0.5", "--output", "-"]),
        ("exit2 sweep x_star d1 flag",
         ["sweep", "--axis1", "alpha:1:2:1", "--axis2", "beta:0.5:1:0.5",
          "--quantity", "x_star", "--d1", "7", "--output", "-"]),
        # the orbit stops at (inf, 5.5): the plot leaves that sample out
        ("simulate svg of an orbit that stops at a non-finite state",
         ["simulate", "--alpha", "1", "--beta", "1e308", "--mu", "0.5", "--x0", "1",
          "--y0", "10", "--divergence-threshold", "inf", "--svg", "{tmp}/o.svg"]),
        # x* cells whose denominator is normal, below 2**-960 (1e-300 with
        # 1e-300) and inf (1.6e308 with 1e308): the last two take the
        # rescaling scalar path inside the array kernel
        (SWEEP_X_STAR_KINDS,
         ["sweep", "--axis1", "alpha:1e-300:1.6e308:8e307",
          "--axis2", "beta:1e-300:1e308:5e307", "--quantity", "x_star", "--output", "-"]),
        # both samples are finite, but their span overflows
        ("simulate svg whose value span overflows",
         ["simulate", "--alpha", "1", "--beta", "1e-10", "--mu", "0.5", "--d1", "1",
          "--x0", "1e154", "--y0", "1.7e308", "--svg", "{tmp}/o.svg"]),
        # a label sweep to a file: the CSV and the JSON rows hold the labels
        ("sweep region to file --json",
         ["sweep", "--axis1", "beta:0.5:1.5:0.5", "--axis2", "d0:0:0.25:0.25",
          "--quantity", "region", "--alpha", "1", "--mu", "1",
          "--output", "{tmp}/regions.csv", "--json"]),
    ]


SWEEP_X_STAR_KINDS = "sweep x_star with normal, tiny and overflowing denominators"


# One-row, one-column and one-cell grids, each for a float quantity and a
# string one: the edges of the CSV's row and column loops.
SWEEP_SHAPES = {
    f"sweep {quantity} {shape} grid": ["sweep", "--axis1", axis1, "--axis2", axis2,
                                        "--quantity", quantity, *fixed,
                                        "--output", "-"]
    for shape, (axis1, axis2) in {
        "1x1": ("alpha:0.7:0.7:0.1", "beta:0.3:0.3:0.1"),
        "1x4": ("alpha:0.7:0.7:0.1", "beta:0.1:0.4:0.1"),
        "4x1": ("alpha:0.1:0.4:0.1", "beta:0.3:0.3:0.1"),
    }.items()
    for quantity, fixed in (("x_star", []),
                            ("region", ["--mu", "0.2", "--d0", "0.1"]))
}


# Spectral-radius sweeps with cells where the discriminant tr*tr - 4*det of
# the origin's quadratic is not positive and normal: rounded below 0, exactly
# 0, and inf (tests/test_golden.py checks that each grid reaches its case).
SWEEP_RADIUS_BRANCHES = {
    "sweep spectral radius rounded negative discriminant":
        ["sweep", "--axis1", "alpha:8.011558656841118e-11:0.5:0.5",
         "--axis2", "beta:2.2585712852944462e-08:0.6:0.5",
         "--quantity", "spectral_radius_at_origin",
         "--mu", "9.112579545501377e-10", "--output", "-"],
    "sweep spectral radius zero discriminant":
        ["sweep", "--axis1", "alpha:1e-200:0.5:0.5", "--axis2", "beta:1e-200:0.5:0.5",
         "--quantity", "spectral_radius_at_origin", "--mu", "1e-200",
         "--output", "-"],
    "sweep spectral radius overflowing discriminant":
        ["sweep", "--axis1", "alpha:1:1e200:1e200", "--axis2", "beta:0.5:1:0.5",
         "--quantity", "spectral_radius_at_origin", "--mu", "0.5", "--output", "-"],
}


def capture() -> list[dict]:
    import numpy as np

    entries = []
    for name, argv in curated() + benchmark_argvs() + appended():
        entry = {"name": name, "argv": argv, **run_cli(argv)}
        if numpy_dependent(argv, entry["exit"]):
            entry["numpy"] = np.__version__
        entries.append(entry)
    names = [e["name"] for e in entries]
    assert len(set(names)) == len(names), "entry names must be unique"
    return entries


if __name__ == "__main__":
    entries = capture()
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(entries)} entries: {DATA}")
