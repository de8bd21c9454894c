"""End-to-end acceptance checks.

One test per criterion, in order, each printing a single
"ACCEPTANCE <n> PASS" line on success (run with -s to see them).
Criteria 10 and 12 also watch the clock: this module must finish
inside a minute on ordinary hardware.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mospop.dynamics import OrbitVerdict, orbit
from mospop.fixed_points import FixedPointKind, FormulaTag, find_fixed_points, step
from mospop.oracles import (
    fd_jacobian,
    grid_period_scan,
    sample_invariance_pairs,
    sample_region,
)
from mospop.params import SimplexClass, basic_offspring_number, birth_threshold, validate
from mospop.simplex import SimplexParams, fixed_point_u, simplex_invariant, u_map
from mospop.stability import FixedPointType, declared_type_table, jacobian
from samplers import sample_outside_pairs

MODULE_START = time.perf_counter()

EX1 = validate(1.5, 0.4, 0.5, 0.0, 0.0)
EX2 = validate(1.5, 0.5, 0.4, 0.0, 0.0)
EX3 = validate(6.0, 0.5, 0.4, 0.6, 0.0)


def ok(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_01_example1_converges_to_extinction():
    t0 = time.perf_counter()
    res = orbit(EX1, (5.0, 4.0), max_iter=100_000)
    elapsed = time.perf_counter() - t0
    assert res.verdict is OrbitVerdict.CONVERGED
    assert res.limit == (0.0, 0.0)
    n, final = res.samples[-1]
    assert n == res.iterations_used <= 100_000
    assert max(abs(final.x), abs(final.y)) <= 1e-6
    assert elapsed < 1.0
    ok(1, f"converged to the origin in {n} iterations ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_example2_diverges_with_adult_plateau():
    res = orbit(EX2, (10.0, 9.0), max_iter=4_000_000, divergence_threshold=1e6)
    assert res.verdict is OrbitVerdict.DIVERGED_X
    final_x, final_y = res.samples.x[-1], res.samples.y[-1]
    assert final_x > 1e6
    assert abs(final_y - 3.75) <= 1e-2
    ok(2, f"x passed 1e6 at n={res.iterations_used}, adults near {final_y:.6f}")


def test_criterion_03_example3_interior_equilibrium():
    res = orbit(EX3, (50.0, 80.0), max_iter=100_000)
    assert res.verdict is OrbitVerdict.CONVERGED
    _, final = res.samples[-1]
    assert max(abs(final.x - 1.5), abs(final.y - 9.0)) <= 1e-6

    fps = find_fixed_points(EX3)
    assert fps.kind is FixedPointKind.TWO_POINTS
    pos = fps.points[1]
    assert pos.formula is FormulaTag.PHI1_CLOSED_FORM
    assert abs(pos.location.x - 1.5) <= 1e-12
    assert abs(pos.location.y - 9.0) <= 1e-12
    assert pos.residual <= 1e-12
    ok(3, f"orbit landed at (1.5, 9) in {res.iterations_used} iterations; "
          f"closed form residual {pos.residual:.2e}")


def test_criterion_04_fixed_point_kinds_by_region():
    rng = np.random.default_rng(20260821)
    expected = {
        "omega_star": FixedPointKind.SINGLE_ORIGIN,
        "phi1": FixedPointKind.TWO_POINTS,
        "phi2": FixedPointKind.TWO_POINTS,
        "psi": FixedPointKind.CONTINUUM,
    }
    worst = 0.0
    for name, kind in expected.items():
        for p in sample_region(name, 10_000, rng):
            fps = find_fixed_points(p)
            assert fps.kind is kind, (name, p)
            for pt in fps.points:
                assert pt.residual <= 1e-10, (name, p, pt)
                worst = max(worst, pt.residual)
    ok(4, f"10000 draws per region, worst residual {worst:.2e}")


def test_criterion_05_offspring_number_threshold_equivalence():
    rng = np.random.default_rng(20260822)
    disagreements = 0
    for p in sample_region("omega", 10_000, rng):
        lhs = basic_offspring_number(p) > 1.0
        rhs = p.beta > birth_threshold(p)
        disagreements += lhs != rhs
    assert disagreements == 0
    ok(5, "10000 draws, zero disagreements")


def test_criterion_06_jacobian_against_finite_differences():
    rng = np.random.default_rng(20260823)
    draws = sample_region("omega", 600, rng) + sample_region("phi2", 400, rng)
    assert sum(p.d1 > 0 for p in draws) >= 400
    worst = 0.0
    for p in draws:
        z = (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        analytic = jacobian(p, z)
        numeric = fd_jacobian(lambda a, b: step(p, (a, b)), z)
        rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(analytic)))
        worst = max(worst, rel)
        assert rel <= 1e-5, (p, z)
    ok(6, f"1000 states including quadratic death, worst relative error {worst:.2e}")


def test_criterion_07_declared_types_match_moduli_on_the_provable_sets():
    rng = np.random.default_rng(20260824)

    for p in sample_region("theta_star_theta1", 1000, rng):
        (row,) = declared_type_table(p)
        assert row.declared is FixedPointType.ATTRACTING
        assert row.numeric is FixedPointType.ATTRACTING
        assert row.agrees, p

    for p in sample_region("phi_star", 1000, rng):
        rows = declared_type_table(p)
        pos = [r for r in rows if r.location.x > 0.0]
        assert len(pos) == 1
        assert pos[0].declared is FixedPointType.ATTRACTING
        assert pos[0].numeric is FixedPointType.ATTRACTING
        assert pos[0].agrees, p

    for p in sample_region("psi_star", 1000, rng):
        for row in declared_type_table(p):
            assert row.declared is FixedPointType.SADDLE
            assert row.numeric is FixedPointType.NON_HYPERBOLIC
            assert row.agrees, p

    ok(7, "1000 draws per wedge; declared types agree with the modulus "
          "classification on every guaranteed point")


def test_criterion_08_simplex_invariance_inside_and_escape_outside():
    rng = np.random.default_rng(20260825)
    grid = [i / 99.0 for i in range(100)]
    for alpha, beta in sample_invariance_pairs(1000, rng):
        sp = SimplexParams(alpha, beta)
        vals = [u_map(sp, x) for x in grid]
        assert min(vals) >= -1e-12, (alpha, beta)
        assert max(vals) <= 1.0 + 1e-12, (alpha, beta)
    escapes = 0
    for alpha, beta in sample_outside_pairs(100, rng):
        sp = SimplexParams(alpha, beta)
        chk = simplex_invariant(sp)
        assert chk.region is SimplexClass.NONE and chk.witness is not None, (alpha, beta)
        assert not (0.0 <= u_map(sp, chk.witness) <= 1.0)
        escapes += 1
    ok(8, f"1000 interior pairs stayed in [0,1] on a 100-point grid; "
          f"{escapes} exterior pairs produced escape witnesses")


def test_criterion_09_corner_involution():
    sp = SimplexParams(2.0, 1.0)
    worst_invol = 0.0
    worst_form = 0.0
    for i in range(1000):
        x = i / 999.0
        worst_invol = max(worst_invol, abs(u_map(sp, u_map(sp, x)) - x))
        worst_form = max(worst_form, abs(u_map(sp, x) - (1 - x) / (1 + x)))
    assert worst_invol <= 1e-12
    assert worst_form <= 1e-14
    ok(9, f"U o U gap {worst_invol:.2e}, closed form gap {worst_form:.2e}")


def test_criterion_10_simplex_orbits_reach_the_fixed_point():
    rng = np.random.default_rng(20260826)
    pairs = []
    while len(pairs) < 1000:
        for alpha, beta in sample_invariance_pairs(1000, rng):
            if math.hypot(alpha - 2.0, beta - 1.0) > 1e-3:
                pairs.append((alpha, beta))
    worst_n = 0
    for alpha, beta in pairs[:1000]:
        sp = SimplexParams(alpha, beta)
        xs = fixed_point_u(sp)
        x = float(rng.uniform(0.0, 1.0))
        for n in range(100_001):
            if abs(x - xs) <= 1e-8:
                break
            x = u_map(sp, x)
        else:
            pytest.fail(f"no convergence within 1e5 iterations at {(alpha, beta)}")
        worst_n = max(worst_n, n)
    elapsed = time.perf_counter() - MODULE_START
    assert elapsed < 60.0
    ok(10, f"1000 orbits converged, slowest took {worst_n} iterations "
           f"({elapsed:.1f} s into the acceptance run)")


def test_criterion_11_no_period_two_away_from_the_corner():
    rng = np.random.default_rng(20260827)
    checked = 0
    for alpha, beta in sample_invariance_pairs(150, rng):
        if math.hypot(alpha - 2.0, beta - 1.0) <= 1e-3:
            continue
        sp = SimplexParams(alpha, beta)
        found = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=400)
        assert found == [], (alpha, beta, found)
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100
    ok(11, f"{checked} parameter pairs scanned, no period-2 points")


def test_criterion_12_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "mospop"]
    ex3 = ["--alpha", "6", "--beta", "0.5", "--mu", "0.4", "--d0", "0.6"]
    invocations = [
        base + ["classify", *ex3, "--json"],
        base + ["simulate", *ex3, "--x0", "50", "--y0", "80", "--json"],
        base + ["sweep", "--axis1", "alpha:0.5:2:0.25", "--axis2", "beta:0.25:1:0.25",
                "--quantity", "x_star", "--output", "-"],
        base + ["simplex", "--alpha", "2", "--beta", "1", "--x0", "0.3", "--json"],
    ]
    for argv in invocations:
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.returncode == b.returncode == 0, argv
        assert a.stdout == b.stdout, argv

    file_argv = base + ["simulate", *ex3, "--x0", "50", "--y0", "80"]
    first = tmp_path / "a.csv", tmp_path / "a.svg"
    second = tmp_path / "b.csv", tmp_path / "b.svg"
    for csv, svg in (first, second):
        r = subprocess.run(
            file_argv + ["--csv", str(csv), "--svg", str(svg)], capture_output=True
        )
        assert r.returncode == 0
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()

    elapsed = time.perf_counter() - MODULE_START
    assert elapsed < 60.0
    ok(12, f"stdout and file outputs byte-identical across reruns "
           f"({elapsed:.1f} s total for the acceptance module)")
