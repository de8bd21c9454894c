"""Quadratic roots against the oracle, finite differences, period scans, samplers.

The oracles are checked hard because everything else leans on them.
TestQuadRoots checks the production solver stability.quad_roots directly;
TestKernelAgainstOracle compares it with the oracle's np.roots reference,
and TestOracleIndependence keeps the production modules from importing
the oracles at all.
"""

import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mospop
from mospop import oracles
from mospop.oracles import (
    fd_derivative,
    fd_jacobian,
    grid_period_scan,
    sample_invariance_pairs,
    sample_region,
)
from mospop.params import classify
from mospop.simplex import SimplexParams, fixed_point_u, u_map
from mospop.stability import DegenerateAllZero, quad_roots
from samplers import sample_outside_pairs


def residual_scale(a, b, c, r):
    # plain products so an extreme root saturates to inf instead of raising
    m = abs(r)
    return max(1.0, abs(a) * m * m, abs(b) * m, abs(c))


class TestQuadRoots:
    def test_golden_ratio_pair(self):
        roots = quad_roots(1.0, 1.0, -1.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)
        assert roots[1] == pytest.approx(-(math.sqrt(5) + 1) / 2, abs=1e-14)

    def test_linear_fallback(self):
        assert quad_roots(0.0, 2.0, -4.0) == (2.0,)

    def test_complex_pair_sorted_imag_descending(self):
        roots = quad_roots(1.0, 0.0, 1.0)
        assert roots == (1j, -1j)

    def test_constant_nonzero_has_no_roots(self):
        assert quad_roots(0.0, 0.0, 5.0) == ()

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateAllZero):
            quad_roots(0.0, 0.0, 0.0)

    def test_double_root(self):
        roots = quad_roots(1.0, -2.0, 1.0)
        for r in roots:
            assert r == pytest.approx(1.0, abs=1e-12)

    def test_cancellation_regime(self):
        # |b| >> |ac|: the naive formula loses the small root entirely
        roots = quad_roots(1.0, 1e8, 1.0)
        small = min(roots, key=abs)
        assert small == pytest.approx(-1e-8, rel=1e-10)

    def test_underflowing_discriminant_stays_complex(self):
        # b*b underflows to 0 unscaled, which made this pair look real
        a = b = 1.4528609534169231e-291
        roots = quad_roots(a, b, 3.6627151621937603e-62)
        assert roots[0].real == pytest.approx(-0.5, rel=1e-15)
        assert roots[0].imag == pytest.approx(5.020992205047411e114, rel=1e-15)
        assert roots[1] == roots[0].conjugate()

    def test_root_beyond_double_range_left_out(self):
        # -4/a = -2**1024 is not a double; the root 0 stays
        assert quad_roots(2.2250738585072014e-308, 4.0, 0.0) == (0j,)
        assert quad_roots(0.0, 8.97e-308, 17.0) == ()
        (r,) = quad_roots(2.2250738585072014e-308, 1e6, 1e300)
        assert r == pytest.approx(-1e294, rel=1e-15)
        assert quad_roots(1e200, 3e200, 1e200) == pytest.approx(
            ((math.sqrt(5) - 3) / 2, -(math.sqrt(5) + 3) / 2), rel=1e-15
        )

    def test_bulk_residuals(self):
        rng = np.random.default_rng(20260821)
        n = 100_000
        a = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-6, 7, n)
        b = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-6, 7, n)
        c = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-6, 7, n)
        worst = 0.0
        for ai, bi, ci in zip(a, b, c):
            for r in quad_roots(ai, bi, ci):
                res = abs((ai * r + bi) * r + ci)
                worst = max(worst, res / residual_scale(ai, bi, ci, r))
        assert worst <= 1e-10

    # subnormal coefficients carry only a handful of mantissa bits, so no
    # solver can meet a residual bound there; exclude them, nothing else
    coef = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)

    @given(coef, coef, coef)
    @example(2.2250738585072014e-308, 4.0, 0.0)
    @example(1.4528609534169231e-291, 1.4528609534169231e-291, 3.6627151621937603e-62)
    @example(7.956928890032421e-213, 0.0, 0.0)
    @example(0.0, 8.97e-308, 17.0)
    @example(1.17e-307, 22.0, 0.0)
    @settings(max_examples=500, deadline=None)
    def test_residual_property(self, a, b, c):
        if a == b == c == 0.0:
            return
        for r in quad_roots(a, b, c):
            res = abs((a * r + b) * r + c)
            assert res <= 1e-10 * residual_scale(a, b, c, r)


class TestKernelAgainstOracle:
    def test_agrees_with_numpy_roots(self):
        rng = np.random.default_rng(20261018)
        n = 10_000
        coef = rng.uniform(-1, 1, (3, n)) * 10.0 ** rng.integers(-6, 7, (3, n))
        for a, b, c in coef.T.tolist():
            ours = quad_roots(a, b, c)
            ref = oracles.quad_roots(a, b, c)
            assert len(ours) == len(ref) == 2
            scale = max(abs(r) for r in ref)
            for got, want in zip(ours, ref):
                assert abs(got - want) <= 1e-6 * scale

    def test_oracle_handles_leading_zeros_and_complex_pairs(self):
        assert oracles.quad_roots(0.0, 2.0, -4.0) == (2.0,)
        assert oracles.quad_roots(0.0, 0.0, 5.0) == ()
        assert oracles.quad_roots(1.0, 0.0, 1.0) == (1j, -1j)


class TestOracleIndependence:
    def test_only_the_cli_and_the_package_import_the_oracles(self):
        # An import statement, or a string naming the module (the package's
        # lazy name table, importlib.import_module), counts as an import.
        src = Path(mospop.__file__).parent
        importers = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    names += [f"{node.module or ''}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value]
                else:
                    continue
                if any(n.split(".")[-1] == "oracles" for n in names):
                    importers.add(path.stem)
        assert importers == {"cli", "__init__"}
        # the package re-exports oracle names without importing the module
        routed = {n for n, m in mospop._MODULE_OF.items() if m == "oracles"}
        assert routed == {n for n in mospop.__all__
                          if getattr(mospop, n) is getattr(oracles, n, None)}

    def test_production_modules_load_without_the_oracles(self):
        modules = sorted(p.stem for p in Path(mospop.__file__).parent.glob("*.py")
                         if p.stem not in ("__init__", "__main__", "cli", "oracles"))
        script = (
            "import sys\n"
            f"import {', '.join('mospop.' + m for m in modules)}\n"
            "assert 'mospop.oracles' not in sys.modules\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestFiniteDifferences:
    def test_fd_derivative_against_cos(self):
        got = fd_derivative(math.sin, 0.3)
        assert got == pytest.approx(math.cos(0.3), abs=1e-9)

    def test_fd_jacobian_affine_map_is_exact(self):
        def f(x, y):
            return 2.0 * x - 3.0 * y + 1.0, 0.5 * x + 4.0 * y

        m = fd_jacobian(f, (0.7, -0.2))
        assert np.allclose(m, [[2.0, -3.0], [0.5, 4.0]], atol=1e-9)

    def test_fd_jacobian_takes_state_as_one_argument(self):
        def f(x, y):
            return x * y, x + y

        m = fd_jacobian(f, np.array([2.0, 3.0]))
        assert np.allclose(m, [[3.0, 2.0], [1.0, 1.0]], atol=1e-8)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_derivative(math.sin, 0.0, h=0.0)
        with pytest.raises(ValueError):
            fd_jacobian(lambda x, y: (x, y), (0.0, 0.0), h=-1e-6)


class TestGridPeriodScan:
    def test_involution_flags_nearly_every_grid_point(self):
        sp = SimplexParams(2.0, 1.0)
        pts = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=1000)
        assert len(pts) >= 900  # every point is 2-periodic; only x* drops out

    def test_attracting_fixed_point_means_no_true_two_cycles(self):
        sp = SimplexParams(1.0, 0.5)
        assert grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2) == []

    def test_period_one_finds_the_fixed_point(self):
        sp = SimplexParams(1.0, 1.0)
        pts = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 1)
        assert len(pts) == 1
        assert pts[0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-8)

    def test_cosine_fixed_point(self):
        # dottie number, an easy external cross-check
        pts = grid_period_scan(math.cos, (0.0, 1.0), 1)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(0.7390851332151607, abs=1e-8)

    def test_rejects_bad_domain_and_period(self):
        with pytest.raises(ValueError):
            grid_period_scan(math.cos, (1.0, 0.0), 1)
        with pytest.raises(ValueError):
            grid_period_scan(math.cos, (0.0, 1.0), 0)

    def test_scan_agrees_with_closed_form_fixed_point(self):
        rng = np.random.default_rng(11)
        for alpha, beta in sample_invariance_pairs(40, rng):
            sp = SimplexParams(alpha, beta)
            pts = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 1, grid=512)
            assert len(pts) == 1
            assert abs(pts[0] - fixed_point_u(sp)) <= 1e-8


class TestSamplers:
    names = [
        "omega",
        "omega_star",
        "phi1",
        "phi2",
        "psi",
        "theta_star_theta1",
        "phi_star",
        "psi_star",
    ]

    @pytest.mark.parametrize("name", names)
    def test_each_region_sampler_self_classifies(self, name):
        rng = np.random.default_rng(3)
        draws = sample_region(name, 50, rng)
        assert len(draws) == 50
        # membership is asserted inside the sampler; spot-check one flag here
        lab = classify(draws[0])
        if name == "phi1":
            assert lab.in_phi1
        elif name == "psi_star":
            assert lab.in_psi_star

    def test_unknown_region_name(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_region("theta3", 5, rng)

    def test_sampler_determinism_by_seed(self):
        a = sample_region("phi2", 20, np.random.default_rng(99))
        b = sample_region("phi2", 20, np.random.default_rng(99))
        assert a == b

    def test_invariance_pairs_lie_inside_the_region(self):
        from mospop.params import SimplexClass, in_invariance_region

        rng = np.random.default_rng(5)
        for alpha, beta in sample_invariance_pairs(200, rng):
            assert in_invariance_region(alpha, beta) is not SimplexClass.NONE

    def test_outside_pairs_lie_outside(self):
        from mospop.params import SimplexClass, in_invariance_region

        rng = np.random.default_rng(5)
        for alpha, beta in sample_outside_pairs(200, rng):
            assert in_invariance_region(alpha, beta) is SimplexClass.NONE
