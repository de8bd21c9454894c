"""Fixed-point enumeration and the closed forms behind it."""

import math

import numpy as np
import pytest

from mospop.dynamics import step
from mospop.fixed_points import (
    DEFAULT_CONTINUUM_GRID,
    ClosedFormOverflow,
    FixedPointKind,
    FormulaTag,
    discriminant,
    find_fixed_points,
    gamma,
    phi1_point,
)
from mospop.oracles import sample_region
from mospop.params import basic_offspring_number, validate

EX1 = validate(1.5, 0.4, 0.5, 0.0, 0.0)
EX3 = validate(6.0, 0.5, 0.4, 0.6, 0.0)
PHI2 = validate(1.0, 2.0, 0.5, 0.5, 0.5)
PSI = validate(1.0, 1.0, 1.0, 0.0, 0.0)


def step_residual(p, x, y):
    nx, ny = step(p, (x, y))
    return max(abs(nx - x), abs(ny - y))


class TestGamma:
    def test_example3_positive_point(self):
        assert gamma(EX3, 1.5) == pytest.approx(9.0, abs=1e-12)

    def test_zero_maps_to_zero(self):
        assert gamma(EX3, 0.0) == 0.0

    def test_saturates_below_alpha_over_mu(self):
        p = validate(1.5, 0.5, 0.4, 0.0, 0.0)
        cap = 1.5 / 0.4
        assert gamma(p, 1e9) < cap
        assert cap - gamma(p, 1e9) < 1e-8

    def test_monotone_on_a_grid(self):
        xs = np.linspace(0.0, 50.0, 101)
        vals = [gamma(EX3, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_x_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            gamma(EX3, -1.0)

    def test_accepts_numpy_arrays(self):
        xs = np.array([0.0, 1.5, 10.0])
        ys = gamma(EX3, xs)
        assert isinstance(ys, np.ndarray)
        assert ys.tolist() == [gamma(EX3, float(x)) for x in xs]
        assert gamma(EX3, np.float64(1.5)) == gamma(EX3, 1.5)

    def test_rejects_arrays_with_any_x_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            gamma(EX3, np.array([0.0, 2.0, -1.0]))
        with pytest.raises(ValueError):
            gamma(EX3, np.array([[0.5], [-3.0]]))
        with pytest.raises(ValueError):
            gamma(EX3, np.float64(-1.0))


class TestFindFixedPoints:
    def test_example1_origin_only(self):
        fps = find_fixed_points(EX1)
        assert fps.kind is FixedPointKind.SINGLE_ORIGIN
        assert len(fps.points) == 1
        origin = fps.points[0]
        assert origin.location == (0.0, 0.0)
        assert origin.formula is FormulaTag.ORIGIN
        assert origin.residual == 0.0

    def test_example3_two_points_closed_form(self):
        fps = find_fixed_points(EX3)
        assert fps.kind is FixedPointKind.TWO_POINTS
        assert fps.points[0].location == (0.0, 0.0)
        pos = fps.points[1]
        assert pos.formula is FormulaTag.PHI1_CLOSED_FORM
        assert pos.location.x == pytest.approx(1.5, abs=1e-12)
        assert pos.location.y == pytest.approx(9.0, abs=1e-12)
        assert pos.residual <= 1e-12

    def test_quadratic_death_two_points(self):
        fps = find_fixed_points(PHI2)
        assert fps.kind is FixedPointKind.TWO_POINTS
        pos = fps.points[1]
        assert pos.formula is FormulaTag.PHI2_CLOSED_FORM
        assert pos.location.x == pytest.approx(math.sqrt(6) - 1.0, abs=1e-12)
        assert pos.location.y == pytest.approx(1.183503419072274, abs=1e-12)
        assert fps.quad_discriminant == pytest.approx(6.0, abs=1e-12)

    def test_quadratic_death_beyond_squared_range(self):
        # b*b = (d0 + d1)**2 overflows; the positive root is still ~1/d1
        fps = find_fixed_points(validate(1.0, 2.0, 1.0, 0.0, 1e200))
        assert fps.kind is FixedPointKind.TWO_POINTS
        pos = fps.points[1]
        assert pos.formula is FormulaTag.PHI2_CLOSED_FORM
        assert math.isclose(pos.location.x, 1e-200, rel_tol=1e-15, abs_tol=0.0)
        assert math.isclose(pos.location.y, 1e-200, rel_tol=1e-15, abs_tol=0.0)
        assert pos.residual <= 1e-215

    def test_phi1_closed_form_beyond_the_double_range(self):
        # x = 1e300*(2 - 1)/1e-10 - 1 overflows
        with pytest.raises(ClosedFormOverflow, match=r"x = alpha\*\(beta - mu\)"):
            find_fixed_points(validate(1e300, 2.0, 1.0, 1e-10, 0.0))
        # x = 1e300 fits, but alpha*x in y = gamma(x) overflows
        with pytest.raises(ClosedFormOverflow, match=r"y = alpha\*x/\(mu\*\(1 \+ x\)\)"):
            find_fixed_points(validate(1e300, 2.0, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("rates, want", [
        # mu*d0 and alpha*(beta - mu) both underflow to 0
        ((1e-200, 3e-200, 1e-200, 1e-200, 0.0), (1.0, 0.5)),
        # mu*d0 underflows, and (beta - mu)/d0 alone would overflow
        ((1e-300, 10.0, 0.5, 3e-308, 0.0), (633333332.3333333, 1.9999999968421053e-300)),
    ])
    def test_phi1_closed_form_where_a_product_underflows(self, rates, want):
        p = validate(*rates)
        x, y = phi1_point(p)
        assert math.isclose(x, want[0], rel_tol=1e-15, abs_tol=0.0)
        assert math.isclose(y, want[1], rel_tol=1e-15, abs_tol=0.0)
        fps = find_fixed_points(p)
        assert fps.points[1].location == (x, y)

    def test_phi1_closed_form_keeps_the_bits_of_the_plain_expression(self):
        rng = np.random.default_rng(61)
        for p in sample_region("phi1", 2000, rng):
            plain = p.alpha * (p.beta - p.mu) / (p.mu * p.d0) - 1.0
            assert phi1_point(p).x == plain

    def test_matched_rates_continuum(self):
        fps = find_fixed_points(PSI)
        assert fps.kind is FixedPointKind.CONTINUUM
        assert len(fps.points) == len(DEFAULT_CONTINUUM_GRID)
        assert fps.sample_grid == DEFAULT_CONTINUUM_GRID
        by_x = {pt.location.x: pt for pt in fps.points}
        assert by_x[0.0].location.y == 0.0
        assert by_x[1.0].location.y == pytest.approx(0.5, abs=1e-15)
        for pt in fps.points:
            assert pt.formula is FormulaTag.CONTINUUM_SAMPLE
            assert abs(gamma(PSI, pt.location.x) - pt.location.y) <= 1e-15

    def test_continuum_custom_grid(self):
        fps = find_fixed_points(PSI, sample_grid=(0.0, 0.25, 4.0))
        assert [pt.location.x for pt in fps.points] == [0.0, 0.25, 4.0]

    def test_continuum_grid_must_stay_in_domain(self):
        with pytest.raises(ValueError):
            find_fixed_points(PSI, sample_grid=(-2.0, 0.0))

    def test_negative_discriminant_reported(self):
        p = validate(1.0, 0.2, 0.5, 0.1, 0.5)
        fps = find_fixed_points(p)
        assert fps.kind is FixedPointKind.SINGLE_ORIGIN
        assert fps.quad_discriminant == pytest.approx(-1.04, abs=1e-12)

    def test_growth_without_any_larval_death_gives_origin_only(self):
        # r0 > 1 but d0 = d1 = 0: the quadratic degenerates, no positive root
        p = validate(1.0, 2.0, 1.0, 0.0, 0.0)
        assert basic_offspring_number(p) > 1.0
        fps = find_fixed_points(p)
        assert fps.kind is FixedPointKind.SINGLE_ORIGIN


def test_discriminant_formula():
    assert discriminant(PHI2) == pytest.approx(6.0, abs=1e-12)
    # d1 = 0 collapses to d0^2
    assert discriminant(EX3) == pytest.approx(0.36, abs=1e-15)


def test_two_points_exactly_when_growth_meets_larval_death():
    rng = np.random.default_rng(13)
    for p in sample_region("omega", 2000, rng):
        fps = find_fixed_points(p)
        expected = basic_offspring_number(p) > 1.0 and (p.d0, p.d1) != (0.0, 0.0)
        assert (fps.kind is FixedPointKind.TWO_POINTS) == expected


def test_every_reported_point_is_fixed_under_the_step_map():
    rng = np.random.default_rng(17)
    for name in ("omega_star", "phi1", "phi2", "psi"):
        for p in sample_region(name, 300, rng):
            fps = find_fixed_points(p)
            for pt in fps.points:
                x, y = pt.location
                scale = max(1.0, abs(x), abs(y))
                assert step_residual(p, x, y) <= 1e-10 * scale
                assert pt.residual <= 1e-10 * scale


def test_positive_point_kills_the_quadratic():
    rng = np.random.default_rng(19)
    for p in sample_region("phi2", 1000, rng):
        fps = find_fixed_points(p)
        x = fps.points[1].location.x
        c = p.d0 + p.alpha * (1.0 - p.beta / p.mu)
        val = p.d1 * x * x + (p.d0 + p.d1) * x + c
        scale = max(1.0, abs(p.d1) * x * x, (p.d0 + p.d1) * x, abs(c))
        assert abs(val) <= 1e-9 * scale


def test_phi1_closed_form_matches_the_linear_death_balance():
    rng = np.random.default_rng(23)
    for p in sample_region("phi1", 1000, rng):
        fps = find_fixed_points(p)
        x = fps.points[1].location.x
        expect = p.alpha * (p.beta - p.mu) / (p.mu * p.d0) - 1.0
        assert abs(x - expect) <= 1e-12 * max(1.0, abs(expect))
