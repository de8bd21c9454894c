"""Fixed-point enumeration and the closed forms behind it."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mospop.fixed_points import (
    DEFAULT_CONTINUUM_GRID,
    ClosedFormOverflow,
    FixedPointKind,
    FormulaTag,
    discriminant,
    find_fixed_points,
    fixed_point_locations,
    gamma,
    larval_quadratic,
    phi1_point,
    step,
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

    def test_accepts_numpy_scalars(self):
        assert gamma(EX3, np.float64(1.5)) == gamma(EX3, 1.5)

    def test_rejects_numpy_scalars_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            gamma(EX3, np.float64(-1.0))


class TestFixedPointLocations:
    @pytest.mark.parametrize("p, kind, tags", [
        (EX1, FixedPointKind.SINGLE_ORIGIN, [FormulaTag.ORIGIN]),
        (EX3, FixedPointKind.TWO_POINTS, [FormulaTag.ORIGIN, FormulaTag.PHI1_CLOSED_FORM]),
        (PHI2, FixedPointKind.TWO_POINTS, [FormulaTag.ORIGIN, FormulaTag.PHI2_CLOSED_FORM]),
        (PSI, FixedPointKind.CONTINUUM,
         [FormulaTag.CONTINUUM_SAMPLE] * len(DEFAULT_CONTINUUM_GRID)),
    ], ids=["omega_star", "phi1", "phi2", "psi"])
    def test_kind_tags_and_order_per_primary_region(self, p, kind, tags):
        got_kind, locations = fixed_point_locations(p)
        assert got_kind is kind
        assert [tag for _, _, tag in locations] == tags
        assert locations[0][:2] == (0.0, 0.0)
        if kind is FixedPointKind.CONTINUUM:
            assert tuple(x for x, _, _ in locations) == DEFAULT_CONTINUUM_GRID
        else:
            assert all(x > 0.0 and y > 0.0 for x, y, _ in locations[1:])
        assert [(x, y) for x, y, _ in locations] == [
            tuple(pt.location) for pt in find_fixed_points(p).points]

    def test_continuum_grid_must_stay_in_domain(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fixed_point_locations(PSI, sample_grid=(0.0, -0.5))


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
        assert tuple(pt.location.x for pt in fps.points) == DEFAULT_CONTINUUM_GRID
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


def test_phi2_point_is_within_4_ulps_of_the_exact_root():
    # a = d1 > 0 and b > 0, so a*x**2 + b*x + c increases for x > 0: the
    # exact root of the float coefficients lies between two x where the
    # rational value of the quadratic changes sign
    def ulps(x, n, toward):
        for _ in range(n):
            x = math.nextafter(x, toward)
        return x

    rng = np.random.default_rng(20261019)
    for p in sample_region("phi2", 2000, rng):
        a, b, c = map(Fraction, larval_quadratic(p))
        x = find_fixed_points(p).points[1].location.x
        lo, hi = Fraction(ulps(x, 4, 0.0)), Fraction(ulps(x, 4, math.inf))
        assert (a * lo + b) * lo + c <= 0 <= (a * hi + b) * hi + c


# x fits, but y = gamma(x) is about alpha/mu = 9.7e553
PHI2_Y_BEYOND = (1.51041395633044e+275, 8.74552075343304e-247, 1.5589363987788385e-279,
                 7.87881045432017e-197, 6.176065267504663e-150)


@pytest.mark.parametrize("rates, want", [
    # b - 4*(a/b)*c overflows, so the closed form gave inf/inf
    ((1.0, 1e298, 1e-10, 0.0, 1.0), (1e154, 1e10)),
    # sqrt(disc) overflows, so the closed form gave -2c/inf = 0: a second origin
    (PHI2_Y_BEYOND, (3.7039975881063645e+228, math.inf)),
])
def test_phi2_point_where_the_discriminant_overflows(rates, want):
    kind, (origin, (x, y, tag)) = fixed_point_locations(validate(*rates))
    assert (x, y, tag) == (*want, FormulaTag.PHI2_CLOSED_FORM)


def test_phi2_point_that_leaves_the_double_range_is_an_error():
    with pytest.raises(ValueError, match="state must be finite"):
        find_fixed_points(validate(*PHI2_Y_BEYOND))


def test_phi1_closed_form_matches_the_linear_death_balance():
    rng = np.random.default_rng(23)
    for p in sample_region("phi1", 1000, rng):
        fps = find_fixed_points(p)
        x = fps.points[1].location.x
        expect = p.alpha * (p.beta - p.mu) / (p.mu * p.d0) - 1.0
        assert abs(x - expect) <= 1e-12 * max(1.0, abs(expect))
