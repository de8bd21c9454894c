"""The one-dimensional map on the total-population simplex."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mospop.dynamics import step
from mospop.oracles import (
    fd_derivative,
    grid_period_scan,
    sample_invariance_pairs,
)
from mospop.params import SimplexClass, validate
from mospop.simplex import (
    OutsideInvariantRegion,
    Period2Kind,
    ShapeKind,
    SimplexParams,
    UOrbitKind,
    UOrbitNotConverged,
    UPointType,
    analyze,
    fixed_point_u,
    period2_set,
    simplex_invariant,
    u_derivative,
    u_map,
    u_orbit_limit,
    u_stability,
    x_minimum,
)
from samplers import sample_outside_pairs

CORNER = SimplexParams(2.0, 1.0)


def draw_classes(rng, n):
    """Parameter pairs tagged with their shape class, built by construction."""
    out = []
    for _ in range(n):
        beta = float(rng.uniform(0.05, 0.95))
        out.append((SimplexParams((1 - beta) * float(rng.uniform(0.1, 0.99)), beta), "C"))
        beta = float(rng.uniform(0.55, 0.99))
        alpha = 4 * (1 - beta) + (2 - 4 * (1 - beta)) * float(rng.uniform(0.01, 0.99))
        out.append((SimplexParams(alpha, beta), "D"))
        beta = float(rng.uniform(0.05, 0.9))
        alpha = (1 - beta) * (1.0 + float(rng.uniform(0.01, 0.99)))
        out.append((SimplexParams(alpha, beta), "E*"))
        # F* needs 2*(1-beta) below the invariance bound, so beta > (1-sqrt(1/2))/2
        beta = float(rng.uniform(0.16, 0.45))
        lo = 2 * (1 - beta)
        hi = 1 + 2 * math.sqrt(beta * (1 - beta))
        alpha = lo + (hi - lo) * float(rng.uniform(0.05, 0.95))
        out.append((SimplexParams(alpha, beta), "F*"))
    return out


class TestParamsAndMap:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            SimplexParams(0.0, 1.0)
        with pytest.raises(ValueError):
            SimplexParams(2.0, -0.5)
        with pytest.raises(ValueError):
            SimplexParams(math.nan, 1.0)

    def test_a_named_tuple_whose_copies_are_checked_too(self):
        sp = SimplexParams(1.5, 0.5)
        assert sp == (1.5, 0.5) and sp._replace(beta=1.0) == (1.5, 1.0)
        with pytest.raises(ValueError):
            sp._replace(alpha=0.0)
        with pytest.raises(ValueError):
            SimplexParams._make((1.0, math.inf))
        with pytest.raises(AttributeError):
            sp.alpha = 2.0

    def test_corner_map_is_a_moebius_reflection(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert u_map(CORNER, float(x)) == pytest.approx(
                (1 - x) / (1 + x), abs=1e-14
            )

    def test_corner_frozen_value(self):
        assert u_map(CORNER, 0.3) == pytest.approx(7.0 / 13.0, abs=1e-15)

    def test_unit_rates_map(self):
        sp = SimplexParams(1.0, 1.0)
        for x in np.linspace(0.0, 1.0, 21):
            assert u_map(sp, float(x)) == pytest.approx(1.0 / (1 + x), abs=1e-14)

    def test_endpoints(self):
        assert u_map(CORNER, 0.0) == 1.0
        assert u_map(CORNER, 1.0) == 0.0

    def test_corner_involution(self):
        for x in np.linspace(0.0, 1.0, 1001):
            assert abs(u_map(CORNER, u_map(CORNER, float(x))) - x) <= 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        for alpha, beta in sample_invariance_pairs(100, rng):
            sp = SimplexParams(alpha, beta)
            x = float(rng.uniform(0.05, 0.95))
            assert u_derivative(sp, x) == pytest.approx(
                fd_derivative(lambda t: u_map(sp, t), x), abs=1e-6
            )

    def test_first_coordinate_agrees_with_the_planar_map(self):
        # on the simplex y = 1 - x with matched rates, the planar step and
        # the interval map tell the same larval story
        rng = np.random.default_rng(61)
        for alpha, beta in sample_invariance_pairs(200, rng):
            p = validate(alpha, beta, beta, 0.0, 0.0)
            sp = SimplexParams(alpha, beta)
            x = float(rng.uniform(0.0, 1.0))
            nx, ny = step(p, (x, 1.0 - x))
            assert abs(nx - u_map(sp, x)) <= 1e-12
            assert abs((nx + ny) - 1.0) <= 1e-12


class TestInvariance:
    def test_corner_is_invariant_region_b(self):
        chk = simplex_invariant(CORNER)
        assert chk.invariant and chk.region is SimplexClass.B
        assert chk.witness is None

    def test_small_rates_region_a(self):
        chk = simplex_invariant(SimplexParams(0.5, 0.25))
        assert chk.invariant and chk.region is SimplexClass.A

    def test_outside_pair_has_a_concrete_witness(self):
        chk = simplex_invariant(SimplexParams(1.9, 0.1))
        assert not chk.invariant
        assert chk.region is SimplexClass.NONE
        assert 0.0 <= chk.witness <= 1.0
        assert not 0.0 <= chk.witness_image <= 1.0
        assert u_map(SimplexParams(1.9, 0.1), chk.witness) == chk.witness_image

    def test_inside_draws_keep_the_interval(self):
        rng = np.random.default_rng(67)
        grid = np.linspace(0.0, 1.0, 200)
        for alpha, beta in sample_invariance_pairs(300, rng):
            sp = SimplexParams(alpha, beta)
            vals = [u_map(sp, float(x)) for x in grid]
            assert min(vals) >= -1e-12 and max(vals) <= 1.0 + 1e-12

    def test_outside_draws_escape(self):
        rng = np.random.default_rng(71)
        for alpha, beta in sample_outside_pairs(100, rng):
            chk = simplex_invariant(SimplexParams(alpha, beta))
            assert not chk.invariant and chk.witness is not None


class TestFixedPointAndStability:
    def test_corner_fixed_point(self):
        assert fixed_point_u(CORNER) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)

    def test_unit_rates_fixed_point_is_inverse_golden_ratio(self):
        assert fixed_point_u(SimplexParams(1.0, 1.0)) == pytest.approx(
            (math.sqrt(5) - 1) / 2, abs=1e-15
        )

    def test_fixed_point_solves_u(self):
        rng = np.random.default_rng(73)
        for alpha, beta in sample_invariance_pairs(500, rng):
            sp = SimplexParams(alpha, beta)
            xs = fixed_point_u(sp)
            assert 0.0 < xs < 1.0
            assert abs(u_map(sp, xs) - xs) <= 1e-12

    def test_weak_uptake_pushes_the_fixed_point_to_one(self):
        assert fixed_point_u(SimplexParams(1e-12, 0.5)) == pytest.approx(1.0, abs=1e-9)

    def test_corner_is_the_boundary_case(self):
        st_ = u_stability(CORNER)
        assert st_.u_prime_at_star == -1.0  # exactly
        assert st_.classification is UPointType.BOUNDARY

    def test_unit_rates_attract(self):
        st_ = u_stability(SimplexParams(1.0, 1.0))
        assert st_.u_prime_at_star == pytest.approx(-0.3819660112501051, abs=1e-12)
        assert st_.classification is UPointType.ATTRACTING

    def test_slope_formula_agrees_with_the_derivative_at_the_fixed_point(self):
        rng = np.random.default_rng(79)
        for alpha, beta in sample_invariance_pairs(1000, rng):
            sp = SimplexParams(alpha, beta)
            assert abs(
                u_stability(sp).u_prime_at_star - u_derivative(sp, fixed_point_u(sp))
            ) <= 1e-12

    def test_inside_the_region_never_repels(self):
        rng = np.random.default_rng(83)
        for alpha, beta in sample_invariance_pairs(300, rng):
            assert u_stability(SimplexParams(alpha, beta)).classification is not (
                UPointType.REPELLING
            )


class TestShape:
    def test_minimum_location_frozen(self):
        assert x_minimum(SimplexParams(0.3, 0.8)) == pytest.approx(
            math.sqrt(1.5) - 1.0, abs=1e-12
        )

    def test_minimum_absent_for_monotone_classes(self):
        assert x_minimum(CORNER) is None
        assert x_minimum(SimplexParams(1.0, 1.0)) is None
        assert x_minimum(SimplexParams(0.1, 0.5)) is None

    def test_classes_match_derivative_signs(self):
        rng = np.random.default_rng(89)
        for sp, tag in draw_classes(rng, 40):
            a = analyze(sp)
            assert a.shape_class.value == tag
            if tag == "C":
                assert a.monotonic_shape is ShapeKind.INCREASING
                assert u_derivative(sp, 0.01) > 0 and u_derivative(sp, 0.99) > 0
            elif tag == "D":
                assert a.monotonic_shape is ShapeKind.DECREASING
                assert u_derivative(sp, 0.01) < 0 and u_derivative(sp, 0.99) < 0
            else:
                xm = a.x_min
                assert xm is not None and 0.0 < xm < 1.0
                assert u_derivative(sp, xm * 0.5) < 0
                assert u_derivative(sp, xm + (1 - xm) * 0.5) > 0
                assert abs(u_derivative(sp, xm)) <= 1e-10
                # the class cut alpha = 2*(1-beta) puts the valley at sqrt(2)-1
                if tag == "E*":
                    assert a.monotonic_shape is ShapeKind.VALLEY_LEFT
                    assert xm <= math.sqrt(2) - 1 + 1e-12
                else:
                    assert a.monotonic_shape is ShapeKind.VALLEY_RIGHT
                    assert xm >= math.sqrt(2) - 1 - 1e-12


class TestPeriodTwo:
    def test_corner_flips_the_whole_interval(self):
        p2 = period2_set(CORNER)
        assert p2.kind is Period2Kind.WHOLE_INTERVAL
        assert p2.roots == (0.0, 1.0)
        assert p2.containment_holds

    def test_attracting_interior_has_no_cycles(self):
        p2 = period2_set(SimplexParams(1.0, 0.5))
        assert p2.kind is Period2Kind.EMPTY
        assert p2.roots == ()
        assert not p2.containment_holds

    def test_point_cycle_outside_the_invariance_region(self):
        p2 = period2_set(SimplexParams(2.3, 0.5))
        assert p2.kind is Period2Kind.ROOTS
        assert len(p2.roots) == 1
        assert p2.roots[0] == pytest.approx(0.6958114029012633, abs=1e-10)
        assert p2.containment_holds  # 2.25 <= 2.3 <= 2.4

    def test_matched_unit_rates_degenerate_linearly(self):
        # beta = 1 kills the quadratic term; the surviving root sits at -1
        p2 = period2_set(SimplexParams(1.5, 1.0))
        assert p2.kind is Period2Kind.EMPTY

    def test_scan_agreement_inside_the_region(self):
        rng = np.random.default_rng(97)
        for alpha, beta in sample_invariance_pairs(60, rng):
            if math.hypot(alpha - 2.0, beta - 1.0) < 1e-3:
                continue
            sp = SimplexParams(alpha, beta)
            found = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=400)
            assert (len(found) == 0) == (period2_set(sp).kind is Period2Kind.EMPTY)

    def test_scan_confirms_the_outside_cycle(self):
        sp = SimplexParams(2.3, 0.5)
        found = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=2000)
        assert any(abs(r - 0.6958114029012633) <= 1e-8 for r in found)


class TestOrbits:
    def test_unit_rates_orbit_reaches_the_fixed_point(self):
        ob = u_orbit_limit(SimplexParams(1.0, 1.0), 0.0)
        assert ob.kind is UOrbitKind.FIXED_POINT
        assert ob.limit == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)
        assert ob.cycle is None
        assert ob.rate_estimate == pytest.approx(0.3819660112501051, abs=1e-3)

    def test_corner_orbit_is_a_two_cycle(self):
        ob = u_orbit_limit(CORNER, 0.3)
        assert ob.kind is UOrbitKind.TWO_CYCLE
        assert ob.cycle[0] == pytest.approx(0.3, abs=1e-12)
        assert ob.cycle[1] == pytest.approx(7.0 / 13.0, abs=1e-12)
        assert ob.limit is None

    def test_small_rates_orbit(self):
        ob = u_orbit_limit(SimplexParams(0.5, 0.25), 0.9)
        assert ob.kind is UOrbitKind.FIXED_POINT
        assert ob.limit == pytest.approx(math.sqrt(2) - 1, abs=1e-10)

    def test_outside_region_is_refused(self):
        with pytest.raises(OutsideInvariantRegion):
            u_orbit_limit(SimplexParams(1.9, 0.1), 0.5)

    def test_start_point_must_be_in_the_interval(self):
        with pytest.raises(ValueError):
            u_orbit_limit(CORNER, 1.5)

    def test_budget_exhaustion_raises_instead_of_guessing(self):
        with pytest.raises(UOrbitNotConverged, match="after 3 iterations"):
            u_orbit_limit(SimplexParams(1.0, 1.0), 0.0, tol=1e-12, max_iter=3)

    def test_budget_exhaustion_error_is_exported(self):
        import mospop

        assert mospop.UOrbitNotConverged is UOrbitNotConverged
        assert issubclass(UOrbitNotConverged, ValueError)
        assert not issubclass(UOrbitNotConverged, OutsideInvariantRegion)

    def test_starting_at_the_fixed_point_stays_there(self):
        sp = SimplexParams(1.0, 0.5)
        ob = u_orbit_limit(sp, fixed_point_u(sp))
        assert ob.kind is UOrbitKind.FIXED_POINT
        assert ob.iterations_used <= 2


class TestAnalyze:
    def test_corner_report(self):
        a = analyze(CORNER)
        assert a.invariance.region is SimplexClass.B
        assert a.x_star == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
        assert a.u_prime_at_star == -1.0
        assert a.stability is UPointType.BOUNDARY
        assert a.shape_class is SimplexClass.D
        assert a.monotonic_shape is ShapeKind.DECREASING
        assert a.period2.kind is Period2Kind.WHOLE_INTERVAL
        assert a.period2.roots == (0.0, 1.0)
        assert a.x_min is None
        assert a.proof_roots is None  # beta = 1 has no invariance quadratic

    def test_valley_report(self):
        a = analyze(SimplexParams(0.3, 0.8))
        assert a.shape_class is SimplexClass.E_STAR
        assert a.monotonic_shape is ShapeKind.VALLEY_LEFT
        assert a.x_min == pytest.approx(math.sqrt(1.5) - 1.0, abs=1e-12)
        assert a.period2.kind is Period2Kind.EMPTY
        assert a.stability is UPointType.ATTRACTING

    def test_proof_roots_bracket_the_failure_window(self):
        a = analyze(SimplexParams(2.0, 0.4))
        lo, hi = a.proof_roots
        assert lo == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-9)
        mid = 0.5 * (lo + hi)
        assert u_map(SimplexParams(2.0, 0.4), mid) < 0.0

    def test_proof_roots_absent_when_invariance_is_strict(self):
        assert analyze(SimplexParams(0.5, 0.25)).proof_roots is None


@given(
    st.floats(min_value=0.05, max_value=1.95),
    st.floats(min_value=0.05, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_fixed_point_is_always_interior_and_fixed(alpha, beta):
    sp = SimplexParams(alpha, beta)
    xs = fixed_point_u(sp)
    assert 0.0 < xs < 1.0
    assert abs(u_map(sp, xs) - xs) <= 1e-10
