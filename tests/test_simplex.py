"""The one-dimensional map on the total-population simplex."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mospop.fixed_points import step
from mospop.oracles import (
    fd_derivative,
    grid_period_scan,
    sample_invariance_pairs,
)
from mospop.params import SimplexClass, validate
from mospop.simplex import (
    OutsideInvariantRegion,
    Period2Kind,
    SimplexParams,
    UOrbitKind,
    UOrbitNotConverged,
    UPointType,
    analyze,
    fixed_point_u,
    fixed_point_u_array,
    fixed_point_u_of,
    period2_set,
    simplex_invariant,
    u_derivative,
    u_map,
    u_orbit_limit,
    x_minimum,
)
from samplers import sample_outside_pairs

CORNER = SimplexParams(2.0, 1.0)
MAX = sys.float_info.max


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
        assert chk.region is SimplexClass.B
        assert chk.witness is None

    def test_small_rates_region_a(self):
        chk = simplex_invariant(SimplexParams(0.5, 0.25))
        assert chk.region is SimplexClass.A

    def test_outside_pair_has_a_concrete_witness(self):
        chk = simplex_invariant(SimplexParams(1.9, 0.1))
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
            assert chk.region is SimplexClass.NONE and chk.witness is not None


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
        # U' at the computed x*, with no special case: the exact -1 comes out
        # 2**-52 above, and the 1e-12 band types it BOUNDARY
        a = analyze(CORNER)
        assert a.u_prime_at_star == -(1.0 - 2.0**-52)  # exactly
        assert a.stability is UPointType.BOUNDARY

    def test_unit_rates_attract(self):
        a = analyze(SimplexParams(1.0, 1.0))
        assert a.u_prime_at_star == pytest.approx(-0.3819660112501051, abs=1e-12)
        assert a.stability is UPointType.ATTRACTING

    @pytest.mark.parametrize("lo, hi", [(-12, 12), (-300, 300)])
    def test_multiplier_is_accurate_at_every_scale(self, lo, hi):
        # against 80 digits: within 8 ulps of |1 - beta| + alpha/(1 + x*)**2,
        # the size of the terms U'(x*) = 1 - beta - alpha/(1 + x*)**2 sums
        rng = np.random.default_rng(7)
        with localcontext() as ctx:
            ctx.prec = 80
            for alpha, beta in (10.0 ** rng.uniform(lo, hi, (20_000, 2))).tolist():
                up = analyze(SimplexParams(alpha, beta)).u_prime_at_star
                assert math.isfinite(up), (alpha, beta)
                a, b = Decimal(alpha), Decimal(beta)
                slope = a / (1 + 2 * b / ((a * a + 4 * b * b).sqrt() + a)) ** 2
                size = math.ulp(float(abs(1 - b) + slope))
                assert float(abs(Decimal(up) - (1 - b - slope))) <= 8 * size, (alpha, beta)

    def test_multiplier_where_alpha_is_twice_beta(self):
        # the exact value is 1 - 2*beta; it comes out within 2**-52 of it
        for beta in (0.5, 0.25, 0.75, 1.0):
            up = analyze(SimplexParams(2.0 * beta, beta)).u_prime_at_star
            assert abs(up - (1.0 - 2.0 * beta)) <= 2.0**-52

    def test_fixed_point_is_accurate_up_to_the_largest_double(self):
        # edge pairs, then rates 10**U(-323, 308.25), subnormals included:
        # x* is in [0, 1], and within 4 ulps of 80 digits wherever it is normal
        rng = np.random.default_rng(5)
        pairs = [(1.0, 1e308), (1.0, MAX), (MAX, 1.0), (MAX, MAX), (1e308, 1.0),
                 (5e-324, MAX), (MAX, 5e-324), (5e-324, 5e-324), (3.5e-323, 4.4e-323),
                 (1e-300, 1e300), (1e300, 1e-300)]
        pairs += (10.0 ** rng.uniform(-323, 308.25, (20_000, 2))).tolist()
        with localcontext() as ctx:
            ctx.prec = 80
            for alpha, beta in pairs:
                xs = fixed_point_u(SimplexParams(alpha, beta))
                assert 0.0 <= xs <= 1.0, (alpha, beta, xs)
                a, b = Decimal(alpha), Decimal(beta)
                exact = 2 * b / ((a * a + 4 * b * b).sqrt() + a)
                if exact >= Decimal(sys.float_info.min):
                    assert abs(Decimal(xs) - exact) <= 4 * Decimal(math.ulp(float(exact))), (
                        alpha, beta, xs)

    def test_inside_the_region_never_repels(self):
        rng = np.random.default_rng(83)
        for alpha, beta in sample_invariance_pairs(300, rng):
            assert analyze(SimplexParams(alpha, beta)).stability is not UPointType.REPELLING


def _ulps_apart(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want)


class TestFixedPointArray:
    """fixed_point_u_array against the scalar fixed_point_u_of."""

    def test_cells_within_four_ulps_of_the_scalar(self):
        rng = np.random.default_rng(29)
        alpha, beta = 10.0 ** rng.uniform(-300, 300, (2, 200_000))
        got = fixed_point_u_array(alpha, beta)
        assert got.shape == alpha.shape
        for a, b, x in zip(alpha.tolist(), beta.tolist(), got.tolist()):
            assert _ulps_apart(x, fixed_point_u_of(a, b)) <= 4, (a, b)

    @pytest.mark.parametrize("alpha, beta", [
        # rates near 1e-300 and subnormal: the denominator falls below 2**-960
        (np.array([1e-300, 3e-300, 2e-315])[:, None], np.array([1e-300, 2.5e-300, 7e-321])),
        # near the largest double: hypot(alpha/2, beta) + alpha/2 overflows
        (np.array([1.7e308, MAX, 1.5e308])[:, None], np.array([1e308, 1.5e308, 8e307])),
    ], ids=["below 2**-960", "overflowing"])
    def test_rescaled_cells_are_the_scalar_bit_for_bit(self, alpha, beta):
        with np.errstate(over="ignore"):
            den = np.hypot(0.5 * alpha, beta) + 0.5 * alpha
        assert not ((2.0**-960 <= den) & (den < math.inf)).any()
        got = fixed_point_u_array(alpha, beta)
        assert got.shape == (3, 3)
        for i, a in enumerate(alpha[:, 0].tolist()):
            for j, b in enumerate(beta.tolist()):
                assert float(got[i, j]).hex() == fixed_point_u_of(a, b).hex()

    def test_a_scalar_broadcasts_against_an_array(self):
        beta = np.array([0.25, 0.5, 1.0, 1e-300])
        got = fixed_point_u_array(2.0, beta)
        assert got.shape == (4,)
        assert all(_ulps_apart(x, fixed_point_u_of(2.0, b)) <= 4
                   for x, b in zip(got.tolist(), beta.tolist()))
        assert fixed_point_u_array(2.0, 1.0).shape == ()
        assert float(fixed_point_u_array(2.0, 1.0)) == pytest.approx(math.sqrt(2) - 1, rel=1e-15)

    def test_within_four_ulps_of_the_textbook_root_in_decimal(self):
        # (sqrt(alpha**2 + 4*beta**2) - alpha)/(2*beta) cancels about
        # 2*log10(alpha/beta) digits, so the context carries those on top
        # of 50
        rng = np.random.default_rng(31)
        alpha, beta = 10.0 ** rng.uniform(-300, 300, (2, 3_000))
        got = fixed_point_u_array(alpha, beta).tolist()
        for a, b, x in zip(alpha.tolist(), beta.tolist(), got):
            da, db = Decimal(a), Decimal(b)
            with localcontext() as ctx:
                ctx.prec = 50 + 2 * max(0, da.adjusted() - db.adjusted())
                exact = ((da * da + 4 * db * db).sqrt() - da) / (2 * db)
            want = float(exact)
            assert abs(Decimal(x) - exact) <= 4 * Decimal(math.ulp(want)), (a, b)


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
                assert u_derivative(sp, 0.01) > 0 and u_derivative(sp, 0.99) > 0
            elif tag == "D":
                assert u_derivative(sp, 0.01) < 0 and u_derivative(sp, 0.99) < 0
            else:
                xm = a.x_min
                assert xm is not None and 0.0 < xm < 1.0
                assert u_derivative(sp, xm * 0.5) < 0
                assert u_derivative(sp, xm + (1 - xm) * 0.5) > 0
                assert abs(u_derivative(sp, xm)) <= 1e-10
                # the class cut alpha = 2*(1-beta) puts the valley at sqrt(2)-1
                if tag == "E*":
                    assert xm <= math.sqrt(2) - 1 + 1e-12
                else:
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

    # for these alpha, U keeps [0, 1] right of its pole at -1, as the scan needs
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_beta_two_leaves_a_constant_and_no_cycle(self, alpha):
        # the cleared 2-cycle quadratic is the constant -alpha at beta = 2
        sp = SimplexParams(alpha, 2.0)
        assert period2_set(sp).kind is Period2Kind.EMPTY
        assert grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=400) == []

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_beta_three_has_no_cycle_and_no_containment(self, alpha):
        # 2x**2 + (alpha - 2)x - (alpha + 4) is negative at 0 and at 1
        sp = SimplexParams(alpha, 3.0)
        assert period2_set(sp) == (Period2Kind.EMPTY, (), False)
        assert grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=400) == []

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
        # |U'(x*)| is within 1e-8 of 1: U_ORBIT_MAX_ITER steps barely move the gap
        with pytest.raises(UOrbitNotConverged,
                           match=r"3\.140e-01 from the fixed point after 100000 iterations$"):
            u_orbit_limit(SimplexParams(1.99999999, 1.0), 0.1)

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

    # both have x* = 0.4142135623730951; the start is 5e-13 above it
    @pytest.mark.parametrize("sp", [CORNER, SimplexParams(1.0, 0.5)])
    def test_a_start_within_tol_of_the_fixed_point_reports_it(self, sp):
        x0 = 0.4142135623735951
        ob = u_orbit_limit(sp, x0)
        assert ob.kind is UOrbitKind.FIXED_POINT
        assert ob.limit == fixed_point_u(sp) != x0


class TestAnalyze:
    def test_corner_report(self):
        a = analyze(CORNER)
        assert a.invariance.region is SimplexClass.B
        assert a.x_star == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
        assert a.u_prime_at_star == -(1.0 - 2.0**-52)  # see analyze
        assert a.stability is UPointType.BOUNDARY
        assert a.shape_class is SimplexClass.D
        assert a.period2.kind is Period2Kind.WHOLE_INTERVAL
        assert a.period2.roots == (0.0, 1.0)
        assert a.x_min is None
        assert a.proof_roots is None  # beta = 1 has no invariance quadratic

    def test_valley_report(self):
        a = analyze(SimplexParams(0.3, 0.8))
        assert a.shape_class is SimplexClass.E_STAR
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
