"""One-step map, orbit iteration with limit detection, and the local limit."""

import math

import numpy as np
import pytest

from mospop.dynamics import (
    ConditionViolation,
    OrbitVerdict,
    State,
    local_limit,
    orbit,
    step,
)
from mospop.fixed_points import find_fixed_points, gamma
from mospop.oracles import sample_region
from mospop.params import validate

EX1 = validate(1.5, 0.4, 0.5, 0.0, 0.0)
EX3 = validate(6.0, 0.5, 0.4, 0.6, 0.0)

# Whole-orbit results captured from the orbit loop before it was rewritten
# for speed; the rewrite must reproduce them bit for bit.  Each entry holds
# rates, z0 and keyword arguments, then verdict, iterations_used, period,
# left_positive_quadrant, len(samples), the limit and the final sample
# (n, x, y), floats as float.hex.  Together they reach every exit of the loop.
GOLDEN_ORBITS = {
    "origin": (
        (1.5, 0.4, 0.5, 0.0, 0.0),
        (5.0, 4.0), {},
        ("converged", 265, None, False, 266,
         ("0x0.0p+0", "0x0.0p+0"),
         (265, "0x1.7fe6b11a6310ap-29", "0x1.552e639202a7ap-27")),
    ),
    "positive_point": (
        (6.0, 0.5, 0.4, 0.6, 0.0),
        (50.0, 80.0), {},
        ("converged", 254, None, False, 255,
         ("0x1.7fffffffffffep+0", "0x1.1ffffffffffffp+3"),
         (254, "0x1.8000000d66ac6p+0", "0x1.20000004f8648p+3")),
    ),
    "psi_curve": (
        (0.5, 1.0, 1.0, 0.0, 0.0),
        (2.0, 0.1), {},
        ("converged", 9, None, False, 10,
         ("0x1.c7a5392f606c8p+0", "0x1.47d181a8d1a2cp-2"),
         (9, "0x1.c7a5392f606c8p+0", "0x1.47d181a8e4b46p-2")),
    ),
    # steps fall below tol long before the origin is within 10*tol,
    # on the scan steps 6979 and 7976 too
    "candidate_fails_on_scan_steps": (
        (0.005, 0.004, 0.008, 0.0, 0.0),
        (3.0, 3.0), {"tol": 1e-06},
        ("converged", 8620, None, False, 1024,
         ("0x0.0p+0", "0x0.0p+0"),
         (8620, "0x1.4f70ea4636de8p-17", "0x1.0dc613e3496bbp-17")),
    ),
    "fast_divergence": (
        (2.0, 375000.5, 0.5, 0.0, 0.0),
        (1.0, 1.0), {},
        ("diverged_x", 669, None, False, 670,
         None,
         (669, "0x1.dd13588ce1a77p+29", "0x1.fffffff763749p+1")),
    ),
    "slow_divergence": (
        (2.0, 2500.5, 0.5, 0.0, 0.0),
        (1.0, 1.0), {},
        ("diverged_x", 100003, None, False, 1050,
         None,
         (100003, "0x1.dcd787e4c927ep+29", "0x1.fffffff768f46p+1")),
    ),
    "custom_threshold": (
        (1.5, 0.5, 0.4, 0.0, 0.0),
        (10.0, 9.0), {"divergence_threshold": 1000.0},
        ("diverged_x", 2634, None, False, 1012,
         None,
         (2634, "0x1.f417ee0eac33fp+9", "0x1.df852694036f4p+1")),
    ),
    # the step past the threshold is the first with y < 0
    "diverges_leaving_the_quadrant": (
        (4.110981000522287, 47.69175236772225, 2.2249023080491126, 0.0, 0.0),
        (1.8898957278071227, 0.923278222661963), {"divergence_threshold": 1000.0},
        ("diverged_x", 13, None, True, 14,
         None,
         (13, "0x1.1260613fb01dap+10", "-0x1.9b290e460a898p-1")),
    ),
    # step 1 ends within tol of (0, 0), a state the orbit never had
    "first_step_lands_near_zero": (
        (1.5, 1e-12, 1.0, 0.0, 0.0),
        (0.0, 1.0), {},
        ("converged", 2, None, True, 3,
         ("0x0.0p+0", "0x0.0p+0"),
         (2, "-0x1.19799812db00ap-41", "0x1.a636641c4c216p-40")),
    ),
    "period_2_lookback": (
        (2.0, 1.0, 1.0, 0.0, 0.0),
        (0.3, 0.7), {},
        ("periodic", 2, 2, False, 3,
         None,
         (2, "0x1.3333333333331p-2", "0x1.6666666666667p-1")),
    ),
    "period_2_after_transient": (
        (1.8229666590708402, 3.347623726066834, 0.7149836724323362,
         0.41901255275454363, 0.13107367650348334),
        (2.7300511689466695, 1.0613520718597766), {"tol": 1e-06},
        ("periodic", 196, 2, False, 197,
         None,
         (196, "0x1.490f8f28f4dd0p+2", "0x1.1137b9da6adfap+1")),
    ),
    "period_4_full_scan": (
        (3.5689349765964598, 36.032676901289264, 0.6702651031371167,
         0.001813489701501536, 0.008683269922283887),
        (0.4640761766499334, 2.9993656945920977), {"tol": 1e-06},
        ("periodic", 997, 4, False, 998,
         None,
         (997, "0x1.8a6c217979004p+7", "0x1.421864a200246p+2")),
    ),
    # a long cycle that dips out of the quadrant
    "period_309_full_scan": (
        (3.2954367571530585, 0.013308304816805516, 0.8803663151242577, 0.0, 0.0),
        (5.651011998976019, 2.706790382132781), {"tol": 0.001, "max_iter": 20000},
        ("periodic", 10967, 309, True, 1027,
         None,
         (10967, "-0x1.8bb1f09f10400p-2", "0x1.3d88b9544b48ep-1")),
    ),
    # a 4-cycle on the line x + y = const of a psi map with one step shorter
    # than tol, to a point with x < 0 where no curve point counts as near:
    # scan step 997 lands there and fails the convergence test, and the
    # next scan, at 1994, finds the cycle
    "period_4_after_candidate_fails_on_scan_step": (
        (5.464895525258358, 0.6038363062545913, 0.6038363062545913, 0.0, 0.0),
        (2.7662819965799823, 0.5929544210696154), {"tol": 6.628070314745864},
        ("periodic", 1994, 4, True, 1009,
         None,
         (1994, "0x1.6d8e17477f1fep+5", "-0x1.52ae5fefb46d4p+5")),
    ),
    "domain_exit": (
        (1.0, 2.0, 0.5, 0.2, 0.8),
        (4.0, 0.05), {},
        ("undecided", 1, None, True, 2,
         None,
         (1, "-0x1.499999999999ap+3", "0x1.a666666666667p-1")),
    ),
    "non_finite_y": (
        (1.0, 1e-10, 10000000000.0, 0.0, 0.0),
        (1.0, 1e+300), {},
        ("undecided", 1, None, True, 2,
         None,
         (1, "0x1.485ce9e7a065fp+963", "-inf")),
    ),
    # x overflows to inf, which an infinite threshold does not catch
    "non_finite_x_infinite_threshold": (
        (1.0, 10000000000.0, 0.5, 0.0, 0.0),
        (1.0, 1e+300), {"divergence_threshold": math.inf},
        ("undecided", 1, None, False, 2,
         None,
         (1, "inf", "0x1.7e43c8800759cp+995")),
    ),
    "budget_exhausted": (
        (1.5, 0.4, 0.5, 0.0, 0.0),
        (5.0, 4.0), {"max_iter": 5},
        ("undecided", 5, None, False, 6,
         None,
         (5, "0x1.391086eca5030p+2", "0x1.47ee4fcf3e3a2p+1")),
    ),
    "left_quadrant": (
        (6.0, 0.2, 1.9, 0.9, 0.0),
        (0.1, 0.1), {"max_iter": 50},
        ("undecided", 3, None, True, 4,
         None,
         (3, "-0x1.7a1b70755a9dap+2", "0x1.69c29e1fc7b04p+3")),
    ),
}


class TestStep:
    def test_frozen_value(self):
        assert step(EX1, (1.0, 1.0)) == pytest.approx((0.65, 1.25), abs=1e-15)

    def test_origin_is_always_fixed(self):
        for p in (EX1, EX3, validate(1.0, 2.0, 0.5, 0.5, 0.5)):
            assert step(p, (0.0, 0.0)) == (0.0, 0.0)

    def test_example3_positive_point_is_fixed(self):
        nx, ny = step(EX3, (1.5, 9.0))
        assert nx == pytest.approx(1.5, abs=1e-12)
        assert ny == pytest.approx(9.0, abs=1e-12)

    def test_returns_named_state(self):
        out = step(EX1, (1.0, 1.0))
        assert isinstance(out, State)
        assert out.x == out[0] and out.y == out[1]

    def test_domain_boundary(self):
        with pytest.raises(ValueError):
            step(EX1, (-1.0, 0.0))
        step(EX1, (-0.5, 0.0))  # interior of the extended domain is fine

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValueError):
            step(EX1, (math.nan, 0.0))
        with pytest.raises(ValueError):
            step(EX1, (0.0, math.inf))

    def test_matched_rates_conserve_total_population(self):
        p = validate(2.0, 0.8, 0.8, 0.0, 0.0)
        rng = np.random.default_rng(47)
        for _ in range(500):
            x = float(rng.uniform(0.0, 5.0))
            y = float(rng.uniform(0.0, 5.0))
            nx, ny = step(p, (x, y))
            assert abs((nx + ny) - (x + y)) <= 1e-14 * max(1.0, x + y)


class TestOrbit:
    def test_example1_collapses_to_the_origin(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=100_000)
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.limit == (0.0, 0.0)
        assert res.iterations_used < 1000
        n, final = res.samples[-1]
        assert n == res.iterations_used
        assert max(abs(final.x), abs(final.y)) <= 1e-6

    def test_example3_settles_on_the_positive_point(self):
        res = orbit(EX3, (50.0, 80.0), max_iter=100_000)
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.iterations_used == 254  # deterministic, pinned
        assert res.limit.x == pytest.approx(1.5, abs=1e-6)
        assert res.limit.y == pytest.approx(9.0, abs=1e-6)
        assert not res.left_positive_quadrant

    def test_runaway_larvae_with_saturating_adults(self):
        p = validate(1.5, 0.5, 0.4, 0.0, 0.0)
        res = orbit(p, (10.0, 9.0), divergence_threshold=1e3)
        assert res.verdict is OrbitVerdict.DIVERGED_X
        assert res.limit is None
        # adults track alpha/mu once the larval pool saturates the uptake
        assert res.y_limit_estimate == pytest.approx(3.75, abs=1e-2)

    def test_two_cycle_detected_immediately(self):
        p = validate(2.0, 1.0, 1.0, 0.0, 0.0)
        res = orbit(p, (0.3, 0.7))
        assert res.verdict is OrbitVerdict.PERIODIC
        assert res.period == 2
        assert res.iterations_used == 2

    def test_budget_exhaustion_reports_undecided(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=5)
        assert res.verdict is OrbitVerdict.UNDECIDED
        assert res.iterations_used == 5
        assert res.limit is None and res.period is None

    def test_samples_are_exact_iterates(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=5000)
        z = (5.0, 4.0)
        expect = {0: State(*z)}
        for n in range(1, res.iterations_used + 1):
            z = step(EX1, z)
            expect[n] = z
        for n, state in res.samples:
            assert state == expect[n]  # bitwise, no tolerance

    def test_sample_indices_start_dense(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=50)
        assert [n for n, _ in res.samples[:6]] == [0, 1, 2, 3, 4, 5]

    def test_leaving_the_quadrant_is_flagged_not_fatal(self):
        p = validate(6.0, 0.2, 1.9, 0.9, 0.0)
        res = orbit(p, (0.1, 0.1), max_iter=50)
        assert res.left_positive_quadrant

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            orbit(EX1, (1.0, 1.0), max_iter=0)
        with pytest.raises(ValueError):
            orbit(EX1, (1.0, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            orbit(EX1, (1.0, 1.0), tol=math.nan)
        with pytest.raises(ValueError):
            orbit(EX1, (1.0, 1.0), divergence_threshold=0.0)
        with pytest.raises(ValueError):
            orbit(EX1, (-2.0, 1.0))
        with pytest.raises(ValueError):
            orbit(EX1, (math.nan, 1.0))

    def test_converged_limits_are_enumerated_fixed_points(self):
        rng = np.random.default_rng(53)
        for p in sample_region("theta_star_theta1", 60, rng):
            res = orbit(p, (0.5, 0.5), max_iter=20_000)
            if res.verdict is not OrbitVerdict.CONVERGED:
                continue
            pts = find_fixed_points(p).points
            assert any(
                max(abs(res.limit.x - q.location.x), abs(res.limit.y - q.location.y))
                <= 1e-7
                for q in pts
            )

    @pytest.mark.parametrize("name", list(GOLDEN_ORBITS))
    def test_golden_orbit_bit_for_bit(self, name):
        rates, z0, kwargs, expected = GOLDEN_ORBITS[name]
        res = orbit(validate(*rates), z0, **kwargs)
        n, final = res.samples[-1]
        limit = None if res.limit is None else (res.limit.x.hex(), res.limit.y.hex())
        got = (res.verdict.value, res.iterations_used, res.period,
               res.left_positive_quadrant, len(res.samples), limit,
               (n, final.x.hex(), final.y.hex()))
        assert got == expected

    def test_a_state_the_float_map_fixes_stops_undecided(self):
        # every term but x and y rounds away at these rates, so a step
        # returns (0.5, 0.5) bit for bit; the fixed points are (0, 0) and
        # (1, 0.5), so the orbit stops undecided at step 1, not at max_iter
        p = validate(1e-200, 3e-200, 1e-200, 1e-200, 0.0)
        assert step(p, (0.5, 0.5)) == (0.5, 0.5)
        res = orbit(p, (0.5, 0.5))
        assert res.verdict is OrbitVerdict.UNDECIDED
        assert (res.iterations_used, res.limit) == (1, None)
        assert res.samples == ((0, (0.5, 0.5)), (1, (0.5, 0.5)))
        # a state the map fixes near a fixed point still converges
        res = orbit(p, (1.0, 0.5))
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.limit == (1.0, 0.5)

    def test_domain_exit_needs_no_fixed_points(self):
        # the phi1 root of these rates lies beyond the double range, so
        # find_fixed_points raises; the orbit leaves the domain in one step
        # and never asks for it
        p = validate(1e300, 2.0, 1.0, 1e-10, 0.0)
        with pytest.raises(ValueError):
            find_fixed_points(p)
        res = orbit(p, (1.0, 1.0))
        assert res.verdict is OrbitVerdict.UNDECIDED
        assert res.iterations_used == 1
        assert res.left_positive_quadrant

    def test_matched_rates_orbit_lands_on_the_curve(self):
        p = validate(0.5, 1.0, 1.0, 0.0, 0.0)
        res = orbit(p, (2.0, 0.1), max_iter=100_000)
        assert res.verdict is OrbitVerdict.CONVERGED
        assert abs(res.limit.y - gamma(p, res.limit.x)) <= 1e-8

    def test_curve_point_left_of_the_origin_is_a_limit(self):
        # every (x, gamma(x)) with -1 < x < 0 is fixed too; such a limit
        # used to be out of reach, so this orbit ran out its budget
        p = validate(0.4242591665637453, 0.8241239267624378,
                     0.8241239267624378, 0.0, 0.0)
        res = orbit(p, (-0.13368015321381987, 0.0), max_iter=1000)
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.iterations_used == 18
        assert res.left_positive_quadrant
        assert res.limit.x < 0.0
        assert abs(res.limit.y - gamma(p, res.limit.x)) <= 1e-8


class TestLocalLimit:
    def test_subthreshold_prediction_is_extinction(self):
        assert local_limit(validate(0.4, 0.3, 0.5, 0.2, 0.0)) == (0.0, 0.0)

    def test_above_threshold_prediction_is_the_positive_point(self):
        got = local_limit(validate(0.5, 1.5, 0.5, 0.25, 0.0))
        assert got == (3.0, 0.75)

    def test_threshold_equality_goes_to_extinction(self):
        assert local_limit(validate(0.5, 2.0, 1.0, 0.5, 0.0)) == (0.0, 0.0)

    def test_no_linear_death_grows_without_bound(self):
        got = local_limit(validate(0.5, 1.5, 0.5, 0.0, 0.0))
        assert got.x == math.inf
        assert got.y == pytest.approx(1.0, abs=1e-15)

    def test_prediction_matches_a_real_orbit(self):
        p = validate(0.5, 1.5, 0.5, 0.25, 0.0)
        res = orbit(p, (3.01, 0.76))
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.limit == local_limit(p)

    def test_requires_the_contraction_conditions(self):
        with pytest.raises(ConditionViolation):
            local_limit(EX1)  # alpha too large
        with pytest.raises(ConditionViolation):
            local_limit(validate(0.4, 0.3, 1.5, 0.2, 0.0))  # mu too large
