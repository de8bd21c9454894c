"""One-step map, orbit iteration with limit detection, and the local limit."""

import math

import numpy as np
import pytest

from mospop import dynamics
from mospop.dynamics import OrbitVerdict, Samples, local_limit, orbit
from mospop.fixed_points import (ClosedFormOverflow, State, find_fixed_points,
                                 fixed_point_locations, gamma, step)
from mospop.oracles import sample_region
from mospop.params import ConditionViolation, validate
from mospop.stability import FixedPointType, classify_fixed_point, declared_type_table

EX1 = validate(1.5, 0.4, 0.5, 0.0, 0.0)
EX3 = validate(6.0, 0.5, 0.4, 0.6, 0.0)

# Whole-orbit results that orbit must reproduce bit for bit.  Each entry
# holds rates, z0 and keyword arguments, then verdict, iterations_used,
# period, left_positive_quadrant, len(samples), the limit and the final
# sample (n, x, y), floats as float.hex.  Together they reach every exit of
# the loop but the float stall (tested below): convergence after failed
# candidates, each divergence, domain and quadrant exit, the budget, and a
# cycle found against the start state and against a later tortoise save.
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
    # steps fall below tol from step 6365, long before the origin is within
    # 10*tol; the save due at step 7166 falls on a failed candidate and moves
    # on with every later step, as each is one too
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
    # found at step 2, against the start
    "period_2_lookback": (
        (2.0, 1.0, 1.0, 0.0, 0.0),
        (0.3, 0.7), {},
        ("periodic", 2, 2, False, 3,
         None,
         (2, "0x1.3333333333331p-2", "0x1.6666666666667p-1")),
    ),
    # converges with an oscillating tail to (5.14157, 2.13451), which
    # stability types attracting (eigenvalues -0.947 and 0.416); its
    # two-step change falls below tol at step 196, 52 steps before its
    # one-step change does
    "oscillating_convergence_is_not_periodic": (
        (1.8229666590708402, 3.347623726066834, 0.7149836724323362,
         0.41901255275454363, 0.13107367650348334),
        (2.7300511689466695, 1.0613520718597766), {"tol": 1e-06},
        ("converged", 248, None, False, 249,
         ("0x1.490f6bcceb418p+2", "0x1.1137bca0dfd02p+1"),
         (248, "0x1.490f6dd579aa3p+2", "0x1.1137bc7804a82p+1")),
    ),
    # found 4 steps after the save at step 126
    "period_4_full_scan": (
        (3.5689349765964598, 36.032676901289264, 0.6702651031371167,
         0.001813489701501536, 0.008683269922283887),
        (0.4640761766499334, 2.9993656945920977), {"tol": 1e-06},
        ("periodic", 130, 4, False, 131,
         None,
         (130, "0x1.277847f56d884p+5", "0x1.4d772cdc3968fp+2")),
    ),
    # a chaotic orbit that dips out of the quadrant: over 40,000 steps the
    # lag-309 distance has median 2.47 and falls below tol on 10 steps
    # only (the first at step 10960), the lag-618 distance never
    "chaotic_near_return_stays_undecided": (
        (3.2954367571530585, 0.013308304816805516, 0.8803663151242577, 0.0, 0.0),
        (5.651011998976019, 2.706790382132781), {"tol": 0.001, "max_iter": 20000},
        ("undecided", 20000, None, True, 1033,
         None,
         (20000, "0x1.4934ed6375d66p+2", "-0x1.638a5cb836ec3p+2")),
    ),
    # a 4-cycle on the line x + y = const of a psi map with one step shorter
    # than tol, to a point with x < 0 where no curve point counts as near:
    # the candidates at steps 1 and 5 fail the convergence test and skip
    # the tortoise, and step 6 returns to the state saved at step 2
    "period_4_after_candidate_fails_on_scan_step": (
        (5.464895525258358, 0.6038363062545913, 0.6038363062545913, 0.0, 0.0),
        (2.7662819965799823, 0.5929544210696154), {"tol": 6.628070314745864},
        ("periodic", 6, 4, True, 7,
         None,
         (6, "0x1.6d8e17477f1fep+5", "-0x1.52ae5fefb46d4p+5")),
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

# Orbits that converge with an oscillating tail, whose two-step change falls
# below tol (at steps 44, 49 and 71) before their one-step change does.
# None as z0 starts at 1.001 times the positive fixed point.
OSCILLATING_CONVERGENCE = [
    ((0.4622306960389202, 0.40539015862296846, 1.379671832364487,
      0.381346565586563, 0.0),
     (2.3412476427299618, 4.18758267367086)),
    ((4.125438523010321, 7.329224307114524, 0.661743336920234,
      0.8851003106243219, 0.010987817695780423),
     (4.026339987047999, 3.6567805050782214)),
    ((2.4552243346400258, 1.9155650976458398, 0.9480862262910698,
      0.8772565078978851, 0.0),
     None),
]


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
        assert res.samples.y[-1] == pytest.approx(3.75, abs=1e-2)

    def test_two_cycle_detected_immediately(self):
        p = validate(2.0, 1.0, 1.0, 0.0, 0.0)
        res = orbit(p, (0.3, 0.7))
        assert res.verdict is OrbitVerdict.PERIODIC
        assert res.period == 2
        assert res.iterations_used == 2

    @pytest.mark.parametrize("rates, z0", OSCILLATING_CONVERGENCE,
                             ids=["to_origin", "to_positive_point", "from_near_it"])
    def test_oscillating_convergence_is_not_periodic(self, rates, z0):
        p = validate(*rates)
        if z0 is None:
            z = find_fixed_points(p).points[-1].location
            assert z.x > 0.0
            z0 = (1.001 * z.x, 1.001 * z.y)
        res = orbit(p, z0)
        assert res.verdict is OrbitVerdict.CONVERGED
        assert classify_fixed_point(p, res.limit).type is FixedPointType.ATTRACTING

    def test_cycles_are_reported_within_the_save_schedule(self):
        # on x + y = 1 these rates give U(x) = (1 - x)/(1 + x), an involution
        corner = validate(2.0, 1.0, 1.0, 0.0, 0.0)
        rng = np.random.default_rng(59)
        cases = [(corner, (x, 1.0 - x), {}, 2) for x in rng.uniform(0.0, 1.0, 50)]
        for name in ("period_4_full_scan", "period_4_after_candidate_fails_on_scan_step"):
            rates, z0, kwargs, _ = GOLDEN_ORBITS[name]
            cases.append((validate(*rates), z0, kwargs, 4))
        # started three steps on, the last 4-cycle has its failed candidates
        # on steps 2, 6, 10, ..., where every save of the schedule 2, 6,
        # 14, ... would fall if none were moved
        p = validate(*rates)
        z = State(*z0)
        for _ in range(3):
            z = step(p, z)
        cases.append((p, z, kwargs, 4))
        # with beta = mu each line x + y = c is invariant, and the map on it
        # has cycles of odd and of long period
        for alpha, mu, s, period in ((5.436, 0.296, 2.906, 3), (3.747, 0.7, 0.894, 7),
                                     (2.39, 0.374, 0.099, 32)):
            cases.append((validate(alpha, mu, mu, 0.0, 0.0), (s, s), {}, period))
        for p, z0, kwargs, period in cases:
            tol = kwargs.get("tol", 1e-9)
            res = orbit(p, z0, **kwargs)
            assert (res.verdict, res.period) == (OrbitVerdict.PERIODIC, period)
            zs = [State(*z0)]
            for _ in range(res.iterations_used + period):
                zs.append(step(p, zs[-1]))
            # every state from step `entered` on returns within tol
            entered = 1 + max([-1] + [n for n in range(len(zs) - period)
                                      if not (abs(zs[n + period].x - zs[n].x) < tol
                                              and abs(zs[n + period].y - zs[n].y) < tol)])
            # the latest report that orbit's docstring states
            m = max(entered, period - 2)
            assert res.iterations_used <= min(2 * m, m + 1023) + 2 * period - 1
            final = res.samples[-1][1]
            z = final
            for _ in range(period):
                z = step(p, z)
            assert abs(z.x - final.x) < tol and abs(z.y - final.y) < tol

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

    def test_samples_are_columns_read_as_pairs(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=5)
        pairs = [(0, State(5.0, 4.0))]
        for n in range(1, 6):
            pairs.append((n, step(EX1, pairs[-1][1])))
        s = res.samples
        assert isinstance(s, Samples)
        assert (s.n, s.x, s.y) == tuple(zip(*[(n, z.x, z.y) for n, z in pairs]))
        assert len(s) == 6
        # an int index, negative too, reads the pair (n, State)
        assert s[0] == pairs[0] and s[2] == pairs[2] and s[-1] == pairs[-1]
        assert type(s[-1][1]) is State
        with pytest.raises(IndexError):
            s[6]
        # equal column by column, unequal when a column differs
        twin = Samples(list(s.n), list(s.x), list(s.y))
        assert twin == s and not twin != s
        assert s != Samples(s.n, s.x, s.x)
        assert s != Samples(s.n[:-1], s.x[:-1], s.y[:-1])
        # so one orbit run twice gives equal results
        assert orbit(EX1, (5.0, 4.0), max_iter=5) == res
        with pytest.raises(ValueError):
            Samples((0, 1), (0.0,), (0.0,))

    def test_an_orbit_builds_no_state_per_step(self, monkeypatch):
        built = 0

        def counted(x, y):
            nonlocal built
            built += 1
            return State(x, y)

        monkeypatch.setattr(dynamics, "State", counted)
        # 669 steps, every one of them sampled, to a divergence verdict
        res = orbit(validate(2.0, 375000.5, 0.5, 0.0, 0.0), (1.0, 1.0))
        assert (res.verdict, len(res.samples)) == (OrbitVerdict.DIVERGED_X, 670)
        assert built == 0
        # 265 steps to a converged verdict: only the limit is built
        res = orbit(EX1, (5.0, 4.0))
        assert (res.verdict, len(res.samples)) == (OrbitVerdict.CONVERGED, 266)
        assert built == 1
        # reading a sample builds its pair
        assert res.samples[-1][1] == (res.samples.x[-1], res.samples.y[-1])
        assert built == 2

    def test_sample_indices_start_dense(self):
        res = orbit(EX1, (5.0, 4.0), max_iter=50)
        assert res.samples.n[:6] == (0, 1, 2, 3, 4, 5)

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
        assert res.samples == Samples((0, 1), (0.5, 0.5), (0.5, 0.5))
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

    def test_a_phi2_point_beyond_the_double_range_is_no_target(self):
        # the phi2 closed form overflows to (inf, nan) at these rates; the
        # orbit skips that point rather than failing on it, and stops at
        # the origin, which the map fixes
        p = validate(5.789738304514491e-128, 1.2732347862781518e+288,
                     6.90982348082502e-230, 1.9255630303276417e+154,
                     2.3870432366756736e-07)
        x2, y2, _ = fixed_point_locations(p)[1][1]
        assert math.isinf(x2) and math.isnan(y2)
        res = orbit(p, (0.0, 0.0))
        assert res.verdict is OrbitVerdict.CONVERGED
        assert (res.iterations_used, res.limit) == (1, (0.0, 0.0))

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
        assert local_limit(validate(0.4, 0.3, 0.5, 0.2, 0.0), (1.0, 1.0)) == (0.0, 0.0)

    def test_above_threshold_prediction_is_the_positive_point(self):
        got = local_limit(validate(0.5, 1.5, 0.5, 0.25, 0.0), (1.0, 1.0))
        assert got == (3.0, 0.75)

    def test_threshold_equality_goes_to_extinction(self):
        assert local_limit(validate(0.5, 2.0, 1.0, 0.5, 0.0), (1.0, 1.0)) == (0.0, 0.0)

    def test_no_linear_death_grows_without_bound(self):
        got = local_limit(validate(0.5, 1.5, 0.5, 0.0, 0.0), (1.0, 1.0))
        assert got.x == math.inf
        assert got.y == pytest.approx(1.0, abs=1e-15)

    def test_prediction_matches_a_real_orbit(self):
        p = validate(0.5, 1.5, 0.5, 0.25, 0.0)
        res = orbit(p, (3.01, 0.76))
        assert res.verdict is OrbitVerdict.CONVERGED
        assert res.limit == local_limit(p, (3.01, 0.76))

    def test_psi_limit_is_the_continuum_point_on_the_start_line(self):
        # x + y is conserved on psi: from (1, 1) the orbit converges to the
        # point of x + gamma(x) = 2, not to the origin
        p = validate(0.5, 0.7, 0.7, 0.0, 0.0)
        got = local_limit(p, (1.0, 1.0))
        assert got.x + got.y == pytest.approx(2.0, rel=1e-15)
        assert got.y == gamma(p, got.x)
        assert got.x == pytest.approx(1.5642677672, rel=1e-10)
        assert local_limit(p, (0.0, 0.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("rates, z0", [
        ((1.0, 1e-320, 1e-320, 0.0, 0.0), (1.0, 1.0)),   # alpha/mu overflows
        ((1.0, 1e-308, 1e-308, 0.0, 0.0), (1e308, 1e308)),  # x0 + y0 overflows
        ((0.5, 0.5, 0.5, 0.0, 0.0), (1e308, 7e307)),
        ((0.5, 0.7, 0.7, 0.0, 0.0), (-0.5, 0.2)),  # left of the origin
    ])
    def test_psi_limit_at_extreme_scales(self, rates, z0):
        p = validate(*rates)
        got = local_limit(p, z0)
        assert got.x > -1.0 and got.y == gamma(p, got.x)
        assert got.x / 2 + got.y / 2 == pytest.approx(z0[0] / 2 + z0[1] / 2, rel=1e-15)

    def test_psi_limit_beyond_the_double_range_raises(self):
        with pytest.raises(ClosedFormOverflow, match="psi continuum point"):
            local_limit(validate(0.5, 0.7, 0.7, 0.0, 0.0), (1e308, 1e308))

    def test_psi_orbits_end_at_the_predicted_point(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            alpha, beta = rng.uniform(0.05, 1.0, 2).tolist()
            p = validate(alpha, beta, beta, 0.0, 0.0)
            z0 = tuple((10.0 ** rng.uniform(-3, 3, 2)).tolist())
            res = orbit(p, z0)
            want = local_limit(p, z0)
            assert res.verdict is OrbitVerdict.CONVERGED, (p, z0)
            assert res.limit.x == pytest.approx(want.x, rel=1e-6), (p, z0)
            assert res.limit.y == pytest.approx(want.y, rel=1e-6), (p, z0)

    def test_origin_start_stays_at_the_origin(self):
        # the map fixes the origin, whatever the rates predict elsewhere:
        # above threshold with d0 > 0 and with d0 = 0, below it, and on psi
        rng = np.random.default_rng(31)
        draws = [p for region in ("theta_star_theta1", "phi_star", "psi_star")
                 for p in sample_region(region, 40, rng)]
        for _ in range(40):
            alpha, mu = rng.uniform(0.05, 1.0, 2).tolist()
            draws.append(validate(alpha, mu * float(rng.uniform(1.001, 4.0)), mu, 0.0, 0.0))
        for p in draws:
            assert local_limit(p, (0.0, 0.0)) == orbit(p, (0.0, 0.0)).limit == (0.0, 0.0), p

    def test_requires_the_contraction_conditions(self):
        with pytest.raises(ConditionViolation):
            local_limit(EX1, (1.0, 1.0))  # alpha too large
        with pytest.raises(ConditionViolation):
            local_limit(validate(0.4, 0.3, 1.5, 0.2, 0.0), (1.0, 1.0))  # mu too large

    def test_both_regime_checks_state_one_condition(self):
        # local_limit and declared_type_table raise the one params class,
        # whose message spells the inequalities once
        messages = []
        for needs_the_regime in (lambda p: local_limit(p, (1.0, 1.0)), declared_type_table):
            with pytest.raises(ConditionViolation) as exc:
                needs_the_regime(EX1)
            messages.append(str(exc.value))
        text = " requires d1 = 0, alpha <= 1 - d0, mu <= 1 and d0 < 1"
        assert messages == ["local limit prediction" + text,
                            "the declared type table" + text]
