"""Linearization, eigenvalue typing, and the declared-type audit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mospop.fixed_points import find_fixed_points, step
from mospop.oracles import fd_jacobian, sample_region
from mospop.params import ConditionViolation, birth_threshold, validate
from mospop.stability import (
    UNIT_CIRCLE_TOL,
    FixedPointType,
    NotAFixedPoint,
    _matrix_roots,
    classify_fixed_point,
    declared_type_table,
    eigenvalues,
    f_value,
    g_value,
    jacobian,
    jacobian_entries,
    modulus_type,
    spectral_radius_of,
)

EX1 = validate(1.5, 0.4, 0.5, 0.0, 0.0)
EX3 = validate(6.0, 0.5, 0.4, 0.6, 0.0)


class TestJacobian:
    def test_example1_origin(self):
        m = jacobian(EX1, (0.0, 0.0))
        assert np.allclose(m, [[-0.5, 0.4], [1.5, 0.5]], atol=1e-15)

    def test_example3_positive_point(self):
        m = jacobian(EX3, (1.5, 9.0))
        assert np.allclose(m, [[-0.56, 0.5], [0.96, 0.6]], atol=1e-12)

    def test_quadratic_death_contributes_minus_2_d1_x(self):
        p = validate(1.0, 2.0, 0.5, 0.5, 0.5)
        m = jacobian(p, (2.0, 1.0))
        # 1 - 0.5 - 2*0.5*2 - 1/9
        assert m[0, 0] == pytest.approx(-1.6111111111111112, abs=1e-12)
        assert m[1, 0] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_larval_coupling_fades_with_alpha(self):
        weak = jacobian(validate(1e-6, 1.0, 0.5, 0.1, 0.0), (0.3, 0.2))
        assert abs(weak[1, 0]) < 1e-6

    def test_entry_off_the_diagonal_is_beta(self):
        assert jacobian(EX1, (0.7, 0.1))[0, 1] == 0.4

    def test_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(29)
        for p in sample_region("omega", 200, rng):
            x = float(rng.uniform(0.0, 5.0))
            y = float(rng.uniform(0.0, 5.0))
            analytic = jacobian(p, (x, y))
            numeric = fd_jacobian(lambda a, b: step(p, (a, b)), (x, y))
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    def test_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            jacobian(EX1, (-1.0, 0.0))


class TestEigenvalues:
    def test_example1_symmetric_pair(self):
        eigs = eigenvalues(np.array([[-0.5, 0.4], [1.5, 0.5]]))
        assert eigs[0].real == pytest.approx(0.9219544457292888, abs=1e-12)
        assert eigs[1].real == pytest.approx(-0.9219544457292888, abs=1e-12)
        assert eigs[0].imag == 0.0 and eigs[1].imag == 0.0

    def test_identity(self):
        assert eigenvalues(np.eye(2)) == ((1 + 0j), (1 + 0j))

    def test_rotation_gives_conjugate_pair(self):
        assert eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]])) == (1j, -1j)

    def test_ordering_largest_modulus_first(self):
        eigs = eigenvalues(np.diag([0.5, -3.0]))
        assert eigs[0] == -3.0 and eigs[1] == 0.5

    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            m = rng.uniform(-5.0, 5.0, size=(2, 2))
            ours = eigenvalues(m)
            ref = sorted(
                np.linalg.eigvals(m), key=lambda lam: (-abs(lam), -lam.real, -lam.imag)
            )
            for a, b in zip(ours, ref):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_closed_form_matches_trace_discriminant_route(self):
        # with no quadratic death the pair is (2 - g +/- sqrt(f)) / 2
        rng = np.random.default_rng(37)
        for p in sample_region("phi1", 1000, rng):
            x = float(rng.uniform(0.0, 4.0))
            g = g_value(p, x)
            f = f_value(p, x)
            eigs = eigenvalues(jacobian(p, (x, 0.5)))
            assert f >= 0.0
            lam1 = (2.0 - g + math.sqrt(f)) / 2.0
            lam2 = (2.0 - g - math.sqrt(f)) / 2.0
            want = sorted([lam1, lam2], key=lambda v: (-abs(v), -v))
            for a, b in zip(eigs, want):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


    def test_nested_sequences_give_the_same_bits_as_arrays(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            m = rng.uniform(-5.0, 5.0, size=(2, 2)) * 10.0 ** rng.integers(-8, 9)
            want = [(v.real.hex(), v.imag.hex()) for v in eigenvalues(m)]
            for nested in (m.tolist(), tuple(map(tuple, m.tolist()))):
                got = [(v.real.hex(), v.imag.hex()) for v in eigenvalues(nested)]
                assert got == want

    @pytest.mark.parametrize("m", [
        [[1.0, 2.0], [3.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [[[1.0], [2.0]], [[3.0], [4.0]]],
        np.zeros((2, 3)),
        np.zeros((2, 2, 1)),
        np.zeros(4),
        "ab",
        5.0,
    ], ids=repr)
    def test_any_other_shape_is_rejected(self, m):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            eigenvalues(m)

    def test_determinant_overflow(self):
        # 3e200 * 1e200 overflows the determinant; the off-diagonal 1s shift
        # each eigenvalue by far less than an ulp
        assert eigenvalues([[3e200, 1.0], [1.0, 1e200]]) == (3e200 + 0j, 1e200 + 0j)
        assert eigenvalues([[0.0, 1e300], [-1e300, 0.0]]) == (1e300j, -1e300j)

    def test_eigenvalues_beyond_the_double_range_are_inf(self):
        assert eigenvalues([[1e308, 1e308], [1e308, 1e308]]) == (complex(math.inf), 0j)


class TestCharacteristicRoots:
    """_matrix_roots on matrices with a planted trace and determinant."""

    def test_discriminant_overflow(self):
        # tr*tr overflows although both roots are representable
        assert _matrix_roots(*_entries_with(4e200, 3e200)) == (4e200 + 0j, 0.75 + 0j)
        # 4*det overflows: roots +-sqrt(-det)
        lam1, lam2 = _matrix_roots(*_entries_with(0.0, -1e308))
        assert lam1.real == pytest.approx(1e154, rel=1e-15, abs=0.0)
        assert lam2.real == pytest.approx(-1e154, rel=1e-15, abs=0.0)
        # tr*tr - 4*det is inf - inf; the pair is complex, 1e154 +- sqrt(2e308)/2 i
        lam1, lam2 = _matrix_roots(*_entries_with(2e154, 1.5e308))
        assert lam1 == pytest.approx(complex(1e154, 7.0710678118654755e153),
                                     rel=1e-15, abs=0.0)
        assert lam2 == lam1.conjugate()

    def test_discriminant_underflow(self):
        # tr*tr is subnormal and keeps only a few bits of 1e-320; the
        # expected roots are the exact ones, rounded to double
        lam1, lam2 = _matrix_roots(*_entries_with(1e-160, 1e-321))
        assert lam1 == 8.875548213350831e-161 + 0j
        assert lam2 == 1.1244517866491689e-161 + 0j
        lam1, lam2 = _matrix_roots(*_entries_with(3e-162, 1e-323))
        assert lam1 == complex(1.5e-162, 2.7624831070659836e-162)
        assert lam2 == lam1.conjugate()

    def test_scaled_path_is_exact_in_the_normal_range(self):
        # a zero discriminant takes the scaled path; powers of two keep it exact
        assert _matrix_roots(*_entries_with(2.0, 1.0)) == (1 + 0j, 1 + 0j)
        assert _matrix_roots(*_entries_with(0.0, 0.0)) == (0j, 0j)
        assert _matrix_roots(*_entries_with(-6.0, 9.0)) == (-3 + 0j, -3 + 0j)

    def test_against_numpy_roots_across_scales(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            # roots up to 1e200 apart from zero, with a finite product
            e1 = rng.uniform(-200.0, 200.0)
            e2 = rng.uniform(max(-200.0, -300.0 - e1), min(200.0, 300.0 - e1))
            lam = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** np.array([e1, e2])
            tr, det = float(lam[0] + lam[1]), float(lam[0] * lam[1])
            ours = _matrix_roots(*_entries_with(tr, det))
            ref = sorted((complex(v) for v in np.roots([1.0, -tr, det])),
                         key=lambda v: (-abs(v), -v.real, -v.imag))
            for a, b in zip(ours, ref):
                assert abs(a - b) <= 1e-6 * abs(ref[0])


LOG_RATE = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


def _scalar_radius_hex(j00, j01, j10, j11) -> str:
    return abs(_matrix_roots(j00, j01, j10, j11)[0]).hex()


def _entries_with(tr: float, det: float) -> tuple[float, float, float, float]:
    """Jacobian entries whose trace and determinant are tr and det, signed
    zeros included (tr = det = -0.0 is the one pair no entries give)."""
    j11 = -0.0 if math.copysign(1.0, tr) < 0 or math.copysign(1.0, det) < 0 else 0.0
    entries = (tr, -det, 1.0, j11)
    got = entries[0] + entries[3], entries[0] * entries[3] - entries[1] * entries[2]
    assert [v.hex() for v in got] == [tr.hex(), det.hex()]
    return entries


# (tr, det) pairs with a signed-zero trace, named det-tr as before
SIGNED_ZERO_TRACES = [
    pytest.param(tr, det, id=f"{det}-{tr}")
    for det in (0.0, -0.0, 0.25, -0.25, 1e-310, -1e-310, 1e300, -1e300)
    for tr in (0.0, -0.0)
    if not (str(tr) == str(det) == "-0.0")
]


class TestSpectralRadius:
    """spectral_radius_of against the scalar solver, compared bit for bit."""

    @given(st.lists(st.tuples(LOG_RATE, LOG_RATE, LOG_RATE, st.just(0.0) | LOG_RATE,
                              st.just(0.0) | LOG_RATE), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_equals_matrix_roots_at_the_origin(self, rates):
        columns = (np.array(c) for c in zip(*rates))
        entries = jacobian_entries(*columns, 0.0)
        got = spectral_radius_of(*entries)
        assert got.shape == (len(rates),)
        for cell, r in zip(zip(*(np.asarray(j).tolist() for j in entries)),
                           got.tolist()):
            assert r.hex() == _scalar_radius_hex(*cell)

    @pytest.mark.parametrize("rates, reaches", [
        ((8.011558656841118e-11, 2.2585712852944462e-08, 9.112579545501377e-10),
         lambda disc: disc < 0.0),
        ((1e-200, 1e-200, 1e-200), lambda disc: disc == 0.0),
        ((1e200, 0.5, 0.5), lambda disc: disc == math.inf),
    ], ids=["rounded negative", "zero", "overflowing"])
    def test_planted_discriminant_branches(self, rates, reaches):
        j00, j01, j10, j11 = entries = jacobian_entries(*rates, 0.0, 0.0, 0.0)
        tr, det = j00 + j11, j00 * j11 - j01 * j10
        assert reaches(tr * tr - 4.0 * det)
        assert float(spectral_radius_of(*entries)).hex() == _scalar_radius_hex(*entries)

    @pytest.mark.parametrize("tr, det", SIGNED_ZERO_TRACES)
    def test_signed_zero_trace_as_plain_floats(self, tr, det):
        entries = _entries_with(tr, det)
        got = spectral_radius_of(*entries)
        assert got.shape == ()
        assert float(got).hex() == _scalar_radius_hex(*entries)

    def test_overflowing_determinant_is_scaled_not_inf(self):
        # det = -1*0 - 1e308*2 overflows; the eigenvalues are about
        # -0.5 +- sqrt(2e308), well inside the double range
        j00, j01, j10, j11 = entries = (-1.0, 1e308, 2.0, 0.0)
        assert j00 * j11 - j01 * j10 == -math.inf
        got = float(spectral_radius_of(*entries))
        assert got.hex() == _scalar_radius_hex(*entries)
        assert got == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)

    def test_broadcast_grid_mixes_both_paths_cell_by_cell(self):
        # j00 = 2 with det = 1 has a zero discriminant, 4e200 overflows
        # tr*tr and j01 = -3e200 with j10 = 1e200 overflows det: those cells
        # take the scalar solver, the rest the array path
        j00 = np.array([[2.0], [-1.5], [4e200], [0.0]])
        j01 = np.array([-1.0, -0.5, 2.0, -3e200])
        j10 = np.array([1.0, 1.0, 1.0, 1e200])
        got = spectral_radius_of(j00, j01, j10, 0.0)
        assert got.shape == (4, 4)
        for i, a in enumerate(j00[:, 0].tolist()):
            for j, (b, c) in enumerate(zip(j01.tolist(), j10.tolist())):
                assert float(got[i, j]).hex() == _scalar_radius_hex(a, b, c, 0.0)


class TestClassify:
    @given(LOG_RATE, LOG_RATE, LOG_RATE, st.just(0.0) | LOG_RATE,
           st.just(0.0) | LOG_RATE)
    @example(4347.0, 8.5e6, 1.8e-10, 0.0, 0.024)
    # a close eigenvalue pair just below 1 at the origin
    @example(2.3928868106350317e-12, 3.3124892075191155e-11,
             1.4828361822966769e-07, 0.0, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_every_closed_form_point_passes_the_gate(self, alpha, beta, mu, d0, d1):
        p = validate(alpha, beta, mu, d0, d1)
        for pt in find_fixed_points(p).points:
            rep = classify_fixed_point(p, pt.location)
            assert all(math.isfinite(abs(lam)) for lam in rep.eigenvalues)

    @given(LOG_RATE, LOG_RATE, LOG_RATE, st.just(0.0) | LOG_RATE)
    # a close eigenvalue pair just below 1 at the origin
    @example(2.3928868106350317e-12, 3.3124892075191155e-11,
             1.4828361822966769e-07, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_every_closed_form_point_passes_the_gate_at_d1_zero(self, alpha, beta, mu, d0):
        # with no second d1 = 0 typing left to disagree, the whole
        # classification runs on a close eigenvalue pair too
        p = validate(alpha, beta, mu, d0, 0.0)
        for pt in find_fixed_points(p).points:
            rep = classify_fixed_point(p, pt.location)
            assert rep.type is modulus_type(rep.eigenvalues)
            assert all(math.isfinite(abs(lam)) for lam in rep.eigenvalues)

    def test_paper_inequality_systems_agree_with_the_moduli(self):
        # for d1 = 0 the eigenvalues are (2 - g +- sqrt(f))/2; the paper types
        # a fixed point by inequalities in g and sqrt(f), evaluated here from
        # the rates, away from the unit circle
        rng = np.random.default_rng(59)
        checked = 0
        for name in ("phi1", "phi_star", "theta_star_theta1", "psi",
                     "psi_star", "omega_star"):
            for p in sample_region(name, 800, rng):
                if p.d1 != 0.0:
                    continue
                for pt in find_fixed_points(p).points:
                    rep = classify_fixed_point(p, pt.location)
                    margin = max(abs(abs(lam) - 1.0) for lam in rep.eigenvalues)
                    if rep.type is FixedPointType.NON_HYPERBOLIC or margin <= 1e-7:
                        continue
                    a = p.alpha / (1.0 + pt.location.x) ** 2
                    g = p.mu + p.d0 + a
                    sqrt_f = math.sqrt((p.mu - p.d0 - a) ** 2 + 4.0 * p.beta * a)
                    attract = ((0.0 < g <= 2.0 and sqrt_f < g)
                               or (2.0 < g < 4.0 and sqrt_f < 4.0 - g))
                    repel = ((g < 0.0 and sqrt_f < -g)
                             or (g > 4.0 and sqrt_f < g - 4.0))
                    assert attract == (rep.type is FixedPointType.ATTRACTING)
                    # both roots beyond -1 and 1 on opposite sides also repel,
                    # which the paper's repelling system does not cover
                    assert not repel or rep.type is FixedPointType.REPELLING
                    checked += 1
        assert checked > 3000

    @pytest.mark.parametrize("rates, z", [
        ((0.5, 0.5, 0.5, 0.0, 1.0), (1e200, 1.0)),      # d1*x*x overflows
        ((0.5, 1e12, 0.5, 0.0, 0.0), (1.0, 1e297)),     # beta*y overflows
        ((0.5, 0.5, 0.5, 0.9, 0.0), (1e308, 0.0)),      # finite step, sums overflow
    ])
    def test_gate_rejects_states_whose_terms_overflow(self, rates, z):
        with pytest.raises(NotAFixedPoint):
            classify_fixed_point(validate(*rates), z)

    def test_report_jacobian_is_the_array_of_its_entries(self):
        rep = classify_fixed_point(EX3, (1.5, 9.0))
        entries = jacobian_entries(EX3.alpha, EX3.beta, EX3.mu, EX3.d0, EX3.d1, 1.5)
        assert all(type(v) is float for v in entries)
        m = jacobian(EX3, (1.5, 9.0))
        assert isinstance(m, np.ndarray) and m.dtype == float
        j00, j01, j10, j11 = entries
        assert m.tolist() == [[j00, j01], [j10, j11]]
        assert eigenvalues(m) == rep.eigenvalues

    def test_gate_scales_with_the_terms_of_one_step(self):
        # (2, 2) moves by 4.2 in one step; the larval terms sum to 8.2
        with pytest.raises(NotAFixedPoint, match="tolerance 8.200e-09"):
            classify_fixed_point(EX3, (2.0, 2.0))
        with pytest.raises(NotAFixedPoint):
            classify_fixed_point(EX3, (2.0, 2.0), tol=0.5)
        classify_fixed_point(EX3, (2.0, 2.0), tol=0.52)

    def test_example1_origin_attracting(self):
        rep = classify_fixed_point(EX1, (0.0, 0.0))
        assert rep.type is FixedPointType.ATTRACTING
        assert abs(rep.eigenvalues[0]) < 1.0

    def test_example3_origin_repels(self):
        rep = classify_fixed_point(EX3, (0.0, 0.0))
        assert rep.type is FixedPointType.REPELLING
        assert rep.eigenvalues[0].real == pytest.approx(-6.051056180912941, abs=1e-10)
        assert rep.eigenvalues[1].real == pytest.approx(1.0510561809129406, abs=1e-10)

    def test_example3_positive_point_attracts(self):
        rep = classify_fixed_point(EX3, (1.5, 9.0))
        assert rep.type is FixedPointType.ATTRACTING
        assert rep.eigenvalues[0].real == pytest.approx(0.9235485598461214, abs=1e-12)
        assert rep.eigenvalues[1].real == pytest.approx(-0.8835485598461214, abs=1e-12)

    def test_non_fixed_state_rejected(self):
        with pytest.raises(NotAFixedPoint):
            classify_fixed_point(EX3, (2.0, 2.0))

    def test_g_and_f_at_the_origin(self):
        assert g_value(EX1, 0.0) == pytest.approx(2.0, abs=1e-15)
        assert f_value(EX1, 0.0) == pytest.approx(3.4, abs=1e-15)

    def test_tol_loosens_the_residual_gate(self):
        near = (1.5001, 9.0)
        with pytest.raises(NotAFixedPoint):
            classify_fixed_point(EX3, near)
        rep = classify_fixed_point(EX3, near, tol=1e-2)
        assert rep.type is FixedPointType.ATTRACTING

    @pytest.mark.parametrize("tol", [math.nan, 0.0])
    def test_tol_must_be_positive(self, tol):
        # NaN fails every comparison, so it would pass the residual gate
        with pytest.raises(ValueError, match="tol must be > 0"):
            classify_fixed_point(EX3, (2.0, 2.0), tol=tol)

    def test_matched_rates_curve_point_is_non_hyperbolic(self):
        p = validate(0.5, 1.0, 1.0, 0.0, 0.0)
        rep = classify_fixed_point(p, (1.0, 0.25))
        assert rep.eigenvalues[0] == 1.0  # exactly, by construction of the curve
        assert rep.type is FixedPointType.NON_HYPERBOLIC

    def test_threshold_equality_lands_on_the_circle(self):
        p = validate(0.5, 2.0, 1.0, 0.5, 0.0)
        rep = classify_fixed_point(p, (0.0, 0.0))
        assert rep.eigenvalues == ((1 + 0j), (-1 + 0j))
        assert rep.type is FixedPointType.NON_HYPERBOLIC


def test_modulus_type_band():
    assert modulus_type((0.5 + 0j, -0.2 + 0j)) is FixedPointType.ATTRACTING
    assert modulus_type((2.0 + 0j, -1.5 + 0j)) is FixedPointType.REPELLING
    assert modulus_type((2.0 + 0j, 0.5 + 0j)) is FixedPointType.SADDLE
    assert modulus_type((1.0 + 0j, 0.5 + 0j)) is FixedPointType.NON_HYPERBOLIC
    near = 1.0 + 0.5 * UNIT_CIRCLE_TOL
    assert modulus_type((near + 0j, 0.5 + 0j)) is FixedPointType.NON_HYPERBOLIC
    # fl(1 + 1e-9) lies just outside the band: r - 1 is about 1.00000008e-9
    r = float.fromhex("0x1.000000044b830p+0")
    assert r == 1.0 + UNIT_CIRCLE_TOL and r - 1.0 > UNIT_CIRCLE_TOL
    assert modulus_type((r + 0j, r + 0j)) is FixedPointType.REPELLING


class TestDeclaredTable:
    def test_contraction_wedge_origin_attracting(self):
        rows = declared_type_table(validate(0.4, 0.3, 0.5, 0.2, 0.0))
        assert len(rows) == 1
        row = rows[0]
        assert row.location == (0.0, 0.0)
        assert row.declared is FixedPointType.ATTRACTING
        assert row.numeric is FixedPointType.ATTRACTING
        assert row.agrees

    def test_growth_wedge_positive_point_attracting(self):
        rows = declared_type_table(validate(0.9, 2.0, 0.95, 0.05, 0.0))
        pos = [r for r in rows if r.location.x > 0.0]
        assert len(pos) == 1
        assert pos[0].declared is FixedPointType.ATTRACTING
        assert pos[0].numeric is FixedPointType.ATTRACTING
        assert pos[0].agrees

    def test_declared_saddle_can_lose_to_the_moduli(self):
        # strong coupling flips the second eigenvalue below -1, so the
        # origin really repels even though the table calls it a saddle;
        # the audit records the disagreement instead of hiding it
        rows = declared_type_table(validate(0.9, 2.0, 0.95, 0.05, 0.0))
        origin = rows[0]
        assert origin.declared is FixedPointType.SADDLE
        assert origin.numeric is FixedPointType.REPELLING
        assert not origin.agrees

    def test_no_linear_death_variant_of_the_same_failure(self):
        rows = declared_type_table(validate(1.0, 2.0, 1.0, 0.0, 0.0))
        assert rows[0].declared is FixedPointType.SADDLE
        assert rows[0].numeric is FixedPointType.REPELLING
        assert not rows[0].agrees

    def test_flip_boundary_is_exactly_minus_one(self):
        # alpha*beta = (2-mu)*(2-alpha-d0) puts the second eigenvalue at -1;
        # these floats make every intermediate exact
        p = validate(1.0, 1.5, 0.5, 0.0, 0.0)
        rep = classify_fixed_point(p, (0.0, 0.0))
        assert rep.eigenvalues[1] == (-1 + 0j)
        assert rep.type is FixedPointType.NON_HYPERBOLIC
        rows = declared_type_table(p)
        assert rows[0].declared is FixedPointType.SADDLE
        assert rows[0].agrees  # modulus exactly 1 lands in the saddle bucket

    def test_threshold_equality_defers_to_numeric(self):
        rows = declared_type_table(validate(0.5, 2.0, 1.0, 0.5, 0.0))
        row = rows[0]
        assert row.declared is None
        assert row.numeric is FixedPointType.NON_HYPERBOLIC
        assert row.agrees
        assert "deferred" in row.note

    def test_matched_rates_rows_all_declared_saddle(self):
        rows = declared_type_table(validate(0.5, 1.0, 1.0, 0.0, 0.0))
        assert len(rows) >= 3
        for row in rows:
            assert row.declared is FixedPointType.SADDLE
            assert row.numeric is FixedPointType.NON_HYPERBOLIC
            assert row.agrees

    def test_outside_the_quadrant_preserving_set(self):
        with pytest.raises(ConditionViolation, match="^the declared type table requires "):
            declared_type_table(EX1)

    def test_origin_saddle_where_the_coupling_is_weak(self):
        # below-threshold growth reversed: beta above threshold with
        # alpha*beta < (2-mu)*(2-alpha), where the saddle claim is provable
        rng = np.random.default_rng(41)
        for _ in range(300):
            alpha = float(rng.uniform(0.05, 0.95))
            mu = float(rng.uniform(0.05, 0.95))
            cap = (2.0 - mu) * (2.0 - alpha) / alpha
            beta = mu + (0.999 * cap - mu) * float(rng.uniform(0.01, 0.99))
            p = validate(alpha, beta, mu, 0.0, 0.0)
            assert beta > birth_threshold(p)
            rows = declared_type_table(p)
            assert rows[0].declared is FixedPointType.SADDLE
            assert rows[0].numeric is FixedPointType.SADDLE
            assert rows[0].agrees

    @given(st.builds(lambda name, seed: sample_region(name, 1, np.random.default_rng(seed))[0],
                     st.sampled_from(("theta_star_theta1", "phi_star", "psi_star")),
                     st.integers(0, 2**32 - 1)))
    @example(validate(0.5, 2.0, 1.0, 0.5, 0.0))  # beta on the threshold
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_fixed_point_enumeration(self, p):
        def bits(locations):
            return [(x.hex(), y.hex()) for x, y in locations]

        rows = declared_type_table(p)
        pts = find_fixed_points(p).points
        assert bits(r.location for r in rows) == bits(pt.location for pt in pts)
