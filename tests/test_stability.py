"""Linearization, eigenvalue typing, and the declared-type audit."""

import math

import numpy as np
import pytest

from mospop.fixed_points import find_fixed_points
from mospop.oracles import fd_jacobian, sample_region
from mospop.params import birth_threshold, validate
from mospop.stability import (
    UNIT_CIRCLE_TOL,
    FixedPointType,
    NotAFixedPoint,
    OutsideDeclaredRegion,
    classify_fixed_point,
    coarse_type,
    declared_type_table,
    eigenvalues,
    f_value,
    g_value,
    jacobian,
    modulus_type,
)
from mospop.dynamics import step

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


class TestClassify:
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

    def test_report_carries_g_and_f(self):
        rep = classify_fixed_point(EX1, (0.0, 0.0))
        assert rep.g_value == pytest.approx(2.0, abs=1e-15)
        assert rep.f_value == pytest.approx(3.4, abs=1e-15)

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
        assert coarse_type(rep.eigenvalues) is FixedPointType.SADDLE

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
            assert row.coarse is FixedPointType.SADDLE
            assert row.agrees

    def test_outside_the_quadrant_preserving_set(self):
        with pytest.raises(OutsideDeclaredRegion):
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

    def test_rows_match_the_fixed_point_enumeration(self):
        rng = np.random.default_rng(43)
        for name in ("theta_star_theta1", "phi_star", "psi_star"):
            for p in sample_region(name, 100, rng):
                rows = declared_type_table(p)
                pts = find_fixed_points(p).points
                assert len(rows) == len(pts)
                for row, pt in zip(rows, pts):
                    assert row.location == pt.location
