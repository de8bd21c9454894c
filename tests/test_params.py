"""Parameter validation, region classification, and the offspring number."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mospop.params import (
    DomainError,
    Params,
    SimplexClass,
    basic_offspring_number,
    birth_threshold,
    boundary_report,
    classify,
    in_invariance_region,
    preserves_quadrant,
    primary_region,
    shape_class,
    validate,
)

EX1 = (1.5, 0.4, 0.5, 0.0, 0.0)
EX3 = (6.0, 0.5, 0.4, 0.6, 0.0)


def test_validate_returns_frozen_params():
    p = validate(*EX1)
    assert isinstance(p, Params)
    assert (p.alpha, p.beta, p.mu, p.d0, p.d1) == EX1
    with pytest.raises(AttributeError):
        p.alpha = 2.0


def test_alpha_zero_rejected():
    with pytest.raises(DomainError) as exc:
        validate(0.0, 1.0, 1.0, 0.0, 0.0)
    assert "alpha" in str(exc.value)


def test_all_violations_reported_together():
    with pytest.raises(DomainError) as exc:
        validate(-1.0, 0.0, -2.0, -3.0, -4.0)
    msg = str(exc.value)
    for name in ("alpha", "beta", "mu", "d0", "d1"):
        assert name in msg


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rejected_everywhere(bad):
    base = [1.0, 1.0, 1.0, 0.0, 0.0]
    for i in range(5):
        args = list(base)
        args[i] = bad
        with pytest.raises(DomainError):
            validate(*args)


def test_birth_threshold_example3():
    p = validate(*EX3)
    # 0.4 * (1 + 0.6/6) = 0.44
    assert birth_threshold(p) == pytest.approx(0.44, abs=1e-15)


def test_offspring_number_examples():
    assert basic_offspring_number(validate(*EX3)) == pytest.approx(
        1.1363636363636365, abs=1e-12
    )
    assert basic_offspring_number(validate(*EX1)) == pytest.approx(0.8, abs=1e-12)


def test_offspring_number_exactly_one_at_matched_rates():
    # beta = mu with d0 = 0 makes numerator and denominator the same product
    p = validate(2.0, 0.7, 0.7, 0.0, 0.0)
    assert basic_offspring_number(p) == 1.0


def test_classify_example1_omega_star():
    lab = classify(validate(*EX1))
    assert lab.in_omega_star
    assert not lab.in_phi1 and not lab.in_phi2 and not lab.in_psi
    assert not lab.in_theta
    assert primary_region(validate(*EX1)) == "omega_star"


def test_classify_example3_phi1():
    lab = classify(validate(*EX3))
    assert lab.in_phi1
    assert not lab.in_theta  # alpha = 6 > 1 - d0
    assert primary_region(validate(*EX3)) == "phi1"


def test_classify_phi2():
    lab = classify(validate(1.0, 2.0, 0.5, 0.5, 0.5))
    assert lab.in_phi2
    assert primary_region(validate(1.0, 2.0, 0.5, 0.5, 0.5)) == "phi2"


def test_classify_psi_requires_matched_rates_and_no_density_death():
    assert classify(validate(1.0, 1.0, 1.0, 0.0, 0.0)).in_psi
    assert not classify(validate(1.0, 1.0, 1.0, 0.1, 0.0)).in_psi
    assert not classify(validate(1.0, 1.0, 0.9, 0.0, 0.0)).in_psi


def test_classify_threshold_equality_lands_in_omega_star():
    # beta equals the threshold exactly: neither wedge of the contraction
    # region, and not phi1 (which needs strict excess births).
    lab = classify(validate(0.5, 2.0, 1.0, 0.5, 0.0))
    assert lab.in_theta
    assert not lab.in_theta1 and not lab.in_theta2
    assert lab.in_omega_star and lab.in_theta_star


def test_theta_wedges():
    lab = classify(validate(0.4, 0.3, 0.5, 0.2, 0.0))
    assert lab.in_theta and lab.in_theta1 and lab.in_theta_star
    lab2 = classify(validate(0.9, 2.0, 0.95, 0.05, 0.0))
    assert lab2.in_theta and lab2.in_theta2 and lab2.in_phi_star


def test_theta_excludes_quadratic_death():
    assert not classify(validate(0.4, 0.3, 0.5, 0.2, 0.1)).in_theta


def test_preserves_quadrant():
    assert preserves_quadrant(validate(0.4, 0.3, 0.5, 0.2, 0.0))
    assert not preserves_quadrant(validate(*EX1))  # alpha > 1 - d0
    assert not preserves_quadrant(validate(0.4, 0.3, 1.5, 0.2, 0.0))  # mu > 1


def test_in_invariance_region():
    assert in_invariance_region(2.0, 1.0) is SimplexClass.B
    assert in_invariance_region(0.5, 0.25) is SimplexClass.A
    assert in_invariance_region(1.9, 0.1) is SimplexClass.NONE
    assert in_invariance_region(2.0, 0.5) is SimplexClass.B
    assert in_invariance_region(2.1, 0.5) is SimplexClass.NONE


def test_shape_class_first_match():
    assert shape_class(2.0, 1.0) is SimplexClass.D
    assert shape_class(0.1, 0.5) is SimplexClass.C
    # valley with minimum in the left half: alpha between (1-beta) and 2(1-beta)
    assert shape_class(0.3, 0.8) is SimplexClass.E_STAR
    assert shape_class(1.5, 0.4) is SimplexClass.F_STAR
    assert shape_class(3.0, 0.4) is SimplexClass.NONE  # outside the region


def test_boundary_report_flags_matched_rates():
    p = validate(2.0, 1.5, 1.5, 0.0, 0.0)
    notes = boundary_report(p, eps=1e-9)
    assert any("beta" in n and "mu" in n for n in notes)


def test_boundary_report_empty_far_from_all_boundaries():
    p = validate(5.0, 0.3, 1.2, 0.7, 0.4)
    assert boundary_report(p, eps=1e-6) == []


def test_boundary_report_rejects_negative_eps():
    with pytest.raises(ValueError):
        boundary_report(validate(*EX1), eps=-1e-6)


def test_boundary_report_rejects_nan_eps():
    with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
        boundary_report(validate(*EX1), eps=math.nan)


def test_boundary_report_eps_zero_flags_exact_hits():
    notes = boundary_report(validate(1.0, 1.0, 1.0, 0.0, 0.0), eps=0.0)
    assert any("beta" in n and "mu" in n for n in notes)
    assert any("d0" in n for n in notes)


finite_pos = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
death = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@given(finite_pos, finite_pos, finite_pos, death, death)
@settings(max_examples=300, deadline=None)
def test_primary_regions_partition(alpha, beta, mu, d0, d1):
    lab = classify(validate(alpha, beta, mu, d0, d1))
    flags = [lab.in_omega_star, lab.in_phi1, lab.in_phi2, lab.in_psi]
    assert sum(flags) == 1


@given(finite_pos, finite_pos, finite_pos, death, death)
@settings(max_examples=300, deadline=None)
def test_theta_splits_into_three_pieces(alpha, beta, mu, d0, d1):
    lab = classify(validate(alpha, beta, mu, d0, d1))
    pieces = [lab.in_theta_star, lab.in_phi_star, lab.in_psi_star]
    if lab.in_theta:
        assert sum(pieces) == 1
    else:
        assert not any(pieces)


@given(finite_pos, finite_pos, finite_pos, death, death)
@settings(max_examples=300, deadline=None)
# beta one ulp above the threshold, where alpha/(alpha + d0) * (beta/mu)
# rounds to exactly 1.0
@example(2.912, 0.12334615384615386, 0.112, 0.295, 0.0)
def test_offspring_number_above_one_iff_beta_above_threshold(alpha, beta, mu, d0, d1):
    p = validate(alpha, beta, mu, d0, d1)
    assert (basic_offspring_number(p) > 1.0) == (beta > birth_threshold(p))


def test_phi_star_always_sits_in_the_growth_wedge():
    # the linear-death slice of theta forces beta above threshold
    rng = np.random.default_rng(7)
    from mospop.oracles import sample_region

    for p in sample_region("phi_star", 500, rng):
        lab = classify(p)
        assert lab.in_theta2
