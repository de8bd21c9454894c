"""Parameter domain and region classification for the two-stage population map.

The model tracks larvae (x) and adults (y) with five rates:

    alpha  maximal emergence rate of larvae into adults,  alpha > 0
    beta   per-adult oviposition rate,                    beta > 0
    mu     adult death rate,                              mu > 0
    d0     linear larval death coefficient,               d0 >= 0
    d1     density-dependent larval death coefficient,    d1 >= 0

The admissible domain is the set of all such vectors.  The long-run behaviour
of the map is organised by a handful of named parameter sets, all defined by
exact inequalities on the five rates.  This module owns every membership test
so the rest of the package can share one source of truth.

Boundary comparisons are exact by design.  There is no epsilon smudging in
classification; a separate sensitivity helper reports which boundaries sit
within a user-chosen eps of the given parameters.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

__all__ = [
    "ConditionViolation",
    "DomainError",
    "PRIMARY_REGIONS",
    "Params",
    "RATES",
    "RegionLabel",
    "SimplexClass",
    "admissible",
    "basic_offspring_number",
    "birth_threshold",
    "boundary_report",
    "classify",
    "in_invariance_region",
    "offspring_number_of",
    "preserves_quadrant",
    "primary_region",
    "primary_region_index",
    "shape_class",
    "validate",
]


RATES = ("alpha", "beta", "mu", "d0", "d1")


class DomainError(ValueError):
    """A parameter vector lies outside the admissible domain."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class _Rates(NamedTuple):
    alpha: float
    beta: float
    mu: float
    d0: float
    d1: float


class Params(_Rates):
    """Validated rate vector (alpha, beta, mu, d0, d1), a named tuple.

    Construction raises DomainError listing every violated constraint, so an
    instance always lies in the admissible domain; _make and _replace build
    through the same check.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, mu, d0, d1):
        violations = []
        for name, v in zip(RATES, (alpha, beta, mu, d0, d1)):
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                violations.append(f"{name} must be a finite real, got {v!r}")
        if not violations:
            if not alpha > 0:
                violations.append(f"alpha must be > 0, got {alpha}")
            if not beta > 0:
                violations.append(f"beta must be > 0, got {beta}")
            if not mu > 0:
                violations.append(f"mu must be > 0, got {mu}")
            if d0 < 0:
                violations.append(f"d0 must be >= 0, got {d0}")
            if d1 < 0:
                violations.append(f"d1 must be >= 0, got {d1}")
        if violations:
            raise DomainError(violations)
        return tuple.__new__(cls, (alpha, beta, mu, d0, d1))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def validate(alpha: float, beta: float, mu: float, d0: float, d1: float) -> Params:
    """Build a Params vector, raising DomainError on any violated constraint."""
    return Params(float(alpha), float(beta), float(mu), float(d0), float(d1))


# The functions taking plain rates below use only arithmetic, comparisons,
# & and |, so they give the same answer on floats and, elementwise, on
# numpy arrays of rates; a grid sweep evaluates them once over the grid.


def admissible(alpha, beta, mu, d0, d1):
    """True exactly where validate accepts the float rates: all finite,
    alpha, beta, mu > 0 and d0, d1 >= 0 (NaN fails every comparison)."""
    inf = math.inf
    return ((alpha > 0.0) & (alpha < inf) & (beta > 0.0) & (beta < inf)
            & (mu > 0.0) & (mu < inf) & (d0 >= 0.0) & (d0 < inf)
            & (d1 >= 0.0) & (d1 < inf))


def _threshold(alpha, mu, d0):
    """mu*(1 + d0/alpha) on plain rates; see birth_threshold."""
    return mu * (1.0 + d0 / alpha)


def offspring_number_of(alpha, beta, mu, d0):
    """alpha*beta / ((alpha + d0)*mu) on plain rates; see basic_offspring_number.

    Evaluated as beta / _threshold(alpha, mu, d0).  Under round-to-nearest the
    quotient exceeds 1 exactly when beta exceeds the threshold as computed,
    and the threshold is at least mu > 0 for admissible rates, so the divisor
    is never zero.
    """
    return beta / _threshold(alpha, mu, d0)


PRIMARY_REGIONS = ("omega_star", "phi1", "phi2", "psi")


def primary_region_index(alpha, beta, mu, d0, d1):
    """Index into PRIMARY_REGIONS of the primary set holding the rates.

    The sets (defined on RegionLabel) are disjoint, so at most one of the
    three membership terms is 1 and the sum picks it; 0 is omega_star.
    """
    above = beta > _threshold(alpha, mu, d0)
    in_phi1 = (d0 != 0.0) & (d1 == 0.0) & above
    in_phi2 = (d1 != 0.0) & above
    in_psi = (d0 == 0.0) & (d1 == 0.0) & (beta == mu)
    return in_phi1 + 2 * in_phi2 + 3 * in_psi


def birth_threshold(p: Params) -> float:
    """Critical oviposition rate mu*(1 + d0/alpha).

    Above this value the reproduction number exceeds one and a positive
    equilibrium can exist; below it the extinct state is the only candidate.
    """
    return _threshold(p.alpha, p.mu, p.d0)


def basic_offspring_number(p: Params) -> float:
    """Expected offspring per adult over its lifetime.

    r0 = alpha*beta / ((alpha + d0)*mu).  r0 > 1 is equivalent to
    beta > birth_threshold(p), and holds exactly in floating point because
    r0 is computed as beta / birth_threshold(p).
    """
    return offspring_number_of(p.alpha, p.beta, p.mu, p.d0)


class SimplexClass(Enum):
    """Named subsets of the (alpha, beta) square used by the simplex case.

    A and B are the two pieces of the invariance region for the restriction
    of the map to the unit simplex (matched rates beta = mu, d0 = d1 = 0).
    C, D, E_STAR and F_STAR partition A union B by the monotonicity shape of
    the one-dimensional restriction: increasing, decreasing, or an interior
    minimum (the two starred classes).
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E_STAR = "E*"
    F_STAR = "F*"
    NONE = "none"


def in_invariance_region(alpha: float, beta: float) -> SimplexClass:
    """Membership of (alpha, beta) in the simplex invariance region.

    Returns SimplexClass.A, SimplexClass.B, or SimplexClass.NONE.
    A: beta in (0, 1/2), alpha in (0, 1 + 2*sqrt(beta*(1-beta))].
    B: beta in [1/2, 1], alpha in (0, 2].
    """
    if not (alpha > 0 and 0 < beta <= 1):
        return SimplexClass.NONE
    if beta < 0.5:
        if alpha <= 1.0 + 2.0 * math.sqrt(beta * (1.0 - beta)):
            return SimplexClass.A
        return SimplexClass.NONE
    if alpha <= 2.0:
        return SimplexClass.B
    return SimplexClass.NONE


def shape_class(alpha: float, beta: float) -> SimplexClass:
    """Monotonicity class of the simplex restriction at (alpha, beta).

    Defined only inside the invariance region; NONE otherwise.  First match
    wins on shared interval endpoints, so the partition is deterministic:

      C:  alpha <= 1 - beta                      (restriction increasing)
      D:  beta >= 1/2 and alpha >= 4*(1 - beta)  (restriction decreasing)
      E*: alpha <= 2*(1 - beta)                  (interior minimum, shallow)
      F*: the rest                               (interior minimum, steep)
    """
    if in_invariance_region(alpha, beta) is SimplexClass.NONE:
        return SimplexClass.NONE
    if alpha <= 1.0 - beta:
        return SimplexClass.C
    if beta >= 0.5 and alpha >= 4.0 * (1.0 - beta):
        return SimplexClass.D
    if alpha <= 2.0 * (1.0 - beta):
        return SimplexClass.E_STAR
    return SimplexClass.F_STAR


class RegionLabel(NamedTuple):
    """Membership flags for every named parameter set.

    The four primary sets partition the admissible domain:

      omega_star  only the extinct state (0, 0) is fixed
      phi1        d0 != 0, d1 = 0, beta above threshold: two fixed points
      phi2        d1 != 0, beta above threshold: two fixed points
      psi         d0 = d1 = 0 and beta = mu: a continuum of fixed points

    The theta family refines the picture where the map keeps the closed
    positive quadrant invariant (d1 = 0, alpha <= 1 - d0, mu <= 1, d0 < 1):

      theta1      quadrant-compatible, beta strictly below threshold
      theta2      quadrant-compatible, beta strictly above threshold
      theta_star  omega_star and theta
      phi_star    phi1 and theta
      psi_star    psi and theta

    beta exactly at threshold belongs to neither theta1 nor theta2.
    """

    in_omega_star: bool
    in_phi1: bool
    in_phi2: bool
    in_psi: bool
    in_theta: bool
    in_theta1: bool
    in_theta2: bool
    in_theta_star: bool
    in_phi_star: bool
    in_psi_star: bool
    simplex_class: SimplexClass


class ConditionViolation(ValueError):
    """An operation needs the quadrant-preserving regime, preserves_quadrant."""

    def __init__(self, what: str):
        super().__init__(f"{what} requires d1 = 0, alpha <= 1 - d0, mu <= 1 and d0 < 1")


def preserves_quadrant(p: Params) -> bool:
    """True when the map sends the closed positive quadrant into itself.

    Requires d1 = 0, alpha <= 1 - d0, 0 < mu <= 1 and 0 <= d0 < 1.
    """
    return (
        p.d1 == 0.0
        and p.alpha <= 1.0 - p.d0
        and p.mu <= 1.0
        and p.d0 < 1.0
    )


def classify(p: Params) -> RegionLabel:
    """Classify p into every named parameter set using exact comparisons."""
    thr = birth_threshold(p)
    above = p.beta > thr
    below = p.beta < thr

    region = primary_region_index(*p)
    in_omega_star = region == 0
    in_phi1 = region == 1
    in_phi2 = region == 2
    in_psi = region == 3

    in_theta = preserves_quadrant(p)
    small_trace = p.mu + p.d0 + p.alpha <= 2.0
    in_theta1 = p.d1 == 0.0 and small_trace and below
    in_theta2 = p.d1 == 0.0 and small_trace and above

    return RegionLabel(
        in_omega_star=in_omega_star,
        in_phi1=in_phi1,
        in_phi2=in_phi2,
        in_psi=in_psi,
        in_theta=in_theta,
        in_theta1=in_theta1,
        in_theta2=in_theta2,
        in_theta_star=in_omega_star and in_theta,
        in_phi_star=in_phi1 and in_theta,
        in_psi_star=in_psi and in_theta,
        simplex_class=shape_class(p.alpha, p.beta),
    )


def primary_region(p: Params) -> str:
    """Name of the unique primary set containing p."""
    return PRIMARY_REGIONS[primary_region_index(*p)]


def boundary_report(p: Params, eps: float) -> list[str]:
    """List the classification boundaries lying within eps of p.

    Purely informational: classification itself never uses eps.  Each entry
    names a defining comparison whose two sides differ by at most eps.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    thr = birth_threshold(p)
    checks = [
        ("beta vs threshold mu*(1+d0/alpha)", abs(p.beta - thr)),
        ("beta vs mu", abs(p.beta - p.mu)),
        ("d0 vs 0", abs(p.d0)),
        ("d1 vs 0", abs(p.d1)),
        ("alpha vs 1-d0 (quadrant preservation)", abs(p.alpha - (1.0 - p.d0))),
        ("mu vs 1 (quadrant preservation)", abs(p.mu - 1.0)),
        ("d0 vs 1 (quadrant preservation)", abs(p.d0 - 1.0)),
        ("mu+d0+alpha vs 2", abs(p.mu + p.d0 + p.alpha - 2.0)),
    ]
    if 0 < p.beta <= 1:
        if p.beta < 0.5:
            bound = 1.0 + 2.0 * math.sqrt(p.beta * (1.0 - p.beta))
            checks.append(("alpha vs simplex bound 1+2*sqrt(beta*(1-beta))",
                           abs(p.alpha - bound)))
        else:
            checks.append(("alpha vs simplex bound 2", abs(p.alpha - 2.0)))
        checks.append(("beta vs 1/2 (simplex bound switch)", abs(p.beta - 0.5)))
    return [name for name, gap in checks if gap <= eps]
