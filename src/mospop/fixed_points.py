"""Closed-form fixed points of the two-stage map.

A fixed point (x, y) forces y = gamma(x) = alpha*x/(mu*(1 + x)) from the
adult equation; substituting into the larval equation leaves

    d1*x**2 + (d0 + d1)*x + d0 + alpha*(1 - beta/mu) = 0

for x != 0, while x = 0 is always a root.  The extinct state (0, 0) is
therefore a fixed point for every admissible parameter vector, and the
classification of the quadratic decides what else exists:

  omega_star  no further nonnegative root: (0, 0) alone
  phi1        d1 = 0 branch, root x2 = alpha*(beta - mu)/(mu*d0) - 1 > 0
  phi2        d1 != 0 branch, positive root of the quadratic
  psi         the equation collapses to 0 = 0: every (x, gamma(x)), x >= 0
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .dynamics import State, step
from .params import Params, primary_region

__all__ = [
    "DEFAULT_CONTINUUM_GRID",
    "ClosedFormOverflow",
    "FixedPointKind",
    "FixedPointReport",
    "FixedPointSet",
    "FormulaTag",
    "discriminant",
    "find_fixed_points",
    "fixed_point_locations",
    "gamma",
    "larval_quadratic",
    "phi1_point",
]

DEFAULT_CONTINUUM_GRID = (0.0, 0.5, 1.0, 2.0, 10.0)


def gamma(p: Params, x: float):
    """Adult density forced by larval density x at a fixed point.

    gamma(x) = alpha*x/(mu*(1 + x)).  Increasing in x, bounded above by
    alpha/mu.  Accepts scalars or numpy arrays.
    """
    bad = x <= -1.0
    if bad if isinstance(bad, bool) else bad.any():
        raise ValueError("gamma is defined for x > -1 only")
    return p.alpha * x / (p.mu * (1.0 + x))


def larval_quadratic(p: Params) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the fixed-point equation a*x**2 + b*x + c = 0
    for x != 0: (d1, d0 + d1, d0 + alpha*(1 - beta/mu))."""
    return p.d1, p.d0 + p.d1, p.d0 + p.alpha * (1.0 - p.beta / p.mu)


class ClosedFormOverflow(ValueError):
    """A closed-form fixed point overflows the double range when evaluated."""


def phi1_point(p: Params) -> State:
    """The positive fixed point of the d1 = 0 branch (phi1):
    x = alpha*(beta - mu)/(mu*d0) - 1, y = gamma(x).

    Raises ClosedFormOverflow, naming the closed form, when x or y overflows.
    x comes from the mantissas of alpha, beta - mu, mu and d0, exponents
    summed apart: the plain expression's bits wherever it stays normal, and
    no spurious 0, inf or ZeroDivisionError where a product leaves the range.
    """
    (ma, ea), (mb, eb), (mm, em), (md, ed) = (
        math.frexp(v) for v in (p.alpha, p.beta - p.mu, p.mu, p.d0))
    try:
        x = math.ldexp(ma * mb / (mm * md), ea + eb - em - ed) - 1.0
    except OverflowError:
        x = math.copysign(math.inf, mb)
    y = float(gamma(p, x))  # nan when x is inf or nan
    if not y < math.inf:
        form = ("x = alpha*(beta - mu)/(mu*d0) - 1" if not x < math.inf
                else f"y = alpha*x/(mu*(1 + x)) at x = {x}")
        raise ClosedFormOverflow(f"phi1 fixed point {form} overflows")
    return State(x, y)


def discriminant(p: Params) -> float:
    """Discriminant of the nonzero-root quadratic, in the grouped form

    (d0 - d1)**2 + 4*alpha*d1*(beta - mu)/mu.
    """
    diff = p.d0 - p.d1
    return diff * diff + 4.0 * p.alpha * p.d1 * (p.beta - p.mu) / p.mu


class FixedPointKind(Enum):
    SINGLE_ORIGIN = "single_origin"
    TWO_POINTS = "two_points"
    CONTINUUM = "continuum"


class FormulaTag(Enum):
    """Which closed form produced a reported point."""

    ORIGIN = "origin"
    PHI1_CLOSED_FORM = "phi1_closed_form"    # d1 = 0 branch
    PHI2_CLOSED_FORM = "phi2_closed_form"    # d1 != 0 branch
    CONTINUUM_SAMPLE = "continuum_sample"


class FixedPointReport(NamedTuple):
    """One fixed point with its provenance and its one-step residual."""

    location: State
    formula: FormulaTag
    residual: float


class FixedPointSet(NamedTuple):
    """All fixed points of the map for one parameter vector.

    For the continuum kind, points holds samples along the curve
    x -> (x, gamma(x)) on sample_grid; otherwise sample_grid is None and
    points is the full list.
    quad_discriminant is reported whenever d1 != 0, even when the
    quadratic contributes no nonnegative root.
    """

    kind: FixedPointKind
    points: tuple[FixedPointReport, ...]
    sample_grid: Optional[tuple[float, ...]] = None
    quad_discriminant: Optional[float] = None


def _residual(p: Params, x: float, y: float) -> float:
    nx, ny = step(p, (x, y))
    return max(abs(nx - x), abs(ny - y))


def _positive_quadratic_root(p: Params) -> float:
    """Positive root of d1*x**2 + (d0+d1)*x + c with c < 0.

    Uses x2 = -2c/(b + sqrt(disc)) with b = d0 + d1 > 0, which avoids the
    cancellation in (sqrt(disc) - b)/(2*d1) when 4*d1*|c| << b*b.  The
    square root of disc = b*b - 4*d1*c is taken as
    sqrt(b)*sqrt(b - 4*(d1/b)*c), so b*b never overflows (d1/b <= 1).
    """
    a, b, c = larval_quadratic(p)
    return -2.0 * c / (b + math.sqrt(b) * math.sqrt(b - 4.0 * (a / b) * c))


def fixed_point_locations(
    p: Params,
    sample_grid: tuple[float, ...] = DEFAULT_CONTINUUM_GRID,
) -> tuple[FixedPointKind, tuple[tuple[float, float, FormulaTag], ...]]:
    """The kind of the fixed-point set at p and each point as (x, y, tag).

    The one place that turns the primary region into fixed points:
    find_fixed_points and stability.declared_type_table both iterate it.
    The extinct state comes first; on the continuum the points are the
    curve samples in sample_grid order, and the default grid starts at
    x = 0.  No residual is formed.  Raises ValueError on a negative
    continuum sample.
    """
    region = primary_region(p)
    if region == "psi":
        for x in sample_grid:
            if x < 0:
                raise ValueError("continuum sample grid must be nonnegative")
        return FixedPointKind.CONTINUUM, tuple(
            (float(x), float(gamma(p, float(x))), FormulaTag.CONTINUUM_SAMPLE)
            for x in sample_grid
        )

    origin = (0.0, 0.0, FormulaTag.ORIGIN)
    if region == "phi1":
        return FixedPointKind.TWO_POINTS, (
            origin, (*phi1_point(p), FormulaTag.PHI1_CLOSED_FORM))

    if region == "phi2":
        x2 = _positive_quadratic_root(p)
        return FixedPointKind.TWO_POINTS, (
            origin, (x2, float(gamma(p, x2)), FormulaTag.PHI2_CLOSED_FORM))

    # omega_star: the quadratic has no root in the open positive axis, which
    # covers a negative discriminant as well as negative or zero roots.
    return FixedPointKind.SINGLE_ORIGIN, (origin,)


def find_fixed_points(
    p: Params,
    sample_grid: tuple[float, ...] = DEFAULT_CONTINUUM_GRID,
) -> FixedPointSet:
    """Enumerate the fixed points of the map at p.

    The points are those of fixed_point_locations, in its order, each
    reported with the max-norm residual of one map step at the point.
    """
    kind, locations = fixed_point_locations(p, sample_grid)
    continuum = kind is FixedPointKind.CONTINUUM
    return FixedPointSet(
        kind=kind,
        points=tuple([FixedPointReport(State(x, y), tag, _residual(p, x, y))
                      for x, y, tag in locations]),
        sample_grid=tuple(float(x) for x in sample_grid) if continuum else None,
        quad_discriminant=discriminant(p) if p.d1 != 0.0 else None,
    )
