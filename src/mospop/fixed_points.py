"""The two-stage map and its closed-form fixed points.

One step of the map sends (x, y) to

    x' = beta*y - alpha*x/(1 + x) - (d0 + d1*x)*x + x
    y' = alpha*x/(1 + x) - mu*y + y

where x counts larvae and y adults.  The x update is defined for x > -1
only; the map does not keep states in the positive quadrant.

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

The package's one quadratic solver, _quadratic behind quad_roots and the
eigenvalues, lives here too; the phi2 point is its root c/q.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .params import Params, primary_region

__all__ = [
    "DEFAULT_CONTINUUM_GRID",
    "ClosedFormOverflow",
    "DegenerateAllZero",
    "FixedPointKind",
    "FixedPointReport",
    "FixedPointSet",
    "FormulaTag",
    "State",
    "discriminant",
    "find_fixed_points",
    "fixed_point_locations",
    "gamma",
    "larval_quadratic",
    "phi1_point",
    "quad_roots",
    "step",
]

DEFAULT_CONTINUUM_GRID = (0.0, 0.5, 1.0, 2.0, 10.0)


class State(NamedTuple):
    """A point (x, y) of the phase plane: larvae and adult densities."""

    x: float
    y: float


def step(p: Params, z: Sequence[float]) -> State:
    """Apply one step of the map to z = (x, y).  Requires x > -1."""
    x, y = float(z[0]), float(z[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"state must be finite, got ({x}, {y})")
    if x <= -1.0:
        raise ValueError(f"map undefined for x <= -1, got x={x}")
    t = p.alpha * x / (1.0 + x)
    return State(
        p.beta * y - t - (p.d0 + p.d1 * x) * x + x,
        t - p.mu * y + y,
    )


def gamma(p: Params, x: float):
    """Adult density forced by larval density x at a fixed point.

    gamma(x) = alpha*x/(mu*(1 + x)).  Increasing in x, bounded above by
    alpha/mu.  x is a float or a numpy float scalar.
    """
    if x <= -1.0:
        raise ValueError("gamma is defined for x > -1 only")
    return p.alpha * x / (p.mu * (1.0 + x))


def larval_quadratic(p: Params) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the fixed-point equation a*x**2 + b*x + c = 0
    for x != 0: (d1, d0 + d1, d0 + alpha*(1 - beta/mu))."""
    return p.d1, p.d0 + p.d1, p.d0 + p.alpha * (1.0 - p.beta / p.mu)


_MIN_NORMAL = sys.float_info.min


class DegenerateAllZero(ValueError):
    """All three quadratic coefficients vanish; every number is a root."""


def _ldexp(v: float, k: int) -> float:
    """v * 2**k, saturating to +-inf where that overflows (math.ldexp raises)."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.copysign(math.inf, v)


def _quadratic(a: float, b: float, c: float) -> tuple[complex, complex]:
    """The two roots of a*x**2 + b*x + c, a != 0.

    q = -(b + sign(b)*sqrt(disc))/2 gives the roots q/a and c/q without
    cancellation.  Real roots come back in that order, q/a then c/q; a
    complex pair as (-b + i*sqrt(-disc))/(2a), then its conjugate.  Where
    disc = b*b - 4*a*c or 2*a leaves the normal range, disc is formed from
    a quadratic rescaled exactly by powers of two instead; a root beyond
    the double range saturates to +-inf.
    """
    disc = b * b - 4.0 * a * c
    two_a = 2.0 * a
    if _MIN_NORMAL <= abs(disc) < math.inf and _MIN_NORMAL <= abs(two_a) < math.inf:
        if disc > 0.0:
            s = math.sqrt(disc)
            q = -0.5 * (b + s) if b >= 0.0 else -0.5 * (b - s)
            return complex(q / a), complex(c / q)
        re = -b / two_a
        im = math.sqrt(-disc) / two_a
        return complex(re, im), complex(re, -im)
    # Substitute x = 2**k * y and divide by 2**(ea + 2k): the scaled
    # quadratic A*y**2 + B*y + C has A, |C| in [0.5, 2) and B = mb * 2**eb2.
    A, ea = math.frexp(a)
    mb, eb = math.frexp(b)
    mc, ec = math.frexp(c)
    k = (ec - ea) // 2 if c != 0.0 else (eb - ea if b != 0.0 else 0)
    C = math.ldexp(mc, ec - ea - 2 * k)
    eb2 = eb - ea - k
    if mb != 0.0 and eb2 > 500:
        # 4*A*C is below half an ulp of B*B, so sqrt(disc) rounds to |B|
        # and the roots are -b/a and -c/b exactly to rounding
        return complex(-b / a), complex(-c / b)
    B = math.ldexp(mb, eb2)
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = -0.5 * (B + s) if B >= 0.0 else -0.5 * (B - s)
        if q == 0.0:
            return 0j, 0j
        # where the unscaled q fits, each root rounds once
        q_full = _ldexp(q, ea + k)
        if _MIN_NORMAL <= abs(q_full) < math.inf:
            return complex(q_full / a), complex(c / q_full)
        return complex(_ldexp(q / A, k)), complex(_ldexp(C / q, k))
    # the unscaled -b/(2a) rounds once and keeps a real part that a
    # subnormal B would lose
    re = -b / two_a if abs(two_a) < math.inf else _ldexp(-B / (2.0 * A), k)
    im = _ldexp(math.sqrt(-disc) / (2.0 * A), k)
    return complex(re, im), complex(re, -im)


def quad_roots(a: float, b: float, c: float) -> tuple[complex, ...]:
    """Roots of a*x**2 + b*x + c, for any finite coefficients.

    A true quadratic gives a pair (real roots as complex with zero
    imaginary part), sorted by descending real part, then descending
    imaginary part; a = 0 gives the linear root.  A root beyond the double
    range is left out, as the linear fallback leaves out the root that
    escapes to infinity as a -> 0; a complex pair goes together.  Raises
    DegenerateAllZero when a = b = c = 0.
    """
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                raise DegenerateAllZero("0 == 0 holds for every x")
            return ()
        r = -c / b
        return (complex(r),) if math.isfinite(r) else ()
    roots = [r for r in _quadratic(a, b, c)
             if abs(r.real) < math.inf and abs(r.imag) < math.inf]
    roots.sort(key=lambda r: (-r.real, -r.imag))
    return tuple(roots)


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
    x = _ldexp(ma * mb / (mm * md), ea + eb - em - ed) - 1.0
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
    x -> (x, gamma(x)), in the order of find_fixed_points' sample_grid;
    otherwise points is the full list.
    quad_discriminant is reported whenever d1 != 0, even when the
    quadratic contributes no nonnegative root.
    """

    kind: FixedPointKind
    points: tuple[FixedPointReport, ...]
    quad_discriminant: Optional[float] = None


def _residual(p: Params, x: float, y: float) -> float:
    nx, ny = step(p, (x, y))
    return max(abs(nx - x), abs(ny - y))


def fixed_point_locations(
    p: Params,
    sample_grid: tuple[float, ...] = DEFAULT_CONTINUUM_GRID,
) -> tuple[FixedPointKind, tuple[tuple[float, float, FormulaTag], ...]]:
    """The kind of the fixed-point set at p and each point as (x, y, tag).

    The one place that turns the primary region into fixed points:
    find_fixed_points, declared_type_table and cli.cmd_stability iterate it.
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
        # a = d1 > 0, b > 0 and c < 0: c/q is the positive root
        x2 = _quadratic(*larval_quadratic(p))[1].real
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
    return FixedPointSet(
        kind=kind,
        points=tuple([FixedPointReport(State(x, y), tag, _residual(p, x, y))
                      for x, y, tag in locations]),
        quad_discriminant=discriminant(p) if p.d1 != 0.0 else None,
    )
