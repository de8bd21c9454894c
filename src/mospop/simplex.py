"""The matched-rates special case restricted to the unit simplex.

With beta = mu and d0 = d1 = 0 the map conserves x + y, so the segment
S = {(x, y): x + y = 1, x, y >= 0} can be invariant.  On S the dynamics
reduce to the one-dimensional map

    U(x) = beta*(1 - x) - alpha*x/(1 + x) + x        on [0, 1].

U maps [0, 1] into itself exactly when (alpha, beta) lies in the invariance
region (classes A and B of params.SimplexClass); the binding constraint is
the nonnegativity of

    q(x) = (1 - beta)*x**2 + (1 - alpha)*x + beta,

since U(x) = q(x)/(1 + x).  The upper bound U(x) <= 1 rearranges to
(1 - beta)*x**2 - alpha*x + (beta - 1) <= 0, which holds on [0, 1] for any
alpha > 0 and beta in (0, 1].

U has exactly one fixed point in [0, 1],

    x* = (sqrt(alpha**2 + 4*beta**2) - alpha)/(2*beta),

and its multiplier is U'(x*) = 1 - beta - alpha/(1 + x*)**2.

x* attracts on the whole invariance region except the corner (2, 1), where
U'(x*) = -1, U becomes the involution (1 - x)/(1 + x), and every point
except x* lies on a 2-cycle.  Candidate 2-cycles elsewhere solve

    (beta - 1)*(beta - 2)*x**2 + (alpha - 2)*(beta - 2)*x
        - (alpha + (beta - 2)*(beta + 1)) = 0,

whose roots enter [0, 1] only for (1 + beta)*(2 - beta) <= alpha
<= 4*(2 - beta)/(3 - beta); inside the invariance region that pins
(alpha, beta) = (2, 1), so away from the corner the 2-cycle set is empty.
For beta = 1 the equation is linear with root -1, and for beta = 2 it is
the constant -alpha: no 2-cycle either way.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .fixed_points import quad_roots
from .params import SimplexClass, in_invariance_region, shape_class

__all__ = [
    "InvarianceCheck",
    "OutsideInvariantRegion",
    "Period2Kind",
    "Period2Set",
    "SimplexAnalysis",
    "SimplexParams",
    "UOrbit",
    "UOrbitKind",
    "UOrbitNotConverged",
    "UPointType",
    "analyze",
    "fixed_point_u",
    "fixed_point_u_array",
    "fixed_point_u_of",
    "period2_set",
    "simplex_invariant",
    "u_derivative",
    "u_map",
    "u_orbit_limit",
    "x_minimum",
]

BOUNDARY_BAND = 1e-12
PERIOD2_TOL = 1e-10
U_ORBIT_TOL = 1e-12
U_ORBIT_MAX_ITER = 100_000


class OutsideInvariantRegion(ValueError):
    """(alpha, beta) lies outside the simplex invariance region."""


class UOrbitNotConverged(ValueError):
    """The U orbit did not come within U_ORBIT_TOL of x* in U_ORBIT_MAX_ITER steps."""


class _SimplexRates(NamedTuple):
    alpha: float
    beta: float


class SimplexParams(_SimplexRates):
    """Rates of the matched special case: alpha > 0, beta = mu in (0, inf).

    A named tuple whose construction, _make and _replace included, raises
    ValueError on a rate that is not a finite real > 0.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta):
        for name, v in (("alpha", alpha), ("beta", beta)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite real > 0, got {v!r}")
        return tuple.__new__(cls, (alpha, beta))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def u_map(sp: SimplexParams, x):
    """U(x) = beta*(1 - x) - alpha*x/(1 + x) + x.  Array-friendly."""
    return sp.beta * (1.0 - x) - sp.alpha * x / (1.0 + x) + x


def u_derivative(sp: SimplexParams, x):
    """U'(x) = 1 - beta - alpha/(1 + x)**2.  Array-friendly."""
    return 1.0 - sp.beta - sp.alpha / (1.0 + x) ** 2


class InvarianceCheck(NamedTuple):
    """Does U map [0, 1] into itself, and if not, where does it leave?

    region is SimplexClass.A or .B on success, .NONE on failure.  On
    failure witness is a point of [0, 1] and witness_image = U(witness) as
    computed.  The image lies outside [0, 1] except where alpha sits a few
    ulps above region A's rounded bound 1 + 2*sqrt(beta*(1 - beta)): there
    the rounded region test and the rounded image can disagree, and the
    image may lie inside [0, 1].
    """

    region: SimplexClass
    witness: Optional[float] = None
    witness_image: Optional[float] = None


def simplex_invariant(sp: SimplexParams) -> InvarianceCheck:
    """Exact membership test for the invariance region, with witness.

    The witness on failure is chosen by minimizing q over [0, 1]: the
    vertex of the parabola when it is interior, else an endpoint.  For
    beta > 1 the image of 0 already leaves through the top.
    """
    region = in_invariance_region(sp.alpha, sp.beta)
    if region is not SimplexClass.NONE:
        return InvarianceCheck(region=region)

    if sp.beta > 1.0:
        return InvarianceCheck(
            region=region, witness=0.0, witness_image=float(u_map(sp, 0.0)),
        )
    if sp.alpha > 2.0:
        return InvarianceCheck(
            region=region, witness=1.0, witness_image=float(u_map(sp, 1.0)),
        )
    # remaining failures have beta < 1/2 and an interior parabola vertex
    vertex = (sp.alpha - 1.0) / (2.0 * (1.0 - sp.beta))
    vertex = min(1.0, max(0.0, vertex))
    return InvarianceCheck(
        region=region, witness=vertex, witness_image=float(u_map(sp, vertex)),
    )


def fixed_point_u(sp: SimplexParams) -> float:
    """The unique fixed point of U in [0, 1]; see fixed_point_u_of."""
    return fixed_point_u_of(sp.alpha, sp.beta)


def fixed_point_u_of(alpha: float, beta: float) -> float:
    """x* for plain float rates alpha, beta > 0.

    Evaluated as beta/(sqrt((alpha/2)**2 + beta**2) + alpha/2), the
    cancellation-free form of (sqrt(alpha**2 + 4*beta**2) - alpha)/(2*beta)
    with numerator and denominator halved.  x* depends only on alpha/beta:
    where that denominator overflows, or comes near the subnormal range
    and would round away digits, both rates are scaled by the same power
    of two, exactly, and the denominator is formed again.
    """
    half = 0.5 * alpha
    den = math.hypot(half, beta) + half
    if not 2.0**-960 <= den < math.inf:
        scale = 0.5 if den > 1.0 else 2.0**600
        half, beta = 0.5 * (scale * alpha), scale * beta
        den = math.hypot(half, beta) + half
    return beta / den


def fixed_point_u_array(alpha, beta):
    """fixed_point_u_of elementwise, as a float array.

    alpha and beta are floats or arrays that broadcast together.  Where the
    denominator lies in [2**-960, inf) this is the same expression as array
    arithmetic; np.hypot may differ from math.hypot in the last bit, so
    such a cell can differ from fixed_point_u_of by a few ulps.  Each other
    cell goes through fixed_point_u_of itself, which rescales the rates.
    """
    import numpy as np

    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float))
    with np.errstate(all="ignore"):
        half = 0.5 * alpha
        den = np.hypot(half, beta) + half
        x = np.asarray(beta / den)
    rest = ~((2.0**-960 <= den) & (den < math.inf))
    if rest.any():
        x[rest] = list(map(fixed_point_u_of, alpha[rest].tolist(), beta[rest].tolist()))
    return x


class UPointType(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    BOUNDARY = "boundary (|U'| = 1)"


def x_minimum(sp: SimplexParams) -> Optional[float]:
    """Interior critical point sqrt(alpha/(1 - beta)) - 1 of U, if any.

    Returns None when beta = 1 (U is monotone) or when the critical point
    falls outside the open interval (0, 1).
    """
    if sp.beta >= 1.0:
        return None
    xm = math.sqrt(sp.alpha / (1.0 - sp.beta)) - 1.0
    if 0.0 < xm < 1.0:
        return xm
    return None


class Period2Kind(Enum):
    EMPTY = "empty"
    ROOTS = "roots"
    WHOLE_INTERVAL = "whole_interval"


class Period2Set(NamedTuple):
    """2-periodic points of U in [0, 1], excluding the fixed point.

    kind WHOLE_INTERVAL means every point of [0, 1] except x* pairs into a
    2-cycle (only at (alpha, beta) = (2, 1)); roots then holds the interval
    endpoints (0, 1) rather than isolated solutions.  containment_holds
    reports the closed-form root-containment condition
    (1 + beta)*(2 - beta) <= alpha <= 4*(2 - beta)/(3 - beta), beta != 3.
    """

    kind: Period2Kind
    roots: tuple[float, ...]
    containment_holds: bool


def _containment_holds(sp: SimplexParams) -> bool:
    b = sp.beta
    # at beta = 3 the bound is undefined, and the 2-cycle quadratic
    # 2x**2 + (alpha - 2)x - (alpha + 4) is negative on all of [0, 1]
    return b != 3.0 and (1.0 + b) * (2.0 - b) <= sp.alpha <= 4.0 * (2.0 - b) / (3.0 - b)


def period2_set(sp: SimplexParams) -> Period2Set:
    """Solve for genuine 2-cycles of U inside [0, 1].

    Factoring fixed points out of U(U(x)) = x leaves a quadratic (linear
    when beta = 1, constant when beta = 2) whose real roots are screened to
    [0, 1], checked for U(U(x)) = x within PERIOD2_TOL, and stripped of
    period-1 impostors.
    """
    contain = _containment_holds(sp)
    if sp.alpha == 2.0 and sp.beta == 1.0:
        return Period2Set(
            kind=Period2Kind.WHOLE_INTERVAL,
            roots=(0.0, 1.0),
            containment_holds=contain,
        )

    a, b = sp.alpha, sp.beta
    candidates = quad_roots((b - 1.0) * (b - 2.0), (a - 2.0) * (b - 2.0),
                            -(a + (b - 2.0) * (b + 1.0)))

    kept: list[float] = []
    for r in candidates:
        if abs(r.imag) > 0.0:
            continue
        x = r.real
        if not (0.0 <= x <= 1.0):
            continue
        if abs(u_map(sp, u_map(sp, x)) - x) > PERIOD2_TOL:
            continue
        if abs(u_map(sp, x) - x) <= PERIOD2_TOL:
            continue  # period-1 impostor
        kept.append(x)
    kept.sort()
    if kept:
        return Period2Set(
            kind=Period2Kind.ROOTS, roots=tuple(kept), containment_holds=contain
        )
    return Period2Set(kind=Period2Kind.EMPTY, roots=(), containment_holds=contain)


class UOrbitKind(Enum):
    FIXED_POINT = "fixed_point"
    TWO_CYCLE = "two_cycle"


class UOrbit(NamedTuple):
    """Limit behaviour of the U orbit from one start in [0, 1]."""

    kind: UOrbitKind
    limit: Optional[float]
    cycle: Optional[tuple[float, float]]
    iterations_used: int


def u_orbit_limit(sp: SimplexParams, x0: float) -> UOrbit:
    """Iterate U from x0 inside the invariance region.

    Raises OutsideInvariantRegion when (alpha, beta) is not in the region
    (the orbit could escape [0, 1] there).  At the corner (2, 1) the orbit
    is the 2-cycle {x0, U(x0)} unless x0 is within U_ORBIT_TOL of x*, which
    is then the limit.  Everywhere else the orbit converges to x*; iteration
    stops once |x - x*| <= U_ORBIT_TOL, and UOrbitNotConverged is raised if
    that takes more than U_ORBIT_MAX_ITER steps.
    """
    if in_invariance_region(sp.alpha, sp.beta) is SimplexClass.NONE:
        raise OutsideInvariantRegion(
            f"(alpha, beta) = ({sp.alpha}, {sp.beta}) is outside the "
            "invariance region"
        )
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")

    xs = fixed_point_u(sp)
    if sp.alpha == 2.0 and sp.beta == 1.0:
        if abs(x0 - xs) <= U_ORBIT_TOL:
            return UOrbit(UOrbitKind.FIXED_POINT, xs, None, 0)
        return UOrbit(
            UOrbitKind.TWO_CYCLE, None, (x0, float(u_map(sp, x0))), 2
        )

    x = float(x0)
    for n in range(1, U_ORBIT_MAX_ITER + 1):
        x = float(u_map(sp, x))
        gap = abs(x - xs)
        if gap <= U_ORBIT_TOL:
            return UOrbit(UOrbitKind.FIXED_POINT, xs, None, n)
    raise UOrbitNotConverged(
        f"orbit still {gap:.3e} from the fixed point after "
        f"{U_ORBIT_MAX_ITER} iterations"
    )


class SimplexAnalysis(NamedTuple):
    """Everything the simplex case knows about one (alpha, beta)."""

    invariance: InvarianceCheck
    x_star: float
    u_prime_at_star: float
    stability: UPointType
    x_min: Optional[float]
    shape_class: SimplexClass
    period2: Period2Set
    proof_roots: Optional[tuple[float, float]]


def _proof_roots(sp: SimplexParams) -> Optional[tuple[float, float]]:
    """Real roots of the invariance quadratic q, when it is a quadratic.

    q(x) = (1 - beta)*x**2 + (1 - alpha)*x + beta touches or crosses zero
    exactly when (1 - alpha)**2 >= 4*beta*(1 - beta); the roots bracket the
    sub-interval where invariance would fail.
    """
    if sp.beta >= 1.0:
        return None
    roots = quad_roots(1.0 - sp.beta, 1.0 - sp.alpha, sp.beta)
    if len(roots) != 2 or any(abs(r.imag) > 0.0 for r in roots):
        return None
    lo, hi = sorted(r.real for r in roots)
    return (lo, hi)


def analyze(sp: SimplexParams) -> SimplexAnalysis:
    """One-stop report used by the command line and the demos.

    The multiplier is u_derivative(sp, x*) at the computed x*, one formula
    with no special case; |U'(x*)| within BOUNDARY_BAND of 1 is typed
    BOUNDARY.  At the corner (2, 1), where the exact multiplier is -1, it
    comes out as -(1 - 2**-52) and is typed BOUNDARY; where alpha = 2*beta
    it is within 2**-52 of the exact 1 - 2*beta.
    """
    xs = fixed_point_u(sp)
    up = u_derivative(sp, xs)
    if abs(abs(up) - 1.0) <= BOUNDARY_BAND:
        kind = UPointType.BOUNDARY
    elif abs(up) < 1.0:
        kind = UPointType.ATTRACTING
    else:
        kind = UPointType.REPELLING
    return SimplexAnalysis(
        invariance=simplex_invariant(sp),
        x_star=xs,
        u_prime_at_star=up,
        stability=kind,
        x_min=x_minimum(sp),
        shape_class=shape_class(sp.alpha, sp.beta),
        period2=period2_set(sp),
        proof_roots=_proof_roots(sp),
    )
