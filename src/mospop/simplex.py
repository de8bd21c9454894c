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

with U'(x*) = 1 - (alpha**2 + 4*beta**2
                   + (alpha - 2*beta)*sqrt(alpha**2 + 4*beta**2))/(2*alpha).

x* attracts on the whole invariance region except the corner (2, 1), where
U'(x*) = -1 exactly, U becomes the involution (1 - x)/(1 + x), and every
point except x* lies on a 2-cycle.  Candidate 2-cycles elsewhere solve

    (1 - beta)*x**2 + (2 - alpha)*x + 1 + beta + alpha/(beta - 2) = 0,

whose roots enter [0, 1] only for (1 + beta)*(2 - beta) <= alpha
<= 4*(2 - beta)/(3 - beta); inside the invariance region that pins
(alpha, beta) = (2, 1), so away from the corner the 2-cycle set is empty.
For beta = 1 the equation degenerates to (2 - alpha)*(x + 1) = 0 and is
handled as its own branch.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .params import SimplexClass, in_invariance_region, shape_class
from .stability import quad_roots

__all__ = [
    "InvarianceCheck",
    "OutsideInvariantRegion",
    "Period2Kind",
    "Period2Set",
    "ShapeKind",
    "SimplexAnalysis",
    "SimplexParams",
    "UOrbit",
    "UOrbitKind",
    "UOrbitNotConverged",
    "UPointType",
    "UStability",
    "analyze",
    "fixed_point_u",
    "fixed_point_u_of",
    "period2_set",
    "simplex_invariant",
    "u_derivative",
    "u_map",
    "u_orbit_limit",
    "u_stability",
    "x_minimum",
]

BOUNDARY_BAND = 1e-12
PERIOD2_TOL = 1e-10


class OutsideInvariantRegion(ValueError):
    """(alpha, beta) lies outside the simplex invariance region."""


class UOrbitNotConverged(ValueError):
    """The U orbit did not come within tol of x* in max_iter steps."""


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
    failure witness is a point of [0, 1] with witness_image = U(witness)
    outside [0, 1].
    """

    invariant: bool
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
        return InvarianceCheck(invariant=True, region=region)

    if sp.beta > 1.0:
        return InvarianceCheck(
            invariant=False, region=region,
            witness=0.0, witness_image=float(u_map(sp, 0.0)),
        )
    if sp.alpha > 2.0:
        return InvarianceCheck(
            invariant=False, region=region,
            witness=1.0, witness_image=float(u_map(sp, 1.0)),
        )
    # remaining failures have beta < 1/2 and an interior parabola vertex
    vertex = (sp.alpha - 1.0) / (2.0 * (1.0 - sp.beta))
    vertex = min(1.0, max(0.0, vertex))
    return InvarianceCheck(
        invariant=False, region=region,
        witness=vertex, witness_image=float(u_map(sp, vertex)),
    )


def fixed_point_u(sp: SimplexParams) -> float:
    """The unique fixed point of U in [0, 1]; see fixed_point_u_of."""
    return fixed_point_u_of(sp.alpha, sp.beta)


def fixed_point_u_of(alpha: float, beta: float) -> float:
    """x* for plain float rates alpha, beta > 0.

    Evaluated as 2*beta/(sqrt(alpha**2 + 4*beta**2) + alpha), which is the
    cancellation-free form of (sqrt(alpha**2 + 4*beta**2) - alpha)/(2*beta).
    """
    return 2.0 * beta / (math.hypot(alpha, 2.0 * beta) + alpha)


class UPointType(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    BOUNDARY = "boundary (|U'| = 1)"


class UStability(NamedTuple):
    """Multiplier of U at its fixed point and the induced type."""

    x_star: float
    u_prime_at_star: float
    classification: UPointType


def u_stability(sp: SimplexParams) -> UStability:
    """Stability of x* from the closed-form multiplier.

    The closed form evaluates to exactly -1 at (alpha, beta) = (2, 1);
    |U'(x*)| within 1e-12 of 1 is reported as BOUNDARY.
    """
    root = math.hypot(sp.alpha, 2.0 * sp.beta)
    up = 1.0 - (
        sp.alpha * sp.alpha
        + 4.0 * sp.beta * sp.beta
        + (sp.alpha - 2.0 * sp.beta) * root
    ) / (2.0 * sp.alpha)
    if abs(abs(up) - 1.0) <= BOUNDARY_BAND:
        kind = UPointType.BOUNDARY
    elif abs(up) < 1.0:
        kind = UPointType.ATTRACTING
    else:
        kind = UPointType.REPELLING
    return UStability(
        x_star=fixed_point_u(sp),
        u_prime_at_star=up,
        classification=kind,
    )


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
    (1 + beta)*(2 - beta) <= alpha <= 4*(2 - beta)/(3 - beta).
    """

    kind: Period2Kind
    roots: tuple[float, ...]
    containment_holds: bool


def _containment_holds(sp: SimplexParams) -> bool:
    return (1.0 + sp.beta) * (2.0 - sp.beta) <= sp.alpha <= 4.0 * (2.0 - sp.beta) / (
        3.0 - sp.beta
    )


def period2_set(sp: SimplexParams) -> Period2Set:
    """Solve for genuine 2-cycles of U inside [0, 1].

    Factoring fixed points out of U(U(x)) = x leaves a quadratic (linear
    when beta = 1) whose real roots are screened to [0, 1], checked for
    U(U(x)) = x within PERIOD2_TOL, and stripped of period-1 impostors.
    """
    contain = _containment_holds(sp)
    if sp.alpha == 2.0 and sp.beta == 1.0:
        return Period2Set(
            kind=Period2Kind.WHOLE_INTERVAL,
            roots=(0.0, 1.0),
            containment_holds=contain,
        )

    a2 = 1.0 - sp.beta
    b2 = 2.0 - sp.alpha
    c2 = 1.0 + sp.beta + sp.alpha / (sp.beta - 2.0)
    candidates = quad_roots(a2, b2, c2)

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
    """Limit behaviour of the U orbit from one start in [0, 1].

    rate_estimate is the last observed ratio of successive distances to
    the limit, a plain diagnostic with no extrapolation applied.
    """

    kind: UOrbitKind
    limit: Optional[float]
    cycle: Optional[tuple[float, float]]
    iterations_used: int
    rate_estimate: Optional[float] = None


def u_orbit_limit(
    sp: SimplexParams,
    x0: float,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> UOrbit:
    """Iterate U from x0 inside the invariance region.

    Raises OutsideInvariantRegion when (alpha, beta) is not in the region
    (the orbit could escape [0, 1] there).  At the corner (2, 1) the orbit
    is the 2-cycle {x0, U(x0)} unless x0 is the fixed point.  Everywhere
    else the orbit converges to x*; iteration stops once |x - x*| <= tol,
    and UOrbitNotConverged is raised if that takes more than max_iter steps.
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
        if abs(x0 - xs) <= tol:
            return UOrbit(UOrbitKind.FIXED_POINT, x0, None, 0)
        return UOrbit(
            UOrbitKind.TWO_CYCLE, None, (x0, float(u_map(sp, x0))), 2
        )

    x = float(x0)
    prev_gap = abs(x - xs)
    rate: Optional[float] = None
    for n in range(1, max_iter + 1):
        x = float(u_map(sp, x))
        gap = abs(x - xs)
        if prev_gap > 0.0:
            rate = gap / prev_gap
        prev_gap = gap
        if gap <= tol:
            return UOrbit(UOrbitKind.FIXED_POINT, xs, None, n, rate)
    raise UOrbitNotConverged(
        f"orbit still {prev_gap:.3e} from the fixed point after "
        f"{max_iter} iterations; loosen tol or raise max_iter"
    )


class ShapeKind(Enum):
    """Monotonicity of U on [0, 1], one value per shape class."""

    INCREASING = "increasing"        # class C
    DECREASING = "decreasing"        # class D
    VALLEY_LEFT = "valley_left"      # class E*, minimum left of center
    VALLEY_RIGHT = "valley_right"    # class F*
    NONE = "none"                    # outside the invariance region


_SHAPE_BY_CLASS = {
    SimplexClass.C: ShapeKind.INCREASING,
    SimplexClass.D: ShapeKind.DECREASING,
    SimplexClass.E_STAR: ShapeKind.VALLEY_LEFT,
    SimplexClass.F_STAR: ShapeKind.VALLEY_RIGHT,
}


class SimplexAnalysis(NamedTuple):
    """Everything the simplex case knows about one (alpha, beta)."""

    invariance: InvarianceCheck
    x_star: float
    u_prime_at_star: float
    stability: UPointType
    x_min: Optional[float]
    shape_class: SimplexClass
    monotonic_shape: ShapeKind
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
    """One-stop report used by the command line and the demos."""
    stab = u_stability(sp)
    cls = shape_class(sp.alpha, sp.beta)
    return SimplexAnalysis(
        invariance=simplex_invariant(sp),
        x_star=stab.x_star,
        u_prime_at_star=stab.u_prime_at_star,
        stability=stab.classification,
        x_min=x_minimum(sp),
        shape_class=cls,
        monotonic_shape=_SHAPE_BY_CLASS.get(cls, ShapeKind.NONE),
        period2=period2_set(sp),
        proof_roots=_proof_roots(sp),
    )
