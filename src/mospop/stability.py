"""Linearization and stability typing of fixed points.

The Jacobian of the map at (x, y) is

    [[1 - d0 - 2*d1*x - alpha/(1+x)**2,  beta],
     [alpha/(1+x)**2,                    1 - mu]]

For d1 = 0 its eigenvalues have the closed form (2 - g(x) +- sqrt(f(x)))/2
with

    g(x) = mu + d0 + alpha/(1+x)**2
    f(x) = (mu - d0 - alpha/(1+x)**2)**2 + 4*alpha*beta/(1+x)**2

and f >= 0, so the spectrum is real.  Types follow the eigenvalue moduli:
attracting when both are < 1, repelling when both are > 1, saddle when they
straddle 1, and non_hyperbolic when some modulus sits on the unit circle
(within a small band, since equality rarely survives rounding).

declared_type_table() labels each fixed point that
fixed_points.fixed_point_locations enumerates on the quadrant-preserving
sets with the paper's closed-form type, looked up by the point's FormulaTag,
and records whether the numeric type agrees.  Two structural caveats apply
and are kept visible rather than patched over:

 * on the fixed-point continuum (psi_star) the tangent direction always
   carries eigenvalue exactly 1, so the numeric type is non_hyperbolic; the
   agreement test reads non_hyperbolic as saddle, the paper's label there;
 * the blanket "saddle" assignment for the origin above the birth threshold
   overreaches: for alpha*beta > (2 - mu)*(2 - alpha - d0) both moduli
   exceed 1 and the origin is repelling.  The table reports the declared
   label and lets the agreement flag expose the mismatch.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

# the private names are the arithmetic kernels the two modules share
from .fixed_points import (_MIN_NORMAL, FormulaTag, State, _ldexp, _quadratic,
                           _residual, fixed_point_locations)
from .params import ConditionViolation, Params, birth_threshold, preserves_quadrant

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DeclaredType",
    "FixedPointType",
    "NotAFixedPoint",
    "StabilityReport",
    "UNIT_CIRCLE_TOL",
    "check_fixed_point",
    "classify_fixed_point",
    "declared_type_table",
    "eigenvalues",
    "f_value",
    "g_value",
    "jacobian",
    "jacobian_entries",
    "modulus_type",
    "spectral_radius_of",
]

UNIT_CIRCLE_TOL = 1e-9


class NotAFixedPoint(ValueError):
    """The supplied state does not satisfy the fixed-point equations."""


class FixedPointType(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


def jacobian_entries(alpha, beta, mu, d0, d1, x):
    """Entries (j00, j01, j10, j11) of the Jacobian at larval density x.

    Plain arithmetic on the rates, so it also works elementwise on numpy
    arrays.  Squares are products: a float ** overflows with an exception
    where * gives inf.
    """
    emergence_slope = alpha / ((1.0 + x) * (1.0 + x))
    return (1.0 - d0 - 2.0 * d1 * x - emergence_slope, beta,
            emergence_slope, 1.0 - mu)


def jacobian(p: Params, z: Sequence[float]) -> np.ndarray:
    """Jacobian matrix of the map at z = (x, y).  Requires x > -1."""
    x = float(z[0])
    if x <= -1.0:
        raise ValueError(f"Jacobian undefined for x <= -1, got x={x}")
    import numpy as np

    j00, j01, j10, j11 = jacobian_entries(p.alpha, p.beta, p.mu, p.d0, p.d1, x)
    return np.array([[j00, j01], [j10, j11]])


def spectral_radius_of(j00, j01, j10, j11) -> np.ndarray:
    """abs(_matrix_roots(j00, j01, j10, j11)[0]) elementwise, bit for bit.

    The four Jacobian entries are floats or arrays that broadcast together.
    Where the discriminant tr*tr - 4*det is positive and normal, this is
    the real branch of fixed_points._quadratic(-1.0, tr, -det) as array
    arithmetic, in the same operation order.  Each other cell goes through
    _matrix_roots itself, the solver classify_fixed_point reports from.
    """
    import numpy as np

    entries = [np.asarray(j, dtype=float) for j in (j00, j01, j10, j11)]
    j00, j01, j10, j11 = entries
    with np.errstate(all="ignore"):
        tr, det = np.broadcast_arrays(j00 + j11, j00 * j11 - j01 * j10)
        disc = tr * tr - 4.0 * det
        s = np.sqrt(disc)
        q = np.where(tr >= 0.0, -0.5 * (tr + s), -0.5 * (tr - s))
        radius = np.asarray(np.maximum(np.abs(q), np.abs(det / q)))
    rest = ~((_MIN_NORMAL <= disc) & (disc < math.inf))
    if rest.any():
        cells = zip(*(np.broadcast_to(j, rest.shape)[rest].tolist() for j in entries))
        radius[rest] = [abs(_matrix_roots(*cell)[0]) for cell in cells]
    return radius


def _matrix_roots(j00, j01, j10, j11) -> tuple[complex, complex]:
    """Eigenvalues of [[j00, j01], [j10, j11]], ordered by descending modulus.

    They are the roots of lam**2 - tr*lam + det for the trace tr and the
    determinant det.  Ties in modulus break by descending real part, then
    descending imaginary part.  A root beyond the double range is inf.  The
    roots come from fixed_points._quadratic, in its order where two roots
    tie; the polynomial is passed as -lam**2 + tr*lam - det so that tr = +-0
    picks the same root first as tr > 0.

    When tr or det overflows although the entries are finite, the matrix is
    first divided by a power of two near its largest entry, and the roots
    are scaled back by the same exact factor.
    """
    tr, det = j00 + j11, j00 * j11 - j01 * j10
    k = 0
    if not (abs(tr) < math.inf and abs(det) < math.inf):
        k = math.frexp(max(abs(j00), abs(j01), abs(j10), abs(j11)))[1]
        j00, j01, j10, j11 = (math.ldexp(j, -k) for j in (j00, j01, j10, j11))
        tr, det = j00 + j11, j00 * j11 - j01 * j10
    first, second = _quadratic(-1.0, tr, -det)
    m1, m2 = abs(first), abs(second)
    if m2 > m1 or (m2 == m1 and (second.real, second.imag) > (first.real, first.imag)):
        first, second = second, first
    if not k:
        return first, second
    return (complex(_ldexp(first.real, k), _ldexp(first.imag, k)),
            complex(_ldexp(second.real, k), _ldexp(second.imag, k)))


def eigenvalues(m) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix, ordered by descending modulus.

    m is any nested 2x2 sequence of reals, a numpy array included; nothing
    here imports numpy.  Raises ValueError on any other shape.  Solves the
    characteristic polynomial directly; see _matrix_roots.
    """
    shape = getattr(m, "shape", None)
    try:
        if shape not in (None, (2, 2)):
            raise ValueError
        (j00, j01), (j10, j11) = m if shape is None else m.tolist()
        entries = float(j00), float(j01), float(j10), float(j11)
    except (TypeError, ValueError):
        got = repr(m) if shape is None else f"shape {shape}"
        raise ValueError(f"expected a 2x2 matrix, got {got}") from None
    return _matrix_roots(*entries)


def g_value(p: Params, x: float) -> float:
    """g(x) = mu + d0 + alpha/(1+x)**2, the negated trace shift for d1 = 0.

    It leaves out the Jacobian's -2*d1*x, so where d1 > 0 the eigenvalues
    are not (2 - g +- sqrt(f))/2.
    """
    return p.mu + p.d0 + p.alpha / ((1.0 + x) * (1.0 + x))


def f_value(p: Params, x: float) -> float:
    """f(x), the characteristic polynomial's discriminant for d1 = 0; see g_value."""
    a = p.alpha / ((1.0 + x) * (1.0 + x))
    t = p.mu - p.d0 - a
    return t * t + 4.0 * p.beta * a


def modulus_type(eigs: tuple[complex, complex]) -> FixedPointType:
    """Four-way type from eigenvalue moduli with a unit-circle band."""
    r1, r2 = abs(eigs[0]), abs(eigs[1])
    if abs(r1 - 1.0) <= UNIT_CIRCLE_TOL or abs(r2 - 1.0) <= UNIT_CIRCLE_TOL:
        return FixedPointType.NON_HYPERBOLIC
    if r1 < 1.0 and r2 < 1.0:
        return FixedPointType.ATTRACTING
    if r1 > 1.0 and r2 > 1.0:
        return FixedPointType.REPELLING
    return FixedPointType.SADDLE


class StabilityReport(NamedTuple):
    """Eigenvalues and type of one fixed point."""

    eigenvalues: tuple[complex, complex]
    type: FixedPointType


def check_fixed_point(
    p: Params, z: Sequence[float], tol: float = 1e-9
) -> tuple[float, float]:
    """Return z as floats, or raise NotAFixedPoint unless the map at p fixes it.

    z passes when one map step moves it by at most tol times the larger of
    the two equations' sums of absolute terms,

        |beta*y| + |alpha*x/(1+x)| + |d0*x| + |d1*x*x| + |x|   (larvae)
        |alpha*x/(1+x)| + |mu*y| + |y|                          (adults),

    a backward-error gate that holds a closed-form point to the rounding
    its own step makes, whatever the scale of the rates.  A state whose
    step or sums overflow fails: an infinite tolerance would pass anything.
    """
    x, y = float(z[0]), float(z[1])
    residual = _residual(p, x, y)
    emergence = abs(p.alpha * x / (1.0 + x))
    scale = max(
        abs(p.beta * y) + emergence + abs(p.d0 * x) + abs(p.d1 * x * x) + abs(x),
        emergence + abs(p.mu * y) + abs(y),
    )
    if not (math.isfinite(residual) and math.isfinite(scale)
            and residual <= tol * scale):
        raise NotAFixedPoint(
            f"state ({z[0]}, {z[1]}) moves by {residual:.3e} in one step "
            f"(tolerance {tol * scale:.3e})"
        )
    return x, y


def classify_fixed_point(
    p: Params,
    z: Sequence[float],
    tol: float = 1e-9,
) -> StabilityReport:
    """Type the fixed point z of the map at p from its linearization.

    Raises ValueError unless tol > 0, and NotAFixedPoint unless z passes
    check_fixed_point.  The type is modulus_type of the eigenvalues.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    x, _ = check_fixed_point(p, z, tol)
    entries = jacobian_entries(p.alpha, p.beta, p.mu, p.d0, p.d1, x)
    eigs = _matrix_roots(*entries)
    return StabilityReport(eigenvalues=eigs, type=modulus_type(eigs))


class DeclaredType(NamedTuple):
    """Closed-form type assignment for one fixed point, with its audit.

    declared is None on the threshold equality beta = mu*(1 + d0/alpha),
    where the strict-inequality table is silent and typing defers to the
    numeric classifier.  agrees compares declared with numeric, where
    non_hyperbolic (a modulus within the unit-circle band) counts as saddle.
    """

    location: State
    declared: Optional[FixedPointType]
    numeric: FixedPointType
    agrees: bool
    note: str


# the paper's label for each closed form but the origin; d1 = 0 on the
# quadrant-preserving sets rules phi2 out
_DECLARED_BY_TAG = {
    FormulaTag.PHI1_CLOSED_FORM: (FixedPointType.ATTRACTING, "positive fixed point"),
    FormulaTag.CONTINUUM_SAMPLE: (FixedPointType.SADDLE,
                                  "continuum sample; tangent eigenvalue is exactly 1"),
}


def declared_type_table(p: Params) -> tuple[DeclaredType, ...]:
    """Closed-form stability table on the quadrant-preserving sets.

    Requires the quadrant-preservation inequalities (raises
    params.ConditionViolation otherwise).  One row per point of
    fixed_point_locations(p), in its order, labelled by formula:

      origin, below threshold        attracting
      origin, above threshold        saddle (see module docstring for the
                                     known overreach)
      origin, threshold equality     None, deferred to numeric
      phi1 closed form (phi_star)    attracting
      continuum sample (psi_star)    saddle, at every point of
                                     DEFAULT_CONTINUUM_GRID

    Each entry carries the numeric audit; no exception is raised on
    disagreement so the table stays usable where the closed forms fail.
    """
    if not preserves_quadrant(p):
        raise ConditionViolation("the declared type table")
    thr = birth_threshold(p)
    if p.beta < thr:
        origin = FixedPointType.ATTRACTING, "origin below threshold"
    elif p.beta > thr:
        origin = FixedPointType.SADDLE, "origin above threshold"
    else:
        origin = None, "threshold equality; deferred to numeric"
    rows = []
    for x, y, tag in fixed_point_locations(p)[1]:
        declared, note = origin if tag is FormulaTag.ORIGIN else _DECLARED_BY_TAG[tag]
        numeric = classify_fixed_point(p, (x, y)).type
        agrees = declared is None or declared is (
            FixedPointType.SADDLE if numeric is FixedPointType.NON_HYPERBOLIC else numeric)
        rows.append(DeclaredType(State(x, y), declared, numeric, agrees, note))
    return tuple(rows)
