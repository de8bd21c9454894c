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

declared_type_table() reproduces the closed-form type assignments that hold
on the quadrant-preserving parameter sets, and records per point whether the
numeric classification agrees.  Two structural caveats apply and are kept
visible rather than patched over:

 * on the fixed-point continuum (psi_star) the tangent direction always
   carries eigenvalue exactly 1, so the numeric type is non_hyperbolic and
   agreement is judged against the coarse three-way modulus split, where the
   curve points land in "saddle";
 * the blanket "saddle" assignment for the origin above the birth threshold
   overreaches: for alpha*beta > (2 - mu)*(2 - alpha - d0) both moduli
   exceed 1 and the origin is repelling.  The table reports the declared
   label and lets the agreement flag expose the mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .dynamics import State, step
from .fixed_points import DEFAULT_CONTINUUM_GRID, gamma, phi1_point
from .params import Params, birth_threshold, classify

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DeclaredType",
    "FixedPointType",
    "NotAFixedPoint",
    "OutsideDeclaredRegion",
    "StabilityReport",
    "UNIT_CIRCLE_TOL",
    "characteristic_roots",
    "classify_fixed_point",
    "coarse_type",
    "declared_type_table",
    "eigenvalues",
    "f_value",
    "g_value",
    "jacobian",
    "jacobian_entries",
    "modulus_type",
    "trace_det",
]

UNIT_CIRCLE_TOL = 1e-9


class NotAFixedPoint(ValueError):
    """The supplied state does not satisfy the fixed-point equations."""


class OutsideDeclaredRegion(ValueError):
    """Declared types are only defined on the quadrant-preserving sets."""


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
    import numpy as np

    x = float(z[0])
    if x <= -1.0:
        raise ValueError(f"Jacobian undefined for x <= -1, got x={x}")
    j00, j01, j10, j11 = jacobian_entries(p.alpha, p.beta, p.mu, p.d0, p.d1, x)
    return np.array([[j00, j01], [j10, j11]])


def trace_det(j00, j01, j10, j11):
    """Trace and determinant of the 2x2 matrix [[j00, j01], [j10, j11]]."""
    return j00 + j11, j00 * j11 - j01 * j10


def characteristic_roots(tr: float, det: float) -> tuple[complex, complex]:
    """Roots of lam**2 - tr*lam + det, ordered by descending modulus.

    Cancellation-safe quadratic formula; ties in modulus break by
    descending real part, then descending imaginary part.
    """
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = 0.5 * (tr + s) if tr >= 0.0 else 0.5 * (tr - s)
        if q == 0.0:
            return (complex(0.0), complex(0.0))
        first, second = complex(q), complex(det / q)
    else:
        s = 0.5 * math.sqrt(-disc)
        first, second = complex(0.5 * tr, s), complex(0.5 * tr, -s)
    if ((-abs(second), -second.real, -second.imag)
            < (-abs(first), -first.real, -first.imag)):
        return (second, first)
    return (first, second)


def eigenvalues(m: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix, ordered by descending modulus.

    Solves the characteristic polynomial directly; see characteristic_roots.
    """
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    (j00, j01), (j10, j11) = m.tolist()
    return characteristic_roots(*trace_det(j00, j01, j10, j11))


def g_value(p: Params, x: float) -> float:
    """g(x) = mu + d0 + alpha/(1+x)**2, the negated trace shift."""
    return p.mu + p.d0 + p.alpha / ((1.0 + x) * (1.0 + x))


def f_value(p: Params, x: float) -> float:
    """f(x), the discriminant of the characteristic polynomial for d1 = 0."""
    a = p.alpha / ((1.0 + x) * (1.0 + x))
    t = p.mu - p.d0 - a
    return t * t + 4.0 * p.beta * a


def modulus_type(eigs: tuple[complex, complex]) -> FixedPointType:
    """Four-way type from eigenvalue moduli with a unit-circle band."""
    moduli = [abs(lam) for lam in eigs]
    if any(abs(r - 1.0) <= UNIT_CIRCLE_TOL for r in moduli):
        return FixedPointType.NON_HYPERBOLIC
    if all(r < 1.0 for r in moduli):
        return FixedPointType.ATTRACTING
    if all(r > 1.0 for r in moduli):
        return FixedPointType.REPELLING
    return FixedPointType.SADDLE


def coarse_type(eigs: tuple[complex, complex]) -> FixedPointType:
    """Three-way type: attracting, repelling, else saddle.

    This is the split the declared tables use, where a modulus equal to 1
    falls into "saddle" rather than a separate non-hyperbolic bucket.
    Moduli within UNIT_CIRCLE_TOL of 1 count as equal to 1, so an
    eigenvalue that is 1 up to rounding cannot flip the answer.
    """
    moduli = [abs(lam) for lam in eigs]
    if all(r < 1.0 - UNIT_CIRCLE_TOL for r in moduli):
        return FixedPointType.ATTRACTING
    if all(r > 1.0 + UNIT_CIRCLE_TOL for r in moduli):
        return FixedPointType.REPELLING
    return FixedPointType.SADDLE


@dataclass(frozen=True)
class StabilityReport:
    """Linearization data at one fixed point."""

    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex]
    g_value: float
    f_value: float
    type: FixedPointType


def _attracting_by_inequalities(g: float, sqrt_f: float) -> bool:
    return (0.0 < g <= 2.0 and sqrt_f < g) or (2.0 < g < 4.0 and sqrt_f < 4.0 - g)


def _repelling_by_inequalities(g: float, sqrt_f: float) -> bool:
    return (g < 0.0 and sqrt_f < -g) or (g > 4.0 and sqrt_f < g - 4.0)


def classify_fixed_point(
    p: Params,
    z: Sequence[float],
    tol: float = 1e-9,
) -> StabilityReport:
    """Type the fixed point z of the map at p from its linearization.

    Raises NotAFixedPoint when one map step moves z by more than tol in the
    max norm, and ValueError unless tol > 0.  For d1 = 0 the closed-form
    eigenvalues and the analytic attracting/repelling inequality systems are
    evaluated as well and must agree with the modulus computation away from
    the unit-circle band.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    nx, ny = step(p, z)
    residual = max(abs(nx - float(z[0])), abs(ny - float(z[1])))
    scale = max(1.0, abs(float(z[0])), abs(float(z[1])))
    if residual > tol * scale:
        raise NotAFixedPoint(
            f"state ({z[0]}, {z[1]}) moves by {residual:.3e} in one step "
            f"(tolerance {tol * scale:.3e})"
        )

    x = float(z[0])
    jac = jacobian(p, z)
    eigs = eigenvalues(jac)
    g = g_value(p, x)
    f = f_value(p, x)
    fp_type = modulus_type(eigs)

    if p.d1 == 0.0 and fp_type is not FixedPointType.NON_HYPERBOLIC:
        sqrt_f = math.sqrt(f) if f >= 0.0 else math.nan
        margin = max(abs(abs(lam) - 1.0) for lam in eigs)
        if margin > 1e-7:
            # away from the unit circle the inequality systems must agree
            attract = _attracting_by_inequalities(g, sqrt_f)
            repel = _repelling_by_inequalities(g, sqrt_f)
            if attract != (fp_type is FixedPointType.ATTRACTING):
                raise AssertionError(
                    f"attracting inequalities disagree with moduli at {z!r}"
                )
            if repel and fp_type is not FixedPointType.REPELLING:
                raise AssertionError(
                    f"repelling inequalities disagree with moduli at {z!r}"
                )

    return StabilityReport(
        jacobian=jac,
        eigenvalues=eigs,
        g_value=g,
        f_value=f,
        type=fp_type,
    )


@dataclass(frozen=True)
class DeclaredType:
    """Closed-form type assignment for one fixed point, with its audit.

    declared is None on the threshold equality beta = mu*(1 + d0/alpha),
    where the strict-inequality table is silent and typing defers to the
    numeric classifier.  agrees compares declared against the numeric type,
    falling back to the coarse three-way split when the numeric type is
    non_hyperbolic (a modulus within the unit-circle band).
    """

    location: State
    declared: Optional[FixedPointType]
    numeric: FixedPointType
    coarse: FixedPointType
    agrees: bool
    note: str


def _audit(
    p: Params,
    x: float,
    y: float,
    declared: Optional[FixedPointType],
    note: str,
) -> DeclaredType:
    report = classify_fixed_point(p, (x, y), tol=1e-7)
    numeric = report.type
    crs = coarse_type(report.eigenvalues)
    if declared is None:
        agrees = True
    elif numeric is FixedPointType.NON_HYPERBOLIC:
        agrees = declared is crs
    else:
        agrees = declared is numeric
    return DeclaredType(
        location=State(x, y),
        declared=declared,
        numeric=numeric,
        coarse=crs,
        agrees=agrees,
        note=note,
    )


def declared_type_table(p: Params) -> tuple[DeclaredType, ...]:
    """Closed-form stability table on the quadrant-preserving sets.

    Requires the quadrant-preservation inequalities (raises
    OutsideDeclaredRegion otherwise).  Cases:

      theta_star + below threshold   origin attracting
      theta_star + above threshold   origin declared saddle (see module
                                     docstring for the known overreach)
      theta_star + threshold equality  declared None, deferred to numeric
      phi_star                       origin saddle, positive point attracting
      psi_star                       every sample of DEFAULT_CONTINUUM_GRID
                                     on the curve declared saddle

    Each entry carries the numeric audit; no exception is raised on
    disagreement so the table stays usable where the closed forms fail.
    """
    label = classify(p)
    if not label.in_theta:
        raise OutsideDeclaredRegion(
            "declared types require d1 = 0, alpha <= 1 - d0, mu <= 1, d0 < 1"
        )

    if label.in_psi_star:
        return tuple(
            _audit(p, x, float(gamma(p, x)), FixedPointType.SADDLE,
                   "continuum sample; tangent eigenvalue is exactly 1")
            for x in DEFAULT_CONTINUUM_GRID
        )

    if label.in_phi_star:
        x2, y2 = phi1_point(p)
        return (
            _audit(p, 0.0, 0.0, FixedPointType.SADDLE, "origin above threshold"),
            _audit(p, x2, y2, FixedPointType.ATTRACTING, "positive fixed point"),
        )

    # theta_star
    thr = birth_threshold(p)
    if p.beta < thr:
        declared, note = FixedPointType.ATTRACTING, "origin below threshold"
    elif p.beta > thr:
        declared, note = FixedPointType.SADDLE, "origin above threshold"
    else:
        declared, note = None, "threshold equality; deferred to numeric"
    return (_audit(p, 0.0, 0.0, declared, note),)
