"""Independent answers for the benchmark's output checks, using numpy only.

Nothing here imports mospop.  Each routine recomputes a quantity from the
model equations by a different route than the package's closed forms:
numpy.roots for the larval quadratic, numpy.linalg.eigvals for spectra, and
a plain one-step residual for fixed points.  A rate vector is the tuple
(alpha, beta, mu, d0, d1).
"""

from __future__ import annotations

import math

import numpy as np


def step(rates, x: float, y: float) -> tuple[float, float]:
    """One generation of the map, written out from the model equations."""
    alpha, beta, mu, d0, d1 = rates
    t = alpha * x / (1.0 + x)
    return beta * y - t - (d0 + d1 * x) * x + x, t - mu * y + y


def backward_error(rates, x: float, y: float) -> float:
    """One-step residual of (x, y) relative to the sum of the absolute terms.

    The residual of each equation is formed without the +x / +y terms that
    cancel, then divided by the sum of the magnitudes of every term of that
    equation, so the result is scale-free.
    """
    alpha, beta, mu, d0, d1 = rates
    t = alpha * x / (1.0 + x)
    rx = beta * y - t - (d0 + d1 * x) * x
    ry = t - mu * y
    sx = abs(beta * y) + abs(t) + abs(d0 * x) + abs(d1 * x * x) + abs(x)
    sy = abs(t) + abs(mu * y) + abs(y)
    return max(_ratio(rx, sx), _ratio(ry, sy))


def _ratio(r: float, s: float) -> float:
    if r == 0.0:
        return 0.0
    return abs(r) / s if s > 0.0 else math.inf


def jacobian(rates, x: float) -> np.ndarray:
    """Partial derivatives of the map at larval density x."""
    alpha, beta, mu, d0, d1 = rates
    s = alpha / (1.0 + x) ** 2
    return np.array([[1.0 - d0 - 2.0 * d1 * x - s, beta], [s, 1.0 - mu]])


def eigen_gap(ours, m: np.ndarray) -> float:
    """Distance between a claimed eigenvalue pair and numpy's, scaled by |m|.

    The pairs are matched in whichever order fits better, so no ordering
    convention is assumed.
    """
    ref = [complex(v) for v in np.linalg.eigvals(m)]
    a, b = complex(ours[0]), complex(ours[1])
    gap = min(max(abs(a - ref[0]), abs(b - ref[1])),
              max(abs(a - ref[1]), abs(b - ref[0])))
    return gap / max(1.0, float(np.max(np.abs(m))))


def _positive_roots(coeffs) -> list[float]:
    roots = np.roots(coeffs)
    return [float(r.real) for r in roots
            if r.real > 0.0 and abs(r.imag) <= 1e-9 * abs(r.real)]


def fixed_point_count(rates):
    """1 + the positive roots of the larval quadratic that are fixed points.

    Returns math.inf when the quadratic vanishes identically (d0 = d1 = 0 and
    beta = mu), where every point of the curve y = gamma(x) is fixed.
    """
    alpha, beta, mu, d0, d1 = rates
    if d0 == 0.0 and d1 == 0.0 and beta == mu:
        return math.inf
    count = 1
    for x in _positive_roots([d1, d0 + d1, d0 + alpha * (1.0 - beta / mu)]):
        y = alpha * x / (mu * (1.0 + x))
        if backward_error(rates, x, y) <= 1e-9:
            count += 1
    return count


def spectral_radius_at_origin(rates) -> float:
    return float(max(abs(np.linalg.eigvals(jacobian(rates, 0.0)))))


def region(rates) -> str:
    """Primary region from the offspring-number test r0 > 1."""
    alpha, beta, mu, d0, d1 = rates
    if d0 == 0.0 and d1 == 0.0 and beta == mu:
        return "psi"
    if alpha * beta / ((alpha + d0) * mu) > 1.0:
        if d1 > 0.0:
            return "phi2"
        if d0 > 0.0:
            return "phi1"
    return "omega_star"


def simplex_fixed_point(alpha: float, beta: float) -> float:
    """Root in [0, 1] of U(x) = x, i.e. of beta*x**2 + alpha*x - beta."""
    roots = _positive_roots([beta, alpha, -beta])
    inside = [x for x in roots if x <= 1.0 + 1e-12]
    if len(inside) != 1:
        raise ValueError(f"expected one root in [0, 1], got {roots}")
    return inside[0]


def returns_after(rates, x: float, y: float, period: int, tol: float) -> bool:
    """True when `period` steps from (x, y) come back within tol (max norm)."""
    u, v = x, y
    for _ in range(period):
        u, v = step(rates, u, v)
    return max(abs(u - x), abs(v - y)) <= tol
