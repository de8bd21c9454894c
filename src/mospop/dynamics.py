"""Iteration of the two-stage map and long-run verdicts.

One step of the map sends (x, y) to

    x' = beta*y - alpha*x/(1 + x) - (d0 + d1*x)*x + x
    y' = alpha*x/(1 + x) - mu*y + y

where x counts larvae and y adults.  The x update is defined for x > -1
only; orbits are expected to live in the closed positive quadrant but the
map itself does not enforce that, so orbit() tracks quadrant exits with a
flag instead of failing.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .params import Params, birth_threshold, preserves_quadrant

__all__ = [
    "ConditionViolation",
    "OrbitResult",
    "OrbitVerdict",
    "State",
    "local_limit",
    "orbit",
    "step",
]

_HISTORY = 1024          # ring buffer length for revisit detection
_FULL_SCAN_STRIDE = 997  # prime stride so scans do not alias short cycles
_DENSE_SAMPLES = 1000    # store every iterate up to here, then thin
_SAMPLE_GROWTH = 1.1


class State(NamedTuple):
    """A point (x, y) of the phase plane: larvae and adult densities."""

    x: float
    y: float


class ConditionViolation(ValueError):
    """Raised when an operation requires the quadrant-preserving regime."""


class OrbitVerdict(Enum):
    CONVERGED = "converged"
    DIVERGED_X = "diverged_x"
    PERIODIC = "periodic"
    UNDECIDED = "undecided"


class OrbitResult(NamedTuple):
    """Outcome of iterating the map from one initial state.

    samples holds exact iterates (n, state): every step up to 1000, then a
    geometric thinning, and always the final state reached.  The quadrant
    flag records whether any iterate had a negative coordinate; such runs
    are still iterated but carry no biological meaning.
    """

    verdict: OrbitVerdict
    iterations_used: int
    samples: tuple[tuple[int, State], ...]
    limit: Optional[State] = None
    y_limit_estimate: Optional[float] = None
    period: Optional[int] = None
    left_positive_quadrant: bool = False


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


def _fixed_point_targets(p: Params):
    """Known fixed points to test convergence against.

    Returns (points, curve) where curve is the continuum parameterization
    y = gamma(x) when the fixed points form a curve, else None.
    """
    from .fixed_points import FixedPointKind, find_fixed_points, gamma

    fps = find_fixed_points(p)
    if fps.kind is FixedPointKind.CONTINUUM:
        return [], (lambda x: gamma(p, x))
    return [report.location for report in fps.points], None


def _distance_to_target(x: float, y: float, points, curve) -> tuple[float, State]:
    if curve is not None:
        # every (x, gamma(x)) with x > -1 is fixed, and orbit stops at x <= -1
        gy = curve(x)
        return abs(y - gy), State(x, gy)
    best = math.inf
    best_pt = State(0.0, 0.0)
    for pt in points:
        d = max(abs(x - pt[0]), abs(y - pt[1]))
        if d < best:
            best = d
            best_pt = State(pt[0], pt[1])
    return best, best_pt


def orbit(
    p: Params,
    z0: Sequence[float],
    max_iter: int = 1_000_000,
    tol: float = 1e-9,
    divergence_threshold: float = 1e9,
) -> OrbitResult:
    """Iterate the map from z0 until a verdict can be issued.

    Verdicts:
      converged   successive iterates moved less than tol and the state sits
                  within 10*tol of a known fixed point, which is reported as
                  the limit;
      diverged_x  x exceeded divergence_threshold; the current y is reported
                  as y_limit_estimate;
      periodic    the state revisited an earlier state (at most 1023 steps
                  back) within tol, with period >= 2.  Period 2 is checked
                  on every step; a period >= 3 only on a full-scan step
                  (every 997 steps), so it can be reported up to 996 steps
                  after the cycle starts;
      undecided   max_iter exhausted, or the orbit left the domain x > -1,
                  or coordinates stopped being finite, or a step returned
                  its state bit for bit away from every fixed point (the
                  float map stalls there; iteration stops at that step).

    The fixed points are looked up only at the first step that moves less
    than tol, so orbits that never get there never compute them; that is
    also where a phi1 point beyond the double range raises ClosedFormOverflow.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not (divergence_threshold > 0):
        raise ValueError("divergence_threshold must be > 0")

    a, b, m, d0, d1 = p
    x, y = float(z0[0]), float(z0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"initial state must be finite, got ({x}, {y})")
    if x <= -1.0:
        raise ValueError(f"map undefined for x <= -1, got x={x}")

    left = x < 0.0 or y < 0.0
    hist_x = [0.0] * _HISTORY
    hist_y = [0.0] * _HISTORY
    hist_x[0] = x
    hist_y[0] = y
    mask = _HISTORY - 1

    samples: list[tuple[int, State]] = [(0, State(x, y))]
    next_sample = 1.0
    next_scan = _FULL_SCAN_STRIDE

    verdict = OrbitVerdict.UNDECIDED
    limit: Optional[State] = None
    y_est: Optional[float] = None
    period: Optional[int] = None
    targets = None  # fixed points, found at the first convergence candidate
    inf = math.inf
    # xn <= x_cap also means xn is finite when the threshold is inf
    x_cap = min(divergence_threshold, sys.float_info.max)
    ntol = -tol
    px = py = math.nan  # the state two steps back; NaN matches nothing
    n = 0

    for n in range(1, max_iter + 1):
        t = a * x / (1.0 + x)
        xn = b * y - t - (d0 + d1 * x) * x + x
        yn = t - m * y + y

        if not (0.0 <= xn <= x_cap and 0.0 <= yn < inf):
            # rare, checked in this order: left the domain or stopped being
            # finite (undecided), left the quadrant (flagged), diverged
            if not (math.isfinite(xn) and math.isfinite(yn)) or xn <= -1.0:
                if xn < 0.0 or yn < 0.0:
                    left = True
                samples.append((n, State(xn, yn)))
                break
            if xn < 0.0 or yn < 0.0:
                left = True
            if xn > divergence_threshold:
                verdict = OrbitVerdict.DIVERGED_X
                y_est = yn
                x, y = xn, yn
                break

        hist_x[n & mask] = xn
        hist_y[n & mask] = yn

        if n >= next_sample:
            samples.append((n, State(xn, yn)))
            if n < _DENSE_SAMPLES:
                next_sample = n + 1.0
            else:
                next_sample = max(n + 1.0, next_sample * _SAMPLE_GROWTH)

        if ntol < xn - x < tol and ntol < yn - y < tol:
            if targets is None:
                targets = _fixed_point_targets(p)
            dist, target = _distance_to_target(xn, yn, *targets)
            if dist <= 10.0 * tol:
                verdict = OrbitVerdict.CONVERGED
                limit = target
                x, y = xn, yn
                break
            if xn == x and yn == y:
                # the float map fixes this state, so every later step would
                # return it too: undecided now rather than at max_iter
                break
            if n == next_scan:
                next_scan += _FULL_SCAN_STRIDE
        elif ntol < xn - px < tol and ntol < yn - py < tol:
            verdict = OrbitVerdict.PERIODIC
            period = 2
            x, y = xn, yn
            break
        elif n == next_scan:
            next_scan += _FULL_SCAN_STRIDE
            for k in range(3, min(n, mask) + 1):  # k = 2 failed just above
                idx = (n - k) & mask
                if ntol < xn - hist_x[idx] < tol and ntol < yn - hist_y[idx] < tol:
                    verdict = OrbitVerdict.PERIODIC
                    period = k
                    break
            if period is not None:
                x, y = xn, yn
                break

        px = x
        py = y
        x = xn
        y = yn

    if samples[-1][0] != n:
        samples.append((n, State(x, y)))

    return OrbitResult(
        verdict=verdict,
        iterations_used=n,
        samples=tuple(samples),
        limit=limit,
        y_limit_estimate=y_est,
        period=period,
        left_positive_quadrant=left,
    )


def local_limit(p: Params) -> State:
    """Predicted local limit of orbits in the quadrant-preserving regime.

    Requires the quadrant-preservation inequalities (d1 = 0,
    alpha <= 1 - d0, mu <= 1, d0 < 1); otherwise ConditionViolation.

    Returns (0, 0) when beta <= mu*(1 + d0/alpha).  Above that threshold
    with d0 > 0 the limit is the positive fixed point

        x* = alpha*(beta - mu)/(mu*d0) - 1,   y* = alpha*x*/(mu*(1 + x*)).

    Above threshold with d0 = 0 no finite positive fixed point exists; the
    larval coordinate grows without bound while y approaches alpha/mu, and
    the returned state is (inf, alpha/mu).

    The prediction is local: it is guaranteed for initial states in a
    neighborhood of the limit, not for the whole quadrant.
    """
    if not preserves_quadrant(p):
        raise ConditionViolation(
            "local limit prediction requires d1 = 0, alpha <= 1 - d0, "
            "mu <= 1 and d0 < 1"
        )
    if p.beta <= birth_threshold(p):
        return State(0.0, 0.0)
    if p.d0 == 0.0:
        return State(math.inf, p.alpha / p.mu)
    from .fixed_points import phi1_point

    return phi1_point(p)
