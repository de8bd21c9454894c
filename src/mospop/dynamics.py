"""Iteration of the two-stage map (fixed_points.step) and long-run verdicts.

The x update is defined for x > -1 only; orbits are expected to live in
the closed positive quadrant but the map itself does not enforce that, so
orbit() tracks quadrant exits with a flag instead of failing.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from enum import Enum
from typing import NamedTuple, Optional

from .fixed_points import (ClosedFormOverflow, FixedPointKind, State, fixed_point_locations,
                           gamma, phi1_point, quad_roots)
from .params import (ConditionViolation, Params, birth_threshold, preserves_quadrant,
                     primary_region)

__all__ = [
    "OrbitResult",
    "OrbitVerdict",
    "Samples",
    "local_limit",
    "orbit",
]

_SAVE_WINDOW_CAP = 1024  # longest gap between tortoise saves: the longest period
_DENSE_SAMPLES = 1000    # store every iterate up to here, then thin
_SAMPLE_GROWTH = 1.1


class OrbitVerdict(Enum):
    CONVERGED = "converged"
    DIVERGED_X = "diverged_x"
    PERIODIC = "periodic"
    UNDECIDED = "undecided"


class Samples(Sequence):
    """Sampled iterates of an orbit, stored as three columns.

    n holds the step numbers, x and y the states' coordinates, all tuples of
    one length.  Item k is the pair (n[k], State(x[k], y[k])), built when it
    is read.  Two Samples are equal when their columns are.
    """

    __slots__ = ("n", "x", "y")

    def __init__(self, n: Sequence[int], x: Sequence[float], y: Sequence[float]):
        self.n, self.x, self.y = tuple(n), tuple(x), tuple(y)
        if not len(self.n) == len(self.x) == len(self.y):
            raise ValueError("sample columns must have one length")

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, k: int) -> tuple[int, State]:
        return self.n[k], State(self.x[k], self.y[k])

    def __eq__(self, other):
        if isinstance(other, Samples):
            return self.n == other.n and self.x == other.x and self.y == other.y
        return NotImplemented

    def __repr__(self) -> str:
        return f"Samples(n={self.n!r}, x={self.x!r}, y={self.y!r})"


class OrbitResult(NamedTuple):
    """Outcome of iterating the map from one initial state.

    samples holds exact iterates: every step up to 1000, then a geometric
    thinning, and always the final state reached.  It is a Samples, the
    columns samples.n, samples.x and samples.y; samples[k] builds the pair
    (n, state) when it is read.  The quadrant flag records whether any
    iterate had a negative coordinate; such runs are still iterated but
    carry no biological meaning.
    """

    verdict: OrbitVerdict
    iterations_used: int
    samples: Samples
    limit: Optional[State] = None
    period: Optional[int] = None
    left_positive_quadrant: bool = False


def _fixed_point_targets(p: Params):
    """Known fixed points to test convergence against.

    Returns (points, curve) where points are the finite (x, y) of
    fixed_point_locations, and curve is the continuum parameterization
    y = gamma(x) when the fixed points form a curve, else None.  A closed
    form that overflows to a non-finite coordinate gives no target.
    """
    kind, locations = fixed_point_locations(p)
    if kind is FixedPointKind.CONTINUUM:
        return (), (lambda x: gamma(p, x))
    return tuple((px, py) for px, py, _ in locations
                 if math.isfinite(px) and math.isfinite(py)), None


def _distance_to_target(x: float, y: float, points, curve) -> tuple[float, float, float]:
    """The max-norm distance to the nearest target, and that target's x, y."""
    if curve is not None:
        # every (x, gamma(x)) with x > -1 is fixed, and orbit stops at x <= -1
        gy = curve(x)
        return abs(y - gy), x, gy
    best = math.inf
    bx = by = 0.0
    for px, py in points:
        d = max(abs(x - px), abs(y - py))
        if d < best:
            best, bx, by = d, px, py
    return best, bx, by


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
      diverged_x  x exceeded divergence_threshold; the final sample holds
                  that state, and its y estimates the adults' limit;
      periodic    the state came back within tol of the one saved state,
                  the tortoise (Brent's cycle detection), k steps after it
                  was saved: period k.  The tortoise is the start, then the
                  state at the end of each save window; the windows are
                  2, 4, 8, ... steps long, up to 1024 (saves at steps 2, 6,
                  14, ..., 1022, then every 1024 steps).  A save due on a
                  convergence candidate that failed moves to the next step
                  that is not one, since a return to that state would be a
                  candidate too and skip the tortoise test.  A 1-step
                  return is a candidate, so the period is >= 2.  So returns
                  after 2..1024 steps are seen, with one saved state
                  whatever the budget: if every state from step e on
                  returns within tol after p steps, and some step of that
                  cycle moves tol or more, period p is reported by step
                  min(2*m, m + 1023) + 2*p - 1 at the latest, where
                  m = max(e, p - 2);
      undecided   max_iter exhausted, or the orbit left the domain x > -1,
                  or coordinates stopped being finite, or a step returned
                  its state bit for bit away from every fixed point (the
                  float map stalls there; iteration stops at that step).

    The fixed points are looked up only at the first step that moves less
    than tol, so orbits that never get there never compute them, and no
    residual is formed for them.  That is also where a phi1 point beyond
    the double range raises ClosedFormOverflow; a phi2 point whose closed
    form overflows to a non-finite coordinate is skipped as a target.
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
    ns, xs, ys = [0], [x], [y]  # the sample columns
    next_sample = 1.0
    tx, ty = x, y  # the tortoise, saved at step `saved`
    saved = 0
    next_save = 2

    verdict = OrbitVerdict.UNDECIDED
    limit: Optional[State] = None
    period: Optional[int] = None
    targets = None  # fixed points, found at the first convergence candidate
    inf = math.inf
    # xn <= x_cap also means xn is finite when the threshold is inf
    x_cap = min(divergence_threshold, sys.float_info.max)
    ntol = -tol
    n = 0

    for n in range(1, max_iter + 1):
        t = a * x / (1.0 + x)
        xn = b * y - t - (d0 + d1 * x) * x + x
        yn = t - m * y + y

        if not (0.0 <= xn <= x_cap and 0.0 <= yn < inf):
            # rare, checked in this order: left the quadrant (flagged), left
            # the domain or stopped being finite (undecided), diverged
            if xn < 0.0 or yn < 0.0:
                left = True
            if not (math.isfinite(xn) and math.isfinite(yn)) or xn <= -1.0:
                x, y = xn, yn
                break
            if xn > divergence_threshold:
                verdict = OrbitVerdict.DIVERGED_X
                x, y = xn, yn
                break

        if n >= next_sample:
            ns.append(n)
            xs.append(xn)
            ys.append(yn)
            if n < _DENSE_SAMPLES:
                next_sample = n + 1.0
            else:
                next_sample = max(n + 1.0, next_sample * _SAMPLE_GROWTH)

        if ntol < xn - x < tol and ntol < yn - y < tol:
            if targets is None:
                targets = _fixed_point_targets(p)
            dist, lx, ly = _distance_to_target(xn, yn, *targets)
            if dist <= 10.0 * tol:
                verdict = OrbitVerdict.CONVERGED
                limit = State(lx, ly)
                x, y = xn, yn
                break
            if xn == x and yn == y:
                # the float map fixes this state, so every later step would
                # return it too: undecided now rather than at max_iter
                break
            if n == next_save:
                # a return to this state would be a candidate too and never
                # reach the tortoise test below: save a later state instead
                next_save += 1
        elif ntol < xn - tx < tol and ntol < yn - ty < tol:
            verdict = OrbitVerdict.PERIODIC
            period = n - saved
            x, y = xn, yn
            break

        if n == next_save:
            tx, ty = xn, yn
            saved = n
            next_save = min(2 * n + 2, n + _SAVE_WINDOW_CAP)

        x = xn
        y = yn

    if ns[-1] != n:
        ns.append(n)
        xs.append(x)
        ys.append(y)

    return OrbitResult(
        verdict=verdict,
        iterations_used=n,
        samples=Samples(ns, xs, ys),
        limit=limit,
        period=period,
        left_positive_quadrant=left,
    )


def local_limit(p: Params, z0) -> State:
    """Predicted limit of the orbit from z0 = (x0, y0) in the
    quadrant-preserving regime.

    Requires the quadrant-preservation inequalities of preserves_quadrant;
    otherwise params.ConditionViolation.

    On psi (d0 = d1 = 0, beta = mu) the step conserves x + y, and the limit
    is the continuum point (x, gamma(x)) on the start's line,
    x + gamma(x) = x0 + y0, the root above -1 of
    mu*x**2 + (mu + alpha - t)*x - t = 0 for t = mu*(x0 + y0).  Raises
    fixed_points.ClosedFormOverflow where that point leaves the double range.

    The map fixes the origin, so from z0 = (0, 0) the limit is (0, 0) on
    every branch.  Off psi every other z0 gets one prediction: (0, 0) when
    beta <= mu*(1 + d0/alpha), and above that threshold with d0 > 0 the
    positive fixed point

        x* = alpha*(beta - mu)/(mu*d0) - 1,   y* = alpha*x*/(mu*(1 + x*)).

    Above threshold with d0 = 0 no finite positive fixed point exists; the
    larval coordinate grows without bound while y approaches alpha/mu, and
    the returned state is (inf, alpha/mu).

    Off psi the prediction is local: it is guaranteed for initial states in
    a neighborhood of the limit, not for the whole quadrant.
    """
    if not preserves_quadrant(p):
        raise ConditionViolation("local limit prediction")
    if primary_region(p) == "psi":
        # (1 + x)*mu*(x + gamma(x) - s) = 0 for t = mu*s: finite coefficients
        # whenever t is, and a root > -1 exactly when it fits the double range
        t = p.mu * z0[0] + p.mu * z0[1]
        roots = quad_roots(p.mu, p.mu + p.alpha - t, -t) if math.isfinite(t) else ()
        if not (roots and roots[0].real > -1.0):
            raise ClosedFormOverflow("psi continuum point x + gamma(x) = x0 + y0 overflows")
        return State(roots[0].real, gamma(p, roots[0].real))
    if p.beta <= birth_threshold(p) or z0[0] == z0[1] == 0.0:
        return State(0.0, 0.0)
    if p.d0 == 0.0:
        return State(math.inf, p.alpha / p.mu)
    return phi1_point(p)
