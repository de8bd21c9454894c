"""Independent numerical cross-checks used by tests and the verify command.

Everything here is deliberately dumb and generic: numpy's companion-matrix
polynomial roots, centered finite differences, and a brute-force periodic
point scan.  None of it knows the closed forms used by the main modules,
which is what makes the cross-checks meaningful.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from . import params

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "fd_derivative",
    "fd_jacobian",
    "grid_period_scan",
    "quad_roots",
    "sample_invariance_pairs",
    "sample_region",
]

FD_STEP = 1e-6     # the step of fd_jacobian and fd_derivative
SCAN_TOL = 1e-10   # grid_period_scan bisects each sign change down to this width
SCAN_FLAT = 1e-12  # and reports each grid point where |f^period(x) - x| <= this


def quad_roots(a: float, b: float, c: float) -> tuple[complex, ...]:
    """Roots of a*x**2 + b*x + c as numpy's companion-matrix eigenvalues.

    A deliberately plain reference for the production solver
    fixed_points.quad_roots, sharing no code with it.  np.roots drops leading
    zero coefficients, so a = 0 gives the single linear root, and a
    constant, the zero polynomial included, gives none.  Sorted by
    descending real part, then descending imaginary part.  It does no
    scaling of its own, so trust it at moderate scales only.
    """
    import numpy as np

    return tuple(sorted((complex(r) for r in np.roots([a, b, c])),
                        key=lambda r: (-r.real, -r.imag)))


def fd_jacobian(
    f: Callable[[float, float], tuple[float, float]],
    z: Sequence[float],
) -> np.ndarray:
    """Centered finite-difference Jacobian of a planar map at state z."""
    import numpy as np

    h = FD_STEP
    x, y = float(z[0]), float(z[1])
    fxp = f(x + h, y)
    fxm = f(x - h, y)
    fyp = f(x, y + h)
    fym = f(x, y - h)
    return np.array(
        [
            [(fxp[0] - fxm[0]) / (2.0 * h), (fyp[0] - fym[0]) / (2.0 * h)],
            [(fxp[1] - fxm[1]) / (2.0 * h), (fyp[1] - fym[1]) / (2.0 * h)],
        ]
    )


def fd_derivative(f: Callable[[float], float], x: float) -> float:
    """Centered finite-difference derivative of a scalar map at x."""
    return (f(x + FD_STEP) - f(x - FD_STEP)) / (2.0 * FD_STEP)


def _iterate(f: Callable, x, times: int):
    for _ in range(times):
        x = f(x)
    return x


def grid_period_scan(
    f: Callable[[float], float],
    domain: tuple[float, float],
    period: int,
    grid: int = 1000,
) -> list[float]:
    """Brute-force periodic points of f on a closed interval.

    Evaluates F(x) = f^period(x) - x on a uniform grid, reports grid points
    where |F| <= SCAN_FLAT (covers whole-interval cycle families), bisects
    every sign change of F down to SCAN_TOL, and drops any candidate whose
    least period is a proper divisor of `period` (|f^d(x) - x| <= 1e-9).

    f must accept a numpy array and act elementwise, as simplex.u_map
    does; it is also called on single floats.  The map must be defined on
    the whole domain and anywhere iterates of grid points land.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise ValueError("domain must satisfy hi > lo")

    import numpy as np

    xs = np.linspace(lo, hi, grid)
    # a map that overflows on the grid warns per element; the values stay
    with np.errstate(all="ignore"):
        big_f = np.asarray(_iterate(f, xs.copy(), period), dtype=float) - xs

    def scalar_big_f(x: float) -> float:
        return _iterate(f, float(x), period) - float(x)

    def least_period_divides(x: float) -> bool:
        for d in range(1, period):
            if period % d == 0:
                if abs(_iterate(f, float(x), d) - float(x)) <= 1e-9:
                    return True
        return False

    found: list[float] = []

    def push(x: float):
        for prev in found:
            if abs(prev - x) <= 1e-9:
                return
        if not least_period_divides(x):
            found.append(x)

    flat = np.abs(big_f) <= SCAN_FLAT
    for i in np.nonzero(flat)[0]:
        push(float(xs[i]))

    for i in range(grid - 1):
        y0, y1 = big_f[i], big_f[i + 1]
        if flat[i] or flat[i + 1]:
            continue
        if y0 == 0.0:
            push(float(xs[i]))
            continue
        if y0 * y1 < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = scalar_big_f(a)
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = scalar_big_f(mid)
                if fm == 0.0 or (b - a) <= SCAN_TOL:
                    a = b = mid
                    break
                if (fa < 0) == (fm < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            push(0.5 * (a + b))

    found.sort()
    return found


# ---------------------------------------------------------------------------
# Seeded constructive samplers for the named parameter sets.  Tests and the
# verify command both draw from these, so the construction is documented
# here once.  Ranges are moderate on purpose: the closed forms are exact at
# any scale, but absolute residual bounds in the checks assume O(1..1e4)
# coordinates.
# ---------------------------------------------------------------------------


def _mix_zero(rng: np.random.Generator, lo: float, hi: float, p_zero: float) -> float:
    if rng.random() < p_zero:
        return 0.0
    return float(rng.uniform(lo, hi))


def sample_region(region: str, n: int, rng: np.random.Generator):
    """Draw n parameter vectors from one named set, by construction.

    Supported names: omega, omega_star, phi1, phi2, psi, theta_star_theta1,
    phi_star, psi_star.  Every draw is classified on the way out, so a
    construction bug fails fast rather than poisoning a test.
    """
    out = []
    for _ in range(n):
        if region == "omega":
            alpha = float(rng.uniform(0.05, 6.0))
            mu = float(rng.uniform(0.05, 1.5))
            d0 = _mix_zero(rng, 0.0, 1.0, 0.3)
            d1 = _mix_zero(rng, 0.0, 1.0, 0.5)
            beta = float(rng.uniform(0.05, 4.0))
            if rng.random() < 0.1:
                beta = mu  # exercise the matched-rates boundary
            p = params.validate(alpha, beta, mu, d0, d1)
        elif region == "omega_star":
            alpha = float(rng.uniform(0.2, 6.0))
            mu = float(rng.uniform(0.1, 1.0))
            d0 = _mix_zero(rng, 0.05, 1.0, 0.25)
            d1 = _mix_zero(rng, 0.05, 1.0, 0.5)
            thr = mu * (1.0 + d0 / alpha)
            u = rng.random()
            if u < 0.05 and d0 > 0.0:
                beta = thr  # exact threshold still classifies as omega_star
            elif u < 0.15 and d0 == 0.0 and d1 == 0.0:
                beta = float(mu * rng.uniform(1.05, 3.0))  # divergent corner
            else:
                beta = float(thr * rng.uniform(0.05, 0.999))
            p = params.validate(alpha, beta, mu, d0, d1)
            assert params.classify(p).in_omega_star
        elif region == "phi1":
            alpha = float(rng.uniform(0.2, 6.0))
            mu = float(rng.uniform(0.1, 1.0))
            d0 = float(rng.uniform(0.1, 1.0))
            thr = mu * (1.0 + d0 / alpha)
            beta = float(thr * (1.0 + rng.uniform(1e-3, 1.0)))
            p = params.validate(alpha, beta, mu, d0, 0.0)
            assert params.classify(p).in_phi1
        elif region == "phi2":
            alpha = float(rng.uniform(0.2, 6.0))
            mu = float(rng.uniform(0.1, 1.0))
            d0 = _mix_zero(rng, 0.05, 1.0, 0.3)
            d1 = float(rng.uniform(0.05, 1.0))
            thr = mu * (1.0 + d0 / alpha)
            beta = float(thr * (1.0 + rng.uniform(1e-3, 1.0)))
            p = params.validate(alpha, beta, mu, d0, d1)
            assert params.classify(p).in_phi2
        elif region == "psi":
            alpha = float(rng.uniform(0.05, 6.0))
            mu = float(rng.uniform(0.1, 1.5))
            p = params.validate(alpha, mu, mu, 0.0, 0.0)
            assert params.classify(p).in_psi
        elif region == "theta_star_theta1":
            d0 = _mix_zero(rng, 0.05, 0.9, 0.3)
            alpha = float(rng.uniform(0.05, 1.0) * (1.0 - d0))
            mu = float(rng.uniform(0.05, 1.0))
            thr = mu * (1.0 + d0 / alpha)
            beta = float(thr * rng.uniform(0.05, 1.0 - 1e-6))
            p = params.validate(alpha, beta, mu, d0, 0.0)
            lab = params.classify(p)
            assert lab.in_theta_star and lab.in_theta1
        elif region == "phi_star":
            d0 = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.05, 1.0) * (1.0 - d0))
            mu = float(rng.uniform(0.05, 1.0))
            thr = mu * (1.0 + d0 / alpha)
            beta = float(thr + 1e-6 * max(1.0, thr) + rng.uniform(0.0, 3.0))
            p = params.validate(alpha, beta, mu, d0, 0.0)
            assert params.classify(p).in_phi_star
        elif region == "psi_star":
            alpha = float(rng.uniform(0.05, 1.0 - 1e-6))
            mu = float(rng.uniform(0.05, 1.0))
            p = params.validate(alpha, mu, mu, 0.0, 0.0)
            assert params.classify(p).in_psi_star
        else:
            raise ValueError(f"unknown region name {region!r}")
        out.append(p)
    return out


def sample_invariance_pairs(n: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    """Draw (alpha, beta) pairs inside the simplex invariance region."""
    out = []
    for _ in range(n):
        beta = float(rng.uniform(1e-3, 1.0))
        if beta < 0.5:
            bound = 1.0 + 2.0 * math.sqrt(beta * (1.0 - beta))
        else:
            bound = 2.0
        alpha = float(bound * rng.uniform(1e-3, 1.0))
        out.append((alpha, beta))
    return out
