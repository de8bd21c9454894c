"""Fixed points by closed form: where they are and why.

Run:  python3 demos/02_fixed_points.py
"""

import math

from mospop import discriminant, find_fixed_points, gamma, step, validate


def show(title, p):
    fps = find_fixed_points(p)
    print(f"\n{title}")
    print(f"  kind: {fps.kind.value}")
    if p.d1 != 0.0:
        print(f"  quadratic discriminant: {discriminant(p):.12g}")
    for pt in fps.points:
        x, y = pt.location
        nx, ny = step(p, pt.location)
        moved = max(abs(nx - x), abs(ny - y))
        print(f"  ({x:.12g}, {y:.12g})  via {pt.formula.value}  "
              f"one-step movement {moved:.2e}")
    return fps


show("origin only (births below threshold)", validate(1.5, 0.4, 0.5, 0.0, 0.0))

fps = show("linear larval death, births above threshold",
           validate(6.0, 0.5, 0.4, 0.6, 0.0))
x2 = fps.points[1].location.x
print(f"  check: alpha*(beta-mu)/(mu*d0) - 1 = {6.0 * 0.1 / (0.4 * 0.6) - 1:.12g}")

fps = show("quadratic larval death", validate(1.0, 2.0, 0.5, 0.5, 0.5))
print(f"  check: sqrt(6) - 1 = {math.sqrt(6) - 1:.12g}")

p = validate(1.0, 1.0, 1.0, 0.0, 0.0)
fps = show("matched rates: a whole curve of equilibria", p)
print("  the curve is y = alpha*x/(mu*(1+x)); a few more points:")
for x in (0.25, 3.0, 42.0):
    print(f"    x={x:<5} y={gamma(p, x):.12g}")

# the degenerate growth corner: r0 > 1 yet no positive equilibrium
p = validate(1.0, 2.0, 1.0, 0.0, 0.0)
fps = find_fixed_points(p)
print("\ngrowth with zero larval death")
print(f"  kind: {fps.kind.value}  (nothing to balance the births, so "
      "orbits just leave)")
