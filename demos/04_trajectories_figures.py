"""Three showcase trajectories, written out as CSV tables and SVG figures.

Run:  python3 demos/04_trajectories_figures.py
Files land in demos/output/.
"""

import os

from mospop import local_limit, orbit, validate
from mospop.cli import render_trajectory_svg

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")
os.makedirs(OUT, exist_ok=True)


def save(name, res):
    csv_path = os.path.join(OUT, name + ".csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("iter,x,y\n")
        for n, x, y in zip(res.samples.n, res.samples.x, res.samples.y):
            fh.write(f"{n},{x:.12g},{y:.12g}\n")
    svg_path = os.path.join(OUT, name + ".svg")
    with open(svg_path, "w") as fh:
        fh.write(render_trajectory_svg(res.samples))
    print(f"  wrote {csv_path}")
    print(f"  wrote {svg_path}")


print("1. extinction: births below threshold")
p = validate(1.5, 0.4, 0.5, 0.0, 0.0)
res = orbit(p, (5.0, 4.0))
print(f"  verdict {res.verdict.value} after {res.iterations_used} iterations, "
      f"limit {tuple(res.limit)}")
save("extinction", res)

print("\n2. unbounded larvae with an adult plateau")
p = validate(1.5, 0.5, 0.4, 0.0, 0.0)
res = orbit(p, (10.0, 9.0), divergence_threshold=1e6, max_iter=4_000_000)
print(f"  verdict {res.verdict.value} after {res.iterations_used} iterations")
print(f"  adults level off near {res.samples.y[-1]:.6f} "
      f"(alpha/mu = {1.5 / 0.4})")
save("unbounded", res)

print("\n3. settling on the interior equilibrium")
p = validate(6.0, 0.5, 0.4, 0.6, 0.0)
res = orbit(p, (50.0, 80.0))
print(f"  verdict {res.verdict.value} after {res.iterations_used} iterations, "
      f"limit {tuple(res.limit)}")
save("interior", res)

print("\n4. the same limit, predicted without iterating")
p = validate(0.5, 1.5, 0.5, 0.25, 0.0)
predicted = local_limit(p, (3.01, 0.76))
res = orbit(p, (3.01, 0.76))
print(f"  local_limit says {tuple(predicted)}; the orbit found "
      f"{tuple(res.limit)} in {res.iterations_used} iterations")

print("\n5. on the psi continuum the limit depends on the start")
p = validate(0.5, 0.7, 0.7, 0.0, 0.0)
for start in ((1.0, 1.0), (0.2, 3.0)):
    predicted = local_limit(p, start)
    res = orbit(p, start)
    print(f"  from {start}: local_limit says ({predicted.x:.10g}, {predicted.y:.10g}); "
          f"the orbit found ({res.limit.x:.10g}, {res.limit.y:.10g}) "
          f"in {res.iterations_used} iterations")
