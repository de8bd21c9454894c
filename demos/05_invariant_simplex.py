"""The interval map that appears when totals are conserved.

With matched birth and death rates and no larval death, x + y never
changes, so the dynamics on the slice x + y = 1 reduce to one dimension.

Run:  python3 demos/05_invariant_simplex.py
"""

from mospop import (
    SimplexClass,
    SimplexParams,
    analyze,
    fixed_point_u,
    grid_period_scan,
    period2_set,
    shape_class,
    simplex_invariant,
    u_map,
    u_orbit_limit,
    x_minimum,
)


def report(sp):
    inv = simplex_invariant(sp)
    print(f"\nalpha={sp.alpha}, beta={sp.beta}")
    print(f"  invariant: {inv.region is not SimplexClass.NONE} "
          f"(region {inv.region.value})")
    if inv.witness is not None:
        print(f"  escape witness: U({inv.witness:.6g}) = "
              f"{u_map(sp, inv.witness):.6g}")
        return
    a = analyze(sp)
    print(f"  fixed point x* = {a.x_star:.12g}, U'(x*) = {a.u_prime_at_star:.12g} "
          f"({a.stability.value})")
    xm = x_minimum(sp)
    print(f"  shape: {shape_class(*sp).value}"
          + (f", minimum at {xm:.6g}" if xm is not None else ""))
    print(f"  period-2 set: {period2_set(sp).kind.value}")


report(SimplexParams(1.0, 1.0))
report(SimplexParams(0.5, 0.25))
report(SimplexParams(0.3, 0.8))
report(SimplexParams(1.9, 0.1))   # outside: the interval is not kept

print("\n\nthe corner (2, 1) is special")
print("=" * 52)
sp = SimplexParams(2.0, 1.0)
print(f"U(x) = (1-x)/(1+x) there, and applying it twice gives x back:")
for x0 in (0.0, 0.3, 0.7):
    x1 = u_map(sp, x0)
    x2 = u_map(sp, x1)
    print(f"  {x0:.4f} -> {x1:.4f} -> {x2:.4f}")
print(f"so every point except x* = {fixed_point_u(sp):.12g} lies on a 2-cycle,")
ob = u_orbit_limit(sp, 0.3)
print(f"and an orbit started at 0.3 just alternates: {ob.cycle}")

print("\naway from the corner the cycles vanish; a period-2 scan over")
print("a few interior parameter pairs finds nothing:")
for alpha, beta in ((1.0, 1.0), (0.5, 0.25), (1.5, 0.75), (0.9, 0.6)):
    sp = SimplexParams(alpha, beta)
    hits = grid_period_scan(lambda x: u_map(sp, x), (0.0, 1.0), 2, grid=600)
    print(f"  alpha={alpha}, beta={beta}: {len(hits)} period-2 points")

print("\nconvergence from a few starts (alpha=1, beta=1):")
sp = SimplexParams(1.0, 1.0)
for x0 in (0.0, 0.5, 0.99):
    ob = u_orbit_limit(sp, x0)
    print(f"  x0={x0:<5} -> {ob.limit:.12g} in {ob.iterations_used} steps")
print(f"each step shrinks the distance to x* by about |U'(x*)| = "
      f"{abs(analyze(sp).u_prime_at_star):.3f}")
