"""Command line front end.

Subcommands: classify, fixed-points, stability, simulate, simplex, sweep,
verify.  Every subcommand accepts --json for a single machine-readable
object on stdout; the default output is a short human-readable report.

Numeric output is printed with 12 significant digits everywhere, CSV files
use '.' decimals, ',' separators, a header row and LF line endings, and
repeated invocations with identical flags produce byte-identical output.

Exit codes: 0 success, 1 failed verification, 2 invalid parameters or
usage, 3 I/O failure.  The flag --tol of `stability` and `simulate` is the
only tolerance source (default 1e-9); every tolerance must be a positive
finite float.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from typing import Optional, Sequence

# oracles and params are loaded by every start (oracles imports params, and
# the benchmark's tracer looks oracles up in sys.modules after `import
# mospop.cli`).  The other library modules are imported by the subcommands
# that call them, so a start loads only what its subcommand runs.
from . import oracles, params

NUMBER_FORMAT = ".12g"  # every number printed: 12 significant digits
# the most values one invocation builds: sweep cells, continuum samples, U
# iterates or verify draws; a larger request is a usage error, raised before
# any is built
MAX_VALUES = 10**7
SWEEP_QUANTITIES = (
    "region",
    "r0",
    "fixed_point_count",
    "spectral_radius_at_origin",
    "x_star",
)


def fmt(v) -> str:
    """v in NUMBER_FORMAT: a float, or a complex number as re+imj."""
    return format(v, NUMBER_FORMAT)


def _json_ready(v):
    """v for json.dumps, every number rendered as fmt renders it: finite
    floats rounded to 12 significant digits, non-finite ones as strings,
    complex numbers as {"re", "im"}.  Dicts, lists and tuples are walked;
    everything else passes through."""
    if isinstance(v, float):
        return float(fmt(v)) if math.isfinite(v) else fmt(v)
    if isinstance(v, complex):
        return {"re": _json_ready(v.real), "im": _json_ready(v.imag)}
    if isinstance(v, dict):
        return {k: _json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_ready(x) for x in v]
    return v


def _usage_error(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _tol(args) -> float:
    """--tol, else 1e-9; positive and finite."""
    if args.tol is None:
        return 1e-9
    if not (args.tol > 0 and math.isfinite(args.tol)):
        _usage_error(f"--tol must be a positive float, got {args.tol!r}")
    return args.tol


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _params_from_args(args) -> params.Params:
    return params.validate(args.alpha, args.beta, args.mu, args.d0, args.d1)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        import json

        print(json.dumps(_json_ready(payload), indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    p = _params_from_args(args)
    label = params.classify(p)
    flags = {k: v for k, v in label._asdict().items() if k.startswith("in_")}
    payload = {
        "params": p._asdict(),
        "primary_region": params.primary_region(p),
        "flags": flags,
        "simplex_class": label.simplex_class.value,
        "r0": params.basic_offspring_number(p),
        "birth_threshold": params.birth_threshold(p),
    }
    human = [
        f"primary region: {payload['primary_region']}",
        f"r0: {fmt(payload['r0'])}  "
        f"(birth threshold for beta: {fmt(payload['birth_threshold'])})",
        "flags: " + ", ".join(k for k, v in flags.items() if v),
        f"simplex class: {payload['simplex_class']}",
    ]
    if label.in_psi:
        human.append("note: continuum of fixed points (matched rates, "
                     "no larval death)")
    if args.eps is not None:
        near = params.boundary_report(p, args.eps)
        payload["boundaries_within_eps"] = near
        human.append(
            "boundaries within eps: " + ("; ".join(near) if near else "none")
        )
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------


def _point_payload(report) -> dict:
    return {
        "x": report.location.x,
        "y": report.location.y,
        "formula": report.formula.value,
        "residual": report.residual,
    }


def cmd_fixed_points(args) -> int:
    from . import fixed_points

    p = _params_from_args(args)
    grid = fixed_points.DEFAULT_CONTINUUM_GRID
    if args.samples is not None:
        if args.samples < 2:
            _usage_error("--samples must be at least 2")
        if args.samples > MAX_VALUES:
            _usage_error(f"--samples must be at most {MAX_VALUES}, got {args.samples}")
        hi = grid[-1]
        grid = tuple(hi * k / (args.samples - 1) for k in range(args.samples))
    fps = fixed_points.find_fixed_points(p, sample_grid=grid)
    payload = {
        "kind": fps.kind.value,
        "points": [_point_payload(r) for r in fps.points],
    }
    if p.d1 != 0.0:
        payload["discriminant"] = fixed_points.discriminant(p)
    if fps.kind is fixed_points.FixedPointKind.CONTINUUM:
        payload["curve"] = "y = alpha*x/(mu*(1+x)) for all x >= 0"
        payload["sample_grid"] = [r.location.x for r in fps.points]

    if args.verify:
        a, b, c = fixed_points.larval_quadratic(p)
        xs = [r.location.x for r in fps.points]
        payload["verification"] = {
            # the origin comes first with residual 0
            "max_step_residual": max(r.residual for r in fps.points),
            "max_quadratic_residual":
                max([0.0] + [abs(a * x * x + b * x + c) for x in xs if x > 0.0]),
        }

    human = [f"kind: {payload['kind']}"]
    if "sample_grid" in payload:
        human.append("curve: y = alpha*x/(mu*(1+x)), sampled at "
                     + ", ".join(fmt(x) for x in payload["sample_grid"]))
    for pt in payload["points"]:
        human.append(f"  ({fmt(pt['x'])}, {fmt(pt['y'])})"
                     f"  formula={pt['formula']}  residual={fmt(pt['residual'])}")
    if "discriminant" in payload:
        human.append(f"quadratic discriminant: {fmt(payload['discriminant'])}")
    if args.verify:
        v = payload["verification"]
        human.append(f"verification: max step residual {fmt(v['max_step_residual'])}, "
                     f"max quadratic residual {fmt(v['max_quadratic_residual'])}")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _fd_jacobian_error(p: params.Params, z, jac) -> float:
    """Largest entry gap between jac and the finite-difference Jacobian of
    the map at z, relative to max(1, largest |entry| of jac)."""
    import numpy as np

    from . import fixed_points

    fd = oracles.fd_jacobian(lambda x, y: fixed_points.step(p, (x, y)), z)
    return float(np.max(np.abs(fd - jac)) / max(1.0, float(np.max(np.abs(jac)))))


def _lapack_eigenvalue_gap(jac, eigs) -> float:
    """Largest distance between eigs and LAPACK's eigenvalues of jac, both
    ordered by descending modulus, then real part, then imaginary part."""
    import numpy as np

    lapack = sorted(np.linalg.eigvals(jac),
                    key=lambda lam: (-abs(lam), -lam.real, -lam.imag))
    return max(abs(complex(a) - b) for a, b in zip(lapack, eigs))


def _stability_payload(p: params.Params, z, tol: float, want_verify: bool) -> dict:
    from . import stability

    report = stability.classify_fixed_point(p, z, tol=tol)
    lam1, lam2 = report.eigenvalues
    j00, j01, j10, j11 = report.jacobian_entries
    x, y = float(z[0]), float(z[1])
    payload = {
        "location": {"x": x, "y": y},
        "jacobian": [[j00, j01], [j10, j11]],
        "eigenvalues": [lam1, lam2],
        "moduli": [abs(lam1), abs(lam2)],
        "g": stability.g_value(p, x),
        "f": stability.f_value(p, x),
        "type": report.type.value,
    }
    if want_verify:
        jac = stability.jacobian(p, z)
        payload["verification"] = {
            "fd_jacobian_rel_error": _fd_jacobian_error(p, z, jac),
            "eigenvalue_cross_check": _lapack_eigenvalue_gap(jac, report.eigenvalues),
        }
    return payload


def cmd_stability(args) -> int:
    from . import fixed_points, stability

    p = _params_from_args(args)
    tol = _tol(args)
    if args.at is not None:
        targets = [tuple(args.at)]
    else:
        targets = [(x, y) for x, y, _ in fixed_points.fixed_point_locations(p)[1]]

    reports = [_stability_payload(p, z, tol, args.verify) for z in targets]
    payload: dict = {"points": reports}

    human = []
    for rep in reports:
        loc = rep["location"]
        lam1, lam2 = rep["eigenvalues"]
        human.append(f"({fmt(loc['x'])}, {fmt(loc['y'])}): {rep['type']}")
        human.append(f"  eigenvalues: {fmt(lam1)}, {fmt(lam2)}")
        if "verification" in rep:
            v = rep["verification"]
            human.append(
                f"  verify: fd jacobian rel err {fmt(v['fd_jacobian_rel_error'])}, "
                f"eig cross-check {fmt(v['eigenvalue_cross_check'])}"
            )

    if params.preserves_quadrant(p) and args.at is None:
        payload["declared_types"] = [
            {
                "x": d.location.x,
                "y": d.location.y,
                "declared": None if d.declared is None else d.declared.value,
                "numeric": d.numeric.value,
                "agrees": d.agrees,
                "note": d.note,
            }
            for d in stability.declared_type_table(p)
        ]
        for d in payload["declared_types"]:
            human.append(
                f"declared at ({fmt(d['x'])}, {fmt(d['y'])}): "
                f"{d['declared'] or 'deferred'}"
                f" [numeric {d['numeric']}, agrees={d['agrees']}]"
            )
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def render_trajectory_svg(samples) -> str:
    """Minimal two-polyline SVG of an orbit's Samples, with axis ticks."""
    width, height = 720, 460
    ml, mr, mt, mb = 64, 18, 42, 50
    # only samples with finite x and y are scaled and drawn; sample 0 is one
    ns, xs, ys = zip(*[(float(n), x, y) for n, x, y in zip(samples.n, samples.x, samples.y)
                       if math.isfinite(x) and math.isfinite(y)])
    n_hi = max(ns) if max(ns) > 0 else 1.0
    v_lo = min(0.0, min(xs), min(ys))
    v_hi = max(max(xs), max(ys))
    if v_hi <= v_lo:
        v_hi = v_lo + 1.0
    # where the span times the plot height overflows, every value and tick
    # is divided exactly by one power of two near the largest magnitude
    k = 0
    if not math.isfinite((height - mt - mb) * (v_hi - v_lo)):
        k = math.frexp(max(abs(v_lo), abs(v_hi)))[1]
        xs, ys = ([math.ldexp(v, -k) for v in vs] for vs in (xs, ys))
        v_lo, v_hi = math.ldexp(v_lo, -k), math.ldexp(v_hi, -k)

    def px(n: float) -> float:
        return ml + (width - ml - mr) * n / n_hi

    def py(v: float) -> float:
        return height - mb - (height - mt - mb) * (v - v_lo) / (v_hi - v_lo)

    def pts(series) -> str:
        return " ".join(
            f"{px(n):.2f},{py(v):.2f}" for n, v in zip(ns, series)
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
    ]
    for i in range(6):
        n = n_hi * i / 5.0
        x = px(n)
        v = v_lo + (v_hi - v_lo) * i / 5.0
        y = py(v)
        # the top tick can round past v_hi, and 2**k times it past the range
        label = math.ldexp(min(v, v_hi), k) if k else v
        parts += [
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" '
            f'y2="{height - mb + 6}" stroke="black"/>',
            f'<text x="{x:.2f}" y="{height - mb + 22}" font-size="12" '
            f'text-anchor="middle">{n:.6g}</text>',
            f'<line x1="{ml - 6}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
            f'stroke="black"/>',
            f'<text x="{ml - 10}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{label:.6g}</text>',
        ]
    parts += [
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 12}" '
        f'font-size="13" text-anchor="middle">iteration</text>',
        f'<polyline fill="none" stroke="#205494" stroke-width="1.5" '
        f'points="{pts(xs)}"/>',
        f'<polyline fill="none" stroke="#b0413e" stroke-width="1.5" '
        f'points="{pts(ys)}"/>',
        f'<text x="{width - mr - 120}" y="{mt - 16}" font-size="13" '
        f'fill="#205494">x (larvae)</text>',
        f'<text x="{width - mr - 50}" y="{mt - 16}" font-size="13" '
        f'fill="#b0413e">y (adults)</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def cmd_simulate(args) -> int:
    from . import dynamics

    p = _params_from_args(args)
    if args.iters < 1:
        _usage_error(f"--iters must be at least 1, got {args.iters}")
    tol = _tol(args)
    if not args.divergence_threshold > 0:
        _usage_error(f"--divergence-threshold must be > 0, got {args.divergence_threshold}")
    result = dynamics.orbit(p, (args.x0, args.y0), max_iter=args.iters, tol=tol,
                            divergence_threshold=args.divergence_threshold)
    samples = result.samples
    final_x, final_y = samples.x[-1], samples.y[-1]
    payload = {
        "verdict": result.verdict.value,
        "iterations_used": result.iterations_used,
        "left_positive_quadrant": result.left_positive_quadrant,
        "final": {"iteration": samples.n[-1], "x": final_x, "y": final_y},
        "samples": [{"iteration": n, "x": x, "y": y}
                    for n, x, y in zip(samples.n, samples.x, samples.y)],
    }
    human = [
        f"verdict: {result.verdict.value} after {result.iterations_used} iterations",
        f"final state: ({fmt(final_x)}, {fmt(final_y)})",
    ]
    if result.limit is not None:
        payload["limit"] = {"x": result.limit.x, "y": result.limit.y}
        human.append(f"limit: ({fmt(result.limit.x)}, {fmt(result.limit.y)})")
    if result.verdict is dynamics.OrbitVerdict.DIVERGED_X:
        payload["y_limit_estimate"] = final_y
        human.append(f"y limit estimate: {fmt(final_y)}")
    if result.period is not None:
        payload["period"] = result.period
        human.append(f"period: {result.period}")
    if result.left_positive_quadrant:
        human.append("note: orbit left the positive quadrant")

    if args.csv:
        _write(args.csv, "iter,x,y\n" + "".join(
            f"{n},{fmt(x)},{fmt(y)}\n" for n, x, y in zip(samples.n, samples.x, samples.y)))
        human.append(f"wrote CSV: {args.csv}")
    if args.svg:
        _write(args.svg, render_trajectory_svg(samples))
        human.append(f"wrote SVG: {args.svg}")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


def cmd_simplex(args) -> int:
    from . import simplex

    if args.csv is not None and args.orbit <= 0:
        _usage_error("--csv needs a positive --orbit")
    if args.orbit < 0:
        _usage_error(f"--orbit must be >= 0, got {args.orbit}")
    if args.orbit > MAX_VALUES:
        _usage_error(f"--orbit must be at most {MAX_VALUES}, got {args.orbit}")
    if args.orbit > 0 and args.x0 is None:
        _usage_error("--orbit needs --x0")
    sp = simplex.SimplexParams(args.alpha, args.beta)
    report = simplex.analyze(sp)
    inv = report.invariance
    invariant = inv.region is not params.SimplexClass.NONE
    shape = _SHAPE_BY_CLASS.get(report.shape_class.value, "none")
    roots = report.period2.roots
    payload: dict = {
        "alpha": sp.alpha,
        "beta": sp.beta,
        "invariant": invariant,
        "invariance_region": inv.region.value,
        "x_star": report.x_star,
        "u_prime_at_star": report.u_prime_at_star,
        "stability": report.stability.value,
        "shape_class": report.shape_class.value,
        "monotonic_shape": shape,
        "period2": {
            "kind": report.period2.kind.value,
            "roots": roots,
            "containment_holds": report.period2.containment_holds,
        },
    }
    human = [
        f"invariant: {invariant} (region {inv.region.value})",
        f"x*: {fmt(report.x_star)}  U'(x*): {fmt(report.u_prime_at_star)}"
        f"  [{report.stability.value}]",
        f"shape class: {report.shape_class.value} ({shape})",
        f"period-2 set: {report.period2.kind.value}"
        + ("  roots: " + ", ".join(fmt(r) for r in roots) if roots else ""),
    ]
    if inv.witness is not None:
        payload["witness"] = {"x": inv.witness, "u_of_x": inv.witness_image}
        human.append(
            f"witness: U({fmt(inv.witness)}) = {fmt(inv.witness_image)}"
        )
    if report.x_min is not None:
        payload["x_min"] = report.x_min
        human.append(f"interior minimum of U at x = {fmt(report.x_min)}")
    if report.proof_roots is not None:
        payload["invariance_quadratic_roots"] = report.proof_roots
        human.append("invariance quadratic roots: "
                     + ", ".join(fmt(r) for r in report.proof_roots))

    if args.x0 is not None:
        limit = simplex.u_orbit_limit(sp, args.x0)
        lim_payload: dict = {"kind": limit.kind.value,
                             "iterations_used": limit.iterations_used}
        if limit.limit is not None:
            lim_payload["limit"] = limit.limit
            human.append(
                f"orbit from {fmt(args.x0)}: {limit.kind.value} at "
                f"{fmt(limit.limit)} ({limit.iterations_used} iterations)"
            )
        if limit.cycle is not None:
            lim_payload["cycle"] = limit.cycle
            human.append(
                f"orbit from {fmt(args.x0)}: 2-cycle "
                f"{{{fmt(limit.cycle[0])}, {fmt(limit.cycle[1])}}}"
            )
        payload["orbit"] = lim_payload

        if args.orbit:
            xs = [float(args.x0)]
            for _ in range(args.orbit):
                xs.append(float(simplex.u_map(sp, xs[-1])))
            if args.csv:
                _write(args.csv, "iter,x\n" + "".join(
                    f"{i},{fmt(v)}\n" for i, v in enumerate(xs)))
                human.append(f"wrote CSV: {args.csv}")
            else:
                lim_payload["iterates"] = xs

    if args.verify:
        xs_fp = report.x_star
        resid = abs(float(simplex.u_map(sp, xs_fp)) - xs_fp)
        fd = oracles.fd_derivative(lambda x: float(simplex.u_map(sp, x)), xs_fp)
        u_prime = report.u_prime_at_star
        scan = oracles.grid_period_scan(lambda x: simplex.u_map(sp, x), (0.0, 1.0), 2,
                                        grid=512)
        payload["verification"] = {
            "fixed_point_residual": resid,
            # relative above |U'| = 1, so the gap is scale-free at any rates
            "fd_derivative_gap": abs(fd - u_prime) / max(1.0, abs(u_prime)),
            "period2_scan_count": len(scan),
        }
        human.append(
            f"verification: |U(x*)-x*| = {fmt(resid)}, period-2 scan found "
            f"{len(scan)} points"
        )
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_axis(spec: str) -> tuple[str, float, float, int]:
    """(name, lo, step, count) of the axis spec name:lo:hi:step.

    count is capped at MAX_VALUES + 1, so a huge or overflowing span
    fails the grid size check in cmd_sweep without building any values.
    """
    try:
        name, lo, hi, step_ = spec.split(":")
        lo, hi, step_ = float(lo), float(hi), float(step_)
    except ValueError:
        _usage_error(f"bad axis spec {spec!r}, expected name:lo:hi:step")
    if name not in params.RATES:
        _usage_error(f"unknown axis parameter {name!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step_)):
        _usage_error(f"axis bounds and step must be finite in {spec!r}")
    if step_ <= 0 or hi < lo:
        _usage_error(f"empty axis range in {spec!r}")
    span = (hi - lo) / step_ + 1e-9
    return name, lo, step_, int(min(span, MAX_VALUES)) + 1


# what find_fixed_points returns on each of PRIMARY_REGIONS, as a count
_COUNT_BY_REGION = ("1", "2", "2", "inf")
# the monotonicity of U on [0, 1] in each shape class that `simplex` prints;
# "none" outside the invariance region
_SHAPE_BY_CLASS = {"C": "increasing", "D": "decreasing", "E*": "valley_left",
                   "F*": "valley_right"}


def _sweep_cells(quantity: str, grid: dict, shape: tuple[int, int]):
    """Floats in row-major order; for region and fixed_point_count, the
    label tuple and the shape array of each cell's index into it.

    grid maps each rate to a float or to an array broadcasting to shape.
    Every quantity is evaluated once over the whole grid; a cell that
    needs the scalar path (a rescaled x* or spectral radius) takes it
    inside the array kernel.
    """
    import numpy as np

    def flat(v) -> list:
        return np.broadcast_to(v, shape).ravel().tolist()

    if quantity == "x_star":
        from . import simplex

        return flat(simplex.fixed_point_u_array(grid["alpha"], grid["beta"]))
    alpha, beta, mu, d0, d1 = (grid[name] for name in params.RATES)
    if quantity in ("region", "fixed_point_count"):
        labels = params.PRIMARY_REGIONS if quantity == "region" else _COUNT_BY_REGION
        return labels, np.broadcast_to(params.primary_region_index(alpha, beta, mu, d0, d1),
                                       shape)
    if quantity == "r0":
        return flat(params.offspring_number_of(alpha, beta, mu, d0))
    if quantity == "spectral_radius_at_origin":
        from . import stability

        return flat(stability.spectral_radius_of(
            *stability.jacobian_entries(alpha, beta, mu, d0, d1, 0.0)))
    raise ValueError(f"unknown quantity {quantity!r}")


def cmd_sweep(args) -> int:
    import numpy as np

    if args.json and args.output == "-":
        _usage_error("--json needs --output PATH")
    name1, lo1, step1, n1 = _parse_axis(args.axis1)
    name2, lo2, step2, n2 = _parse_axis(args.axis2)
    if name1 == name2:
        _usage_error("the two axes must name distinct parameters")
    if n1 * n2 > MAX_VALUES:
        _usage_error(f"the grid {args.axis1} x {args.axis2} has more than "
                     f"{MAX_VALUES} cells")

    fixed = {name: getattr(args, name) for name in params.RATES}
    for name in (name1, name2):
        if fixed[name] is not None:
            _usage_error(f"--{name} is given, but {name} is an axis")
    x_star = args.quantity == "x_star"
    for name in ("alpha", "beta") if x_star else ("alpha", "beta", "mu"):
        if fixed[name] is None and name not in (name1, name2):
            _usage_error(f"--{name} is required (not an axis) for quantity "
                         f"{args.quantity!r}")
    for name in ("mu", "d0", "d1") if x_star else ():
        if fixed[name] is not None or name in (name1, name2):
            _usage_error(f"quantity 'x_star' depends on alpha and beta only, not {name}")
    for name in ("d0", "d1"):
        if fixed[name] is None:  # not `or`: --d0 -0.0 keeps its sign
            fixed[name] = 0.0
    vals1 = [lo1 + k * step1 for k in range(n1)]
    vals2 = [lo2 + k * step2 for k in range(n2)]

    shape = (n1, n2)
    grid = dict(fixed, **{name1: np.array(vals1)[:, None], name2: np.array(vals2)})
    # x* takes SimplexParams(alpha, beta), which embeds as the rates
    # (alpha, beta, beta, 0, 0).  The first cell outside the domain goes
    # through the scalar constructor, which raises the error reported.
    rates = ((grid["alpha"], grid["beta"], grid["beta"], 0.0, 0.0) if x_star
             else tuple(grid[name] for name in params.RATES))
    ok = np.broadcast_to(params.admissible(*rates), shape)
    if not ok.all():
        i, j = divmod(int(np.argmin(ok)), shape[1])
        bad = dict(fixed, **{name1: vals1[i], name2: vals2[j]})
        if x_star:
            from . import simplex

            simplex.SimplexParams(bad["alpha"], bad["beta"])
        else:
            params.validate(*(bad[name] for name in params.RATES))
    with np.errstate(all="ignore"):
        cells = _sweep_cells(args.quantity, grid, shape)

    # Each line is the row's value joined to a tail ",column value,cell\n".
    # A label cell picks one of the tails built per column and label; float
    # cells fill one template per row with one % ("%.12g" % v is fmt(v)).
    heads = map(fmt, vals1)
    labelled = isinstance(cells, tuple)
    if labelled:
        labels, index = cells
        tails = np.array([[f",{v},{label}\n" for label in labels] for v in map(fmt, vals2)],
                         dtype=object)
        rows = [head + head.join(row)
                for head, row in zip(heads, tails[np.arange(n2), index].tolist())]
    else:
        pieces = [f",{fmt(v)},%{NUMBER_FORMAT}\n" for v in vals2]
        rows = [(head + head.join(pieces)) % tuple(cells[i * n2:(i + 1) * n2])
                for i, head in enumerate(heads)]
    text = f"{name1},{name2},{args.quantity}\n" + "".join(rows)
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    _write(args.output, text)
    payload = {"axis1": name1, "axis2": name2, "quantity": args.quantity,
               "cells": n1 * n2, "output": args.output}
    if args.json:
        # the cells print as strings, as in the CSV
        strings = ([labels[k] for k in index.ravel().tolist()] if labelled
                   else [fmt(c) for c in cells])
        payload["rows"] = [[v1, v2, c] for (v1, v2), c
                           in zip(itertools.product(vals1, vals2), strings)]
    _emit(args, payload, [f"wrote {n1 * n2} cells: {args.output}"])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.draws < 1:
        _usage_error(f"--draws must be at least 1, got {args.draws}")
    if args.draws > MAX_VALUES:
        _usage_error(f"--draws must be at most {MAX_VALUES}, got {args.draws}")
    if args.seed < 0:
        _usage_error(f"--seed must be >= 0, got {args.seed}")
    import numpy as np

    from . import fixed_points, simplex, stability

    rng = np.random.default_rng(args.seed)
    n = args.draws
    results: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        results.append({"name": name, "pass": bool(ok), "detail": detail})

    worst = 0.0
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-4, 8)
        a = float(rng.normal()) or 1.0
        b = float(rng.normal()) * scale
        c = float(rng.normal())
        for r in fixed_points.quad_roots(a, b, c):
            num = abs(a * r * r + b * r + c)
            den = max(abs(a) * abs(r) ** 2, abs(b) * abs(r), abs(c), 1.0)
            worst = max(worst, num / den)
    check("quad_roots_residual", worst <= 1e-10,
          f"worst relative residual {fmt(worst)} over {n} draws")

    worst = 0.0
    for p in oracles.sample_region("omega", n, rng):
        z = (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        worst = max(worst, _fd_jacobian_error(p, z, stability.jacobian(p, z)))
    check("fd_jacobian_agreement", worst <= 1e-5,
          f"worst relative error {fmt(worst)} over {n} draws")

    worst = 0.0
    for p in oracles.sample_region("omega", n, rng):
        x = float(rng.uniform(0.0, 5.0))
        m = stability.jacobian(p, (x, rng.uniform(0.0, 5.0)))
        worst = max(worst, _lapack_eigenvalue_gap(m, stability.eigenvalues(m)))
    check("eigenvalue_cross_check", worst <= 1e-9,
          f"worst |difference| {fmt(worst)} over {n} draws")

    bad = 0
    for p in oracles.sample_region("omega", n, rng):
        lhs = params.basic_offspring_number(p) > 1.0
        rhs = p.beta > params.birth_threshold(p)
        bad += lhs != rhs
    check("r0_threshold_equivalence", bad == 0,
          f"{bad} disagreements over {n} draws")

    worst = 0.0
    for region in ("omega_star", "phi1", "phi2", "psi"):
        for p in oracles.sample_region(region, max(1, n // 4), rng):
            for rpt in fixed_points.find_fixed_points(p).points:
                scale = max(1.0, abs(rpt.location.x), abs(rpt.location.y))
                worst = max(worst, rpt.residual / scale)
    check("fixed_point_residuals", worst <= 1e-10,
          f"worst scaled residual {fmt(worst)}")

    worst = 0.0
    worst_scan = 0
    for alpha, beta in oracles.sample_invariance_pairs(max(1, n // 10), rng):
        sp = simplex.SimplexParams(alpha, beta)
        xs = simplex.fixed_point_u(sp)
        worst = max(worst, abs(float(simplex.u_map(sp, xs)) - xs))
        if (alpha - 2.0) ** 2 + (beta - 1.0) ** 2 > 1e-3:
            scan = oracles.grid_period_scan(lambda x: simplex.u_map(sp, x),
                                            (0.0, 1.0), 2, grid=256)
            worst_scan = max(worst_scan, len(scan))
    ok = worst <= 1e-12 and worst_scan == 0
    check("simplex_fixed_point_and_cycles", ok,
          f"worst |U(x*)-x*| {fmt(worst)}, stray 2-cycles {worst_scan}")

    all_ok = all(r["pass"] for r in results)
    human = [f"{'PASS' if r['pass'] else 'FAIL'} {r['name']}: {r['detail']}"
             for r in results]
    human.append("verification " + ("passed" if all_ok else "FAILED"))
    _emit(args, {"checks": results, "pass": all_ok}, human)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="emergence rate, > 0")
    sub.add_argument("--beta", type=float, required=True,
                     help="oviposition rate, > 0")
    sub.add_argument("--mu", type=float, required=True,
                     help="adult death rate, > 0")
    sub.add_argument("--d0", type=float, default=0.0,
                     help="linear larval death, >= 0 (default 0)")
    sub.add_argument("--d1", type=float, default=0.0,
                     help="density-dependent larval death, >= 0 (default 0)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number written with an
    exponent, such as -1e-3, as a value and not as an option name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern matches -1 and -0.5 but not -1e-3; its
        # subparsers are built from the same class
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every subcommand; given a command, only its subparser gets options."""
    parser = _Parser(
        prog="mospop",
        description="Analysis toolkit for a discrete-time two-stage "
        "mosquito population map.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # an unreached subparser keeps its name and help, so help reads the same,
    # but is never parsed, so it gets no options, not even -h
    unreached = argparse.Namespace(add_argument=lambda *args, **kwargs: None)

    def sub(name: str, summary: str, func) -> argparse.ArgumentParser:
        s = subs.add_parser(name, help=summary, add_help=command in (None, name))
        s.set_defaults(func=func)
        return s if command in (None, name) else unreached

    s = sub("classify", "region membership and r0", cmd_classify)
    _add_param_flags(s)
    s.add_argument("--eps", type=float, default=None,
                   help="also list boundaries within eps (report only)")
    s.add_argument("--json", action="store_true")

    s = sub("fixed-points", "enumerate fixed points", cmd_fixed_points)
    _add_param_flags(s)
    s.add_argument("--samples", type=int, default=None,
                   help="evenly spaced curve samples for the continuum case "
                   "(default grid: 0, 0.5, 1, 2, 10)")
    s.add_argument("--verify", action="store_true",
                   help="cross-check residuals with the oracle routines")
    s.add_argument("--json", action="store_true")

    s = sub("stability", "linearize and type fixed points", cmd_stability)
    _add_param_flags(s)
    s.add_argument("--at", type=float, nargs=2, metavar=("X", "Y"),
                   default=None, help="classify this state instead of all "
                   "fixed points")
    s.add_argument("--tol", type=float, default=None,
                   help="tolerance of the fixed-point backward-error gate "
                   "(default 1e-9)")
    s.add_argument("--verify", action="store_true",
                   help="cross-check with finite differences and LAPACK")
    s.add_argument("--json", action="store_true")

    s = sub("simulate", "iterate the map from a state", cmd_simulate)
    _add_param_flags(s)
    s.add_argument("--x0", type=float, required=True)
    s.add_argument("--y0", type=float, required=True)
    s.add_argument("--iters", type=int, default=1_000_000,
                   help="iteration budget (default 1e6)")
    s.add_argument("--tol", type=float, default=None,
                   help="convergence tolerance (default 1e-9)")
    s.add_argument("--divergence-threshold", type=float, default=1e9,
                   help="x beyond this is a divergence verdict (default 1e9)")
    s.add_argument("--csv", type=str, default=None,
                   help="write sampled iterates to this CSV file")
    s.add_argument("--svg", type=str, default=None,
                   help="write a trajectory plot to this SVG file")
    s.add_argument("--json", action="store_true")

    s = sub("simplex", "matched-rates case on the simplex", cmd_simplex)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--x0", type=float, default=None,
                   help="also report the U orbit limit from this start")
    s.add_argument("--orbit", type=int, default=0,
                   help="with --x0: record this many U iterates")
    s.add_argument("--csv", type=str, default=None,
                   help="write recorded U iterates to this CSV file")
    s.add_argument("--verify", action="store_true",
                   help="cross-check with the oracle routines")
    s.add_argument("--json", action="store_true")

    s = sub("sweep", "tabulate a quantity over a 2D grid", cmd_sweep)
    s.add_argument("--axis1", type=str, required=True,
                   help="first axis as name:lo:hi:step (rows)")
    s.add_argument("--axis2", type=str, required=True,
                   help="second axis as name:lo:hi:step (columns)")
    s.add_argument("--quantity", type=str, required=True,
                   choices=SWEEP_QUANTITIES)
    s.add_argument("--output", type=str, required=True,
                   help="CSV output path, or - for stdout")
    s.add_argument("--json", action="store_true",
                   help="print a JSON summary object instead of the "
                   "plain confirmation line")
    for name in ("alpha", "beta", "mu"):
        s.add_argument(f"--{name}", type=float, default=None,
                       help=f"fixed {name} when it is not an axis")
    for name in ("d0", "d1"):
        s.add_argument(f"--{name}", type=float, default=None,
                       help=f"fixed {name} when it is not an axis (default 0)")

    s = sub("verify", "run the oracle cross-check suite", cmd_verify)
    s.add_argument("--seed", type=int, default=20260821)
    s.add_argument("--draws", type=int, default=300)
    s.add_argument("--json", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argv[0] names the command unless it is an option such as -h
    args = build_parser(argv[0] if argv and argv[0][:1] != "-" else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # DomainError and every library-defined condition failure derive
        # from ValueError: all count as invalid input to the CLI.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
