"""The four benchmark workloads: inputs from a seed, the call that is timed,
and the check of each output.

Every workload is a fixed list of operations built from the seed (plus one
fixed panel in point_queries), so the same seed gives the same inputs.  The benchmark draws its own rate
vectors (mirroring the constructions of mospop.oracles.sample_region), so a
change to the package's samplers cannot change what is measured.  Calls go
through module attributes (``dynamics.orbit``), never through names bound
at import time, so the wrappers that tracing installs are seen.

Each class offers:
    ops               the operations of one pass (the untimed warm-up pass
                      runs them all unless the class names warmup_ops)
    execute(args)     the timed call; returns (output, child CPU seconds or
                      None when the work ran in this process)
    check(args, out)  untimed check of one output by routes that do not
                      use the package's closed forms; returns problems found
    size              the input size printed with every run
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import mospop.cli as cli
from mospop import dynamics, fixed_points, params, simplex, stability

import oracle

VERDICTS = ("converged", "diverged_x", "periodic", "undecided")


@dataclass(frozen=True)
class Op:
    args: tuple
    items: int = 1


class NonZeroExit(Exception):
    """A command exited with a non-zero code: a failed operation."""


# ---------------------------------------------------------------------------
# rate vectors drawn from the named parameter sets
# ---------------------------------------------------------------------------


def _zero_or(rng, lo: float, hi: float, p_zero: float) -> float:
    return 0.0 if rng.random() < p_zero else float(rng.uniform(lo, hi))


def draw_rates(region: str, rng, margin: float = 0.0
               ) -> tuple[float, float, float, float, float]:
    """One (alpha, beta, mu, d0, d1) from a named set, by construction.

    margin keeps beta that share of the birth threshold away from it in
    theta_star_theta1 and phi_star; near the threshold an eigenvalue nears 1
    and orbits converge arbitrarily slowly.
    """
    u = rng.uniform
    if region == "omega":
        alpha, mu = float(u(0.05, 6.0)), float(u(0.05, 1.5))
        d0, d1 = _zero_or(rng, 0.0, 1.0, 0.3), _zero_or(rng, 0.0, 1.0, 0.5)
        beta = mu if rng.random() < 0.1 else float(u(0.05, 4.0))
        return alpha, beta, mu, d0, d1
    if region == "omega_star":
        alpha, mu = float(u(0.2, 6.0)), float(u(0.1, 1.0))
        d0, d1 = _zero_or(rng, 0.05, 1.0, 0.25), _zero_or(rng, 0.05, 1.0, 0.5)
        thr = mu * (1.0 + d0 / alpha)
        w = rng.random()
        if w < 0.05 and d0 > 0.0:
            beta = thr
        elif w < 0.15 and d0 == 0.0 and d1 == 0.0:
            beta = float(mu * u(1.05, 3.0))
        else:
            beta = float(thr * u(0.05, 0.999))
        return alpha, beta, mu, d0, d1
    if region in ("phi1", "phi2"):
        alpha, mu = float(u(0.2, 6.0)), float(u(0.1, 1.0))
        if region == "phi1":
            d0, d1 = float(u(0.1, 1.0)), 0.0
        else:
            d0, d1 = _zero_or(rng, 0.05, 1.0, 0.3), float(u(0.05, 1.0))
        beta = float(mu * (1.0 + d0 / alpha) * (1.0 + u(1e-3, 1.0)))
        return alpha, beta, mu, d0, d1
    if region == "psi":
        alpha, mu = float(u(0.05, 6.0)), float(u(0.1, 1.5))
        return alpha, mu, mu, 0.0, 0.0
    if region == "theta_star_theta1":
        d0 = _zero_or(rng, 0.05, 0.9, 0.3)
        alpha, mu = float(u(0.05, 1.0) * (1.0 - d0)), float(u(0.05, 1.0))
        beta = float(mu * (1.0 + d0 / alpha) * u(0.05, 1.0 - max(1e-6, margin)))
        return alpha, beta, mu, d0, 0.0
    if region == "phi_star":
        d0 = float(u(0.05, 0.95))
        alpha, mu = float(u(0.05, 1.0) * (1.0 - d0)), float(u(0.05, 1.0))
        thr = mu * (1.0 + d0 / alpha)
        lift = max(1e-6 * max(1.0, thr), margin * thr)
        return alpha, float(thr + lift + u(0.0, 3.0)), mu, d0, 0.0
    if region == "psi_star":
        alpha, mu = float(u(0.05, 1.0 - 1e-6)), float(u(0.05, 1.0))
        return alpha, mu, mu, 0.0, 0.0
    raise ValueError(f"unknown region {region!r}")


NAMED_SETS = ("omega", "omega_star", "phi1", "phi2", "psi",
              "theta_star_theta1", "phi_star", "psi_star")


def draw_invariance_pair(rng) -> tuple[float, float]:
    """(alpha, beta) inside the simplex invariance region."""
    beta = float(rng.uniform(1e-3, 1.0))
    bound = 1.0 + 2.0 * math.sqrt(beta * (1.0 - beta)) if beta < 0.5 else 2.0
    return float(bound * rng.uniform(1e-3, 1.0)), beta


def draw_log_uniform(rng) -> tuple[float, float, float, float, float]:
    """Every rate log-uniform on 1e-12..1e12; d0 and d1 are 0 30% of the time."""
    alpha, beta, mu, d0, d1 = (float(10.0 ** rng.uniform(-12.0, 12.0))
                               for _ in range(5))
    if rng.random() < 0.3:
        d0 = 0.0
    if rng.random() < 0.3:
        d1 = 0.0
    return alpha, beta, mu, d0, d1


def _flags(rates) -> list[str]:
    out = []
    for name, v in zip(("alpha", "beta", "mu", "d0", "d1"), rates):
        out += [f"--{name}", repr(v)]
    return out


def run_cli_inprocess(argv: list[str]) -> str:
    """stdout of mospop.cli.main(argv); NonZeroExit unless it returns 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise NonZeroExit(f"exit code {code}: {err.getvalue().strip()[:120]}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# grid_sweep
# ---------------------------------------------------------------------------


def _axis(rng, name: str, lo: float, hi: float, n: int):
    """An axis spec with exactly n values; lo and step jittered by the seed."""
    lo *= float(rng.uniform(0.9, 1.1))
    step = (hi - lo) / (n - 1) * float(rng.uniform(0.95, 1.05))
    return name, lo, step, f"{name}:{lo!r}:{lo + (n - 0.5) * step!r}:{step!r}"


class GridSweep:
    """cli.main(["sweep", ...]) over seeded 2-D grids, one warm process."""

    name = "grid_sweep"
    unit = "cells"
    CHECKED_CELLS = 200

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        n = self.side = 6 if tiny else 150
        u = rng.uniform
        beta_axis = _axis(rng, "beta", 0.1, 1.5, n)
        # mu on the same values as beta: the diagonal lies on the psi line
        # beta = mu, where the fixed-point count is inf
        mu_axis = ("mu",) + beta_axis[1:3] + (beta_axis[3].replace("beta:", "mu:", 1),)
        grids = [
            # (quantity, axis1, axis2, fixed rates)
            # narrow fixed rates keep the share of cells with a positive
            # fixed point, and so the cost per cell, alike across seeds
            ("fixed_point_count", _axis(rng, "alpha", 0.2, 6.0, n),
             _axis(rng, "beta", 0.1, 4.0, n),
             {"mu": u(0.45, 0.55), "d0": u(0.25, 0.35), "d1": 0.0}),
            ("fixed_point_count", _axis(rng, "alpha", 0.2, 6.0, n),
             _axis(rng, "beta", 0.1, 4.0, n),
             {"mu": u(0.45, 0.55), "d0": u(0.1, 0.2), "d1": u(0.4, 0.6)}),
            ("fixed_point_count", beta_axis, mu_axis,
             {"alpha": u(0.5, 3.0), "d0": 0.0, "d1": 0.0}),
            ("spectral_radius_at_origin", _axis(rng, "alpha", 0.2, 6.0, n),
             _axis(rng, "beta", 0.1, 4.0, n),
             {"mu": u(0.1, 1.5), "d0": u(0.0, 0.5), "d1": u(0.0, 1.0)}),
            ("region", _axis(rng, "beta", 0.1, 4.0, n),
             _axis(rng, "d1", 0.0, 1.0, n),
             {"alpha": u(0.5, 3.0), "mu": u(0.3, 0.8), "d0": u(0.1, 0.5)}),
            ("x_star", _axis(rng, "alpha", 0.05, 2.0, n),
             _axis(rng, "beta", 0.05, 1.0, n), {}),
        ]
        self.ops = []
        for k, (quantity, ax1, ax2, fixed) in enumerate(grids):
            fixed = {name: float(v) for name, v in fixed.items()}
            argv = ["sweep", "--axis1", ax1[3], "--axis2", ax2[3],
                    "--quantity", quantity, "--output", "-"]
            for name, v in fixed.items():
                argv += [f"--{name}", repr(v)]
            self.ops.append(Op((argv, quantity, ax1[:3], ax2[:3], fixed,
                                [seed, 1, k]), items=n * n))
        self.size = (f"grids={len(self.ops)} cells_per_grid={n * n} "
                     f"cells_per_pass={n * n * len(self.ops)}")

    def execute(self, args):
        return run_cli_inprocess(args[0]), None

    def check(self, args, out) -> list[str]:
        _, quantity, (n1, lo1, st1), (n2, lo2, st2), fixed, cseed = args
        lines = out.split("\n")
        side = self.side
        if lines[0] != f"{n1},{n2},{quantity}" or len(lines) != side * side + 2:
            return ["CSV header or row count is wrong"]
        problems = []
        rng = np.random.default_rng(cseed)
        for idx in rng.choice(side * side, min(self.CHECKED_CELLS, side * side),
                              replace=False):
            i, j = divmod(int(idx), side)
            values = dict(fixed)
            values[n1] = lo1 + i * st1
            values[n2] = lo2 + j * st2
            got = lines[1 + idx].split(",")[2]
            if not _cell_agrees(quantity, values, got):
                problems.append(f"{quantity} at {values}: got {got}")
        return problems


def _cell_agrees(quantity: str, v: dict, got: str) -> bool:
    if quantity == "x_star":
        want = oracle.simplex_fixed_point(v["alpha"], v["beta"])
        return math.isclose(float(got), want, rel_tol=1e-9)
    rates = (v["alpha"], v["beta"], v["mu"], v["d0"], v["d1"])
    if quantity == "fixed_point_count":
        want = oracle.fixed_point_count(rates)
        return got == ("inf" if want == math.inf else str(want))
    if quantity == "spectral_radius_at_origin":
        return math.isclose(float(got), oracle.spectral_radius_at_origin(rates),
                            rel_tol=1e-9)
    return got == oracle.region(rates)


# ---------------------------------------------------------------------------
# orbit_ensemble
# ---------------------------------------------------------------------------


class OrbitEnsemble:
    """mospop.orbit over a seeded ensemble that yields all four verdicts."""

    name = "orbit_ensemble"
    unit = "orbits"
    TOL = 1e-9
    THRESHOLD = 1e9

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        u = rng.uniform
        scale = 0.1 if tiny else 1.0
        ops = []

        def add(count, kind, rates, z0, max_iter=1_000_000):
            for _ in range(max(1, round(count * scale))):
                r, z = rates(), z0()
                ops.append(Op((kind, r, (float(z[0]), float(z[1])), max_iter)))

        def divergent(lo, hi):
            # d0 = d1 = 0 and beta > mu: once y settles at alpha/mu, x grows
            # by alpha*(beta - mu)/mu per step, so about 1e9/increment steps
            # reach the divergence threshold.
            def rates():
                alpha, mu = float(u(1.0, 10.0)), float(u(0.2, 1.0))
                return alpha, mu * (1.0 + float(u(lo, hi)) / alpha), mu, 0.0, 0.0
            return rates

        def slow_decay():
            # both eigenvalues at the origin within 1e-2 of 1: 50 steps
            # cannot converge to tol
            mu = float(u(0.002, 0.01))
            return float(u(0.002, 0.01)), mu * float(u(0.3, 0.9)), mu, 0.0, 0.0

        def domain_exit():
            # x1 <= x0 - d1*x0**2 + beta*y0 < -1 for these ranges
            return (float(u(0.1, 2.0)), float(u(0.1, 4.0)), float(u(0.1, 1.0)),
                    float(u(0.0, 0.5)), float(u(0.5, 1.0)))

        def on_simplex():
            x = float(u(0.05, 0.35))
            return x, 1.0 - x

        def box():
            return u(0.0, 5.0), u(0.0, 5.0)

        slow = 1e9 / (9e4 if tiny else 9e5)
        ops.append(Op(("slow_diverged_x", divergent(0.99 * slow, 1.01 * slow)(),
                       (1.0, 1.0), 1_000_000)))
        add(40, "diverged_x", divergent(1e6, 2e6), box)
        for region in ("theta_star_theta1", "phi_star", "psi_star"):
            add(120, "converged", lambda region=region: draw_rates(region, rng, 0.2),
                box)
        # alpha = 2, beta = mu = 1 makes the map an involution on x + y = 1,
        # so every start there away from x* = sqrt(2) - 1 is 2-periodic
        add(40, "periodic", lambda: (2.0, 1.0, 1.0, 0.0, 0.0), on_simplex)
        add(20, "undecided", slow_decay, lambda: (u(1.0, 5.0), u(1.0, 5.0)),
            max_iter=50)
        add(20, "undecided", domain_exit, lambda: (u(3.0, 5.0), u(0.0, 0.1)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.size = (f"orbits_per_pass={len(self.ops)} "
                     f"slow_divergence_target_steps={1e9 / slow:.0f}")

    def execute(self, args):
        _, rates, z0, max_iter = args
        return dynamics.orbit(params.Params(*rates), z0, max_iter=max_iter), None

    def check(self, args, res) -> list[str]:
        _, rates, _, max_iter = args
        n, final = res.samples[-1]
        v = res.verdict.value
        tol = self.TOL
        if n != res.iterations_used:
            return [f"last sample {n} != iterations_used {res.iterations_used}"]
        if v == "converged":
            lim = res.limit
            ok = (oracle.backward_error(rates, lim.x, lim.y) <= 1e-9
                  and max(abs(final.x - lim.x), abs(final.y - lim.y)) <= 10 * tol)
        elif v == "diverged_x":
            ok = final.x > self.THRESHOLD
        elif v == "periodic":
            ok = oracle.returns_after(rates, final.x, final.y, res.period, 10 * tol)
        else:
            ok = (res.iterations_used == max_iter or final.x <= -1.0
                  or not (math.isfinite(final.x) and math.isfinite(final.y)))
        return [] if ok else [f"{v} orbit from {args[2]} fails its check"]

    @staticmethod
    def verdicts(outputs) -> dict[str, int]:
        counts = dict.fromkeys(VERDICTS, 0)
        for res in outputs:
            counts[res.verdict.value] += 1
        return counts


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------


class PointQueries:
    """One rate vector at a time through the full scalar report."""

    name = "point_queries"
    unit = "queries"
    PER_SET = 600
    PAIRS = 1200
    LOG_UNIFORM = 2000

    def __init__(self, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 3])
        k = 100 if tiny else 1
        ops = []
        for region in NAMED_SETS:
            ops += [Op((region, draw_rates(region, rng), None))
                    for _ in range(self.PER_SET // k)]
        for _ in range(self.PAIRS // k):
            alpha, beta = draw_invariance_pair(rng)
            ops.append(Op(("matched_pair", (alpha, beta, beta, 0.0, 0.0),
                           (alpha, beta, float(rng.uniform(0.0, 1.0))))))
        # the log-uniform panel comes from a fixed stream, not from the seed,
        # so the number of scale failures is a property of the code alone
        # and runs at every seed report the same failed count
        panel = np.random.default_rng([0, 3])
        ops += [Op(("log_uniform", draw_log_uniform(panel), None))
                for _ in range(self.LOG_UNIFORM // k)]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.size = (f"queries_per_pass={len(self.ops)} "
                     f"named_sets={len(NAMED_SETS)}x{self.PER_SET // k} "
                     f"matched_pairs={self.PAIRS // k} "
                     f"log_uniform={self.LOG_UNIFORM // k}")

    def execute(self, args):
        _, rates, pair = args
        p = params.Params(*rates)
        label = params.classify(p)
        fps = fixed_points.find_fixed_points(p)
        reports = [stability.classify_fixed_point(p, r.location) for r in fps.points]
        table = stability.declared_type_table(p) if label.in_theta else ()
        x_star = limit = None
        if pair is not None:
            sp = simplex.SimplexParams(pair[0], pair[1])
            x_star = simplex.analyze(sp).x_star
            limit = simplex.u_orbit_limit(sp, pair[2]).limit
        return (tuple((r.location.x, r.location.y) for r in fps.points),
                tuple(r.eigenvalues for r in reports),
                tuple((d.declared, d.numeric) for d in table),
                x_star, limit), None

    def check(self, args, out) -> list[str]:
        _, rates, pair = args
        points, eigs, _, x_star, limit = out
        problems = []
        for (x, y), lam in zip(points, eigs):
            err = oracle.backward_error(rates, x, y)
            if not err <= 1e-9:
                problems.append(f"fixed point ({x}, {y}) backward error {err:.3g}")
            gap = oracle.eigen_gap(lam, oracle.jacobian(rates, x))
            if not gap <= 1e-7:
                problems.append(f"eigenvalues at ({x}, {y}) off numpy by {gap:.3g}")
        if pair is not None:
            want = oracle.simplex_fixed_point(pair[0], pair[1])
            if not (math.isclose(x_star, want, rel_tol=1e-9)
                    and (limit is None or math.isclose(limit, want, rel_tol=1e-9))):
                problems.append(f"simplex x* {x_star} / limit {limit} != {want}")
        return problems


# ---------------------------------------------------------------------------
# cold_cli
# ---------------------------------------------------------------------------


class ColdCli:
    """A fresh `python -m mospop` process per invocation.

    With inprocess set (the traced run) the same argument lists are replayed
    through cli.main in this process instead, which is what lets spans be
    recorded inside the command.
    """

    name = "cold_cli"
    unit = "invocations"
    ROUNDS = 3   # of the ten invocation kinds: 30 distinct invocations

    def __init__(self, seed: int, tiny: bool, inprocess: bool, env: dict, cwd: str):
        rng = np.random.default_rng([seed, 4])
        self.env, self.cwd = env, cwd
        self.inprocess = inprocess
        self.max_child_rss_kb = 0

        def pair_args():
            alpha, beta = draw_invariance_pair(rng)
            return ["--alpha", repr(alpha), "--beta", repr(beta),
                    "--x0", repr(float(rng.uniform(0.0, 1.0)))]

        def sim(region, iters):
            return (_flags(draw_rates(region, rng))
                    + ["--x0", repr(float(rng.uniform(0.0, 5.0))),
                       "--y0", repr(float(rng.uniform(0.0, 5.0))),
                       "--iters", str(iters)])

        argvs = []
        for _ in range(1 if tiny else self.ROUNDS):
            argvs += [
                ["classify"] + _flags(draw_rates("omega", rng)),
                ["classify", "--json", "--eps", "0.05"] + _flags(draw_rates("phi2", rng)),
                ["fixed-points"] + _flags(draw_rates("phi1", rng)),
                ["fixed-points", "--json", "--verify"] + _flags(draw_rates("psi", rng)),
                ["stability"] + _flags(draw_rates("phi_star", rng)),
                ["stability", "--json", "--verify"] + _flags(draw_rates("phi2", rng)),
                ["simplex"] + pair_args(),
                ["simplex", "--json", "--verify"] + pair_args(),
                ["simulate"] + sim("phi_star", 2000),
                ["simulate", "--json"] + sim("psi_star", 500),
            ]
        self.ops = [Op((argv,)) for argv in argvs]
        self.size = (f"invocations_per_pass={len(self.ops)} subcommands="
                     + ",".join(sorted({a[0] for a in argvs})))

    @property
    def warmup_ops(self):
        # one process start fills the file cache; more would only burn time
        return self.ops if self.inprocess else self.ops[:1]

    def execute(self, args):
        argv = args[0]
        if self.inprocess:
            return run_cli_inprocess(argv), None
        proc = subprocess.Popen([sys.executable, "-m", "mospop"] + argv,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env, cwd=self.cwd)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise NonZeroExit(f"{' '.join(argv[:3])}: exit code {proc.returncode}")
        return out.decode("ascii", "replace"), usage.ru_utime + usage.ru_stime

    def check(self, args, text) -> list[str]:
        if "--json" in args[0]:
            try:
                json.loads(text)
            except ValueError as exc:
                return [f"{' '.join(args[0][:3])}: bad JSON ({exc})"]
        elif not text.strip():
            return [f"{' '.join(args[0][:3])}: empty output"]
        return []


def make(name: str, seed: int, tiny: bool, inprocess: bool, env: dict, cwd: str):
    if name == "cold_cli":
        return ColdCli(seed, tiny, inprocess, env, cwd)
    return {"grid_sweep": GridSweep, "orbit_ensemble": OrbitEnsemble,
            "point_queries": PointQueries}[name](seed, tiny)


def probe_ops(env: dict, cwd: str) -> list:
    """A small fixed set of calls that reaches every traced layer.

    A traced run takes a layer's per-call cost from this probe only when its
    own workload never calls that layer, so the number is still measured.
    """
    cold = ColdCli(0, True, True, env, cwd)
    sweep = GridSweep(0, True)
    return [(cold, op) for op in cold.ops] + [(sweep, sweep.ops[0])]
