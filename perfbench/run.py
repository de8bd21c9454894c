"""mospop benchmark: one workload at one seed, timed from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 is a separate run that
records spans around the calls into each layer and prints the per-layer
metrics and the tracing overhead.  Lines before the last describe the run;
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits with code 2, printing no result, when the checkout has no mospop
sources under src/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_sweep", "orbit_ensemble", "point_queries", "cold_cli")
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_BASE = 10**9  # operation ids of the fallback probe start here
SETUP_CODE = "import mospop, mospop.cli; print('ready', flush=True)"


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would fall at or
    below the median (fewer than 21 samples)."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, n
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


class Run:
    """Closed-loop passes over a workload's operations, with one caller.

    attempted and failed count distinct operations of the workload, not
    repeats: an operation fails when any of its passes fails.  Both are then
    fixed by the inputs and the code, whatever the number of passes the
    machine's speed allows in the run's time.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, tuple[object, list[str]]] = {}
        self.seen: set[int] = set()
        self.failing: set[int] = set()
        self.mismatched: set[int] = set()
        # op index -> (items, [wall seconds], [cpu seconds]) of timed repeats
        self.timings: dict[int, tuple[int, list[float], list[float]]] = {}
        self.passes: list[tuple[int, float]] = []  # (items ok, wall s) per timed pass
        self.errors: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.n_passes = 0

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def _fail(self, i: int, kind: str, example: str) -> None:
        if i in self.failing:
            return
        self.failing.add(i)
        self.errors[kind] += 1
        self.examples.setdefault(kind, example)

    def _problems(self, i: int, args, out) -> list[str]:
        if i in self.first:
            first_out, first_problems = self.first[i]
            return first_problems if out == first_out else [
                "output differs from the first pass over the same input"]
        try:
            problems = self.wl.check(args, out)
        except Exception as exc:  # a check that cannot run counts as failed
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.first[i] = (out, problems)
        return problems

    def one_pass(self, tracer=None, timed: bool = True, ops=None) -> None:
        """Run every operation (or those of `ops`, a prefix) once.  An
        untimed (warm-up) pass is checked and counted in attempted/failed
        but adds nothing to the timings."""
        items_ok = 0
        base = self.n_passes * len(self.wl.ops)
        self.n_passes += 1
        t_pass = perf_counter()
        for i, op in enumerate(self.wl.ops if ops is None else ops):
            if tracer is not None:
                tracer.op_id = base + i
            c0 = process_time()
            t0 = perf_counter()
            try:
                out, child_cpu = self.wl.execute(op.args)
                err = None
            except Exception as exc:  # failed operations are counted, not fatal
                err, child_cpu = exc, None
            dt = perf_counter() - t0
            cpu = process_time() - c0
            self.seen.add(i)
            if err is not None:
                self._fail(i, f"raised {type(err).__name__}", str(err)[:160])
                continue
            problems = self._problems(i, op.args, out)
            if problems:
                self.mismatched.add(i)
                self._fail(i, "output failed its check", problems[0][:160])
                continue
            if timed:
                items_ok += op.items
                _, walls, cpus = self.timings.setdefault(i, (op.items, [], []))
                walls.append(dt)
                cpus.append(cpu if child_cpu is None else child_cpu)
        if timed:
            self.passes.append((items_ok, perf_counter() - t_pass))

    def per_op(self) -> list[tuple[int, float, float]]:
        """(items, wall s, cpu s) of each operation that succeeded, each the
        median of its timed repeats, so that statistics range over distinct
        inputs rather than over repeats of the few slowest ones."""
        return [(items, statistics.median(walls), statistics.median(cpus))
                for items, walls, cpus in self.timings.values()]

    def until(self, seconds: float, min_passes: int, tracer=None) -> None:
        start = perf_counter()
        while len(self.passes) < min_passes or perf_counter() - start < seconds:
            if tracer is not None:
                tracer.begin_pass()
            self.one_pass(tracer)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def time_setup(env: dict) -> float:
    """Seconds for a fresh interpreter to import mospop and mospop.cli."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("a fresh interpreter could not import mospop.cli")
    return elapsed


def import_times(env: dict) -> dict[str, float]:
    """import.* metrics: interpreter start, numpy, and `import mospop.cli`."""
    bare, numpy_ms, cli_ms = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        bare.append((perf_counter() - t0) * 1e3)
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mospop.cli; import numpy"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            cumulative_ms = int(parts[1]) / 1e3
            if name.strip() == "numpy":
                found.setdefault("numpy", cumulative_ms)
            if name == " mospop.cli":  # top level: the whole import statement
                found.setdefault("cli", cumulative_ms)
        numpy_ms.append(found["numpy"])
        cli_ms.append(found["cli"])
    return {"import.bare_python_ms": statistics.median(bare),
            "import.numpy_ms": statistics.median(numpy_ms),
            "import.mospop_cli_ms": statistics.median(cli_ms)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(wl, seconds: float, setup: list[float]):
    run = Run(wl)
    run.one_pass(timed=False, ops=getattr(wl, "warmup_ops", None))
    # at least three repeats of every operation, so that the median of its
    # repeats drops a single stall of the machine
    run.until(seconds, min_passes=3)
    if wl.name == "cold_cli":
        rss_kb = wl.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = run.per_op()
    items = sum(n for n, _, _ in ops)
    latency = [w / n for n, w, _ in ops]
    tail_v, tail_p, n = tail(latency)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_ratio": (1.0 - run.failed / run.attempted, "ratio"),
        "items_per_s": (items / sum(w for _, w, _ in ops), "1/s"),
        "p50_us": (statistics.median(latency) * 1e6, "us"),
        "tail_us": (tail_v * 1e6, "us"),
        "cpu_us": (sum(c for _, _, c in ops) / items * 1e6, "us"),
    }
    notes = [f"passes={len(run.passes)} {wl.unit}_timed="
             f"{sum(i for i, _ in run.passes)}",
             f"setup samples: {' '.join(f'{s:.4f}' for s in setup)}",
             f"tail_us is p{tail_p:.2f} of n={n} samples ({10 if n >= 21 else 0} beyond)"]
    return run, metrics, notes


def layer_metrics(wl, seconds: float, env: dict):
    from tracing import TRACED, Tracer
    import workloads

    ref = Run(wl)
    ref.one_pass(timed=False, ops=getattr(wl, "warmup_ops", None))
    ref.one_pass()                       # untraced reference for the overhead
    tracer = Tracer()
    tracer.install()
    try:
        run = Run(wl)
        run.until(seconds, min_passes=2, tracer=tracer)
        probe = workloads.probe_ops(env, str(ROOT))
        tracer.begin_pass()
        for k, (owner, op) in enumerate(probe):
            tracer.op_id = PROBE_BASE + k
            try:
                owner.execute(op.args)
            except Exception:  # the probe only supplies timings
                pass
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(str(out_dir / f"spans-{wl.name}.npz"))

    counts, probe_counts = tracer.passes[:-1], tracer.passes[-1]
    notes, problems, from_probe = [], [], []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between passes over the same inputs")
    per_pass = counts[0]
    n_pass = len(counts)
    n_replay = len(probe) - 1            # the probe's last operation is a sweep
    own = tracer.self_times(range(0, PROBE_BASE))
    replay = tracer.self_times(range(PROBE_BASE, PROBE_BASE + n_replay))
    sweep = tracer.self_times(range(PROBE_BASE + n_replay, PROBE_BASE + len(probe)))
    probe_all = tracer.self_times(range(PROBE_BASE, PROBE_BASE + len(probe)))

    def rate(metric, own_pair, probe_pair, scale):
        """Self seconds per unit, scaled; from the probe's (units, seconds)
        when the workload's own units are zero."""
        units, secs = own_pair
        if units == 0:
            from_probe.append(metric)
            units, secs = probe_pair
        return secs / units * scale if units else 0.0

    m = {}
    for label, suffix, scale in (
            ("params.classify", "_us", 1e6),
            ("fixed_points.find_fixed_points", "_us", 1e6),
            ("stability.jacobian", "_us", 1e6),
            ("stability.eigenvalues", "_us", 1e6),
            ("stability.classify_fixed_point", "_us", 1e6),
            ("stability.declared_type_table", "_us", 1e6),
            ("simplex.analyze", "_us", 1e6),
            ("simplex.u_orbit_limit", "_us", 1e6),
            ("simplex.fixed_point_u", "_us", 1e6),
            ("oracles.grid_period_scan", "_ms", 1e3),
            ("oracles.fd_jacobian", "_us", 1e6)):
        m[label + suffix] = (rate(label + suffix, own[label], probe_all[label], scale),
                             suffix[1:])

    steps = sum(c["dynamics.steps"] for c in counts)
    m["dynamics.orbit_ns_per_step"] = (rate(
        "dynamics.orbit_ns_per_step", (steps, own["dynamics.orbit"][1]),
        (probe_counts["dynamics.steps"], probe_all["dynamics.orbit"][1]), 1e9), "ns")
    cells = sum(op.items for op in wl.ops) if wl.name == "grid_sweep" else 0
    m["cli.self_us_per_cell"] = (rate(
        "cli.self_us_per_cell", (cells * n_pass, own["cli.main"][1]),
        (probe[-1][1].items, sweep["cli.main"][1]), 1e6), "us")
    m["cli.render_us"] = (rate(
        "cli.render_us", own["cli.main"] if wl.name == "cold_cli" else (0, 0.0),
        replay["cli.main"], 1e6), "us")
    orbits = per_pass["dynamics.orbit_calls"]
    source = per_pass if orbits else probe_counts
    if not orbits:
        from_probe.append("dynamics.decided_ratio")
    m["dynamics.decided_ratio"] = (
        1.0 - source["dynamics.verdict_undecided"] / max(1, source["dynamics.orbit_calls"]),
        "ratio")

    for mod, fn in TRACED:
        m[f"{mod}.{fn}_calls"] = (per_pass[f"{mod}.{fn}_calls"], "count")
    m["stability.failed"] = (per_pass["stability.classify_fixed_point_raised"], "count")
    m["simplex.u_steps"] = (per_pass["simplex.u_steps"], "count")
    m["dynamics.steps"] = (per_pass["dynamics.steps"], "count")
    for v in workloads.VERDICTS:
        m[f"dynamics.verdict_{v}"] = (per_pass[f"dynamics.verdict_{v}"], "count")
    for k, v in import_times(env).items():
        m[k] = (v, "ms")
    traced_wall = statistics.median(w for _, w in run.passes)
    m["trace.overhead_s"] = (traced_wall - ref.passes[0][1], "s")

    notes.append(f"traced passes={n_pass} traced pass wall={traced_wall:.4f}s "
                 f"untraced pass wall={ref.passes[0][1]:.4f}s "
                 f"spans={len(tracer.start)}")
    if from_probe:
        notes.append("not called by this workload, timed on the fixed probe: "
                     + ", ".join(sorted(set(from_probe))))
    return run, m, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mospop" / "__init__.py").is_file():
        print(f"error: no mospop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("MOSPOP_TOL", None)
    # One thread per process, here and in every child: the load comes from
    # a single caller, and BLAS thread start-up at numpy import otherwise
    # makes timings depend on whether the second core happens to be free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env()
    load_start = os.getloadavg()
    setup = [] if args.trace else [time_setup(env) for _ in range(SETUP_PROBES)]

    import numpy
    import workloads

    wl = workloads.make(args.workload, args.seed, args.size == "tiny",
                        bool(args.trace), env, str(ROOT))
    problems = []
    if args.trace:
        run, metrics, notes, problems = layer_metrics(wl, args.seconds, env)
    else:
        run, metrics, notes = end_to_end(wl, args.seconds, setup)
    if wl.name == "orbit_ensemble":
        verdicts = workloads.OrbitEnsemble.verdicts(out for out, _ in run.first.values())
        notes.append("verdicts per pass: " + " ".join(f"{k}={v}" for k, v in verdicts.items()))
        if min(verdicts.values()) == 0:
            problems.append("the ensemble did not produce all four verdicts")
    if run.mismatched:
        problems.append(f"{len(run.mismatched)} outputs failed their check")

    print(f"# perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} size={args.size}")
    print(f"# python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} "
          f"loadavg_start={' '.join(f'{v:.2f}' for v in load_start)} "
          f"loadavg_end={' '.join(f'{v:.2f}' for v in os.getloadavg())}")
    print(f"# input size: {wl.size}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    for kind, count in sorted(run.errors.items()):
        print(f"#   {count} x {kind}, e.g. {run.examples[kind]}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.9g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
