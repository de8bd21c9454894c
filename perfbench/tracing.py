"""Spans around calls into mospop's layers, recorded from outside the package.

Tracer.install() replaces each traced function with a wrapper under every
name a mospop module holds it by (for example both
mospop.fixed_points.find_fixed_points and mospop.cli.find_fixed_points), so
calls made inside the package are seen too.  Each call records a span: its
name, start, end, parent span and operation id.  Spans stay in memory in
flat arrays and are written out by save().  Per-pass counters (calls, orbit
steps, verdicts, failures) are kept alongside, so a pass over the same
inputs can be checked to repeat them exactly.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (module, function) pairs whose calls become spans.  Functions that the
# cli renders with (validate, fmt, argparse) are deliberately not traced, so
# their cost stays in the self time of cli.main.
TRACED = (
    ("params", "classify"),
    ("fixed_points", "find_fixed_points"),
    ("stability", "jacobian"),
    ("stability", "eigenvalues"),
    ("stability", "classify_fixed_point"),
    ("stability", "declared_type_table"),
    ("simplex", "analyze"),
    ("simplex", "u_orbit_limit"),
    ("simplex", "fixed_point_u"),
    ("dynamics", "orbit"),
    ("oracles", "grid_period_scan"),
    ("oracles", "fd_jacobian"),
    ("oracles", "quad_roots"),
    ("cli", "main"),
)


def _record_result(counter: Counter, label: str, result) -> None:
    """Counts that a traced call's return value carries."""
    if label == "dynamics.orbit":
        counter["dynamics.steps"] += result.iterations_used
        counter["dynamics.verdict_" + result.verdict.value] += 1
    elif label == "simplex.u_orbit_limit":
        counter["simplex.u_steps"] += result.iterations_used


class Tracer:
    def __init__(self):
        self.labels: list[str] = [f"{m}.{f}" for m, f in TRACED]
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.passes: list[Counter] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        self.passes.append(Counter())

    def _wrap(self, name_id: int, fn):
        label = self.labels[name_id]
        calls_key = label + "_calls"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0)
            stack.append(idx)
            counter = tracer.passes[-1]
            counter[calls_key] += 1
            raised = True
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
                if raised:
                    counter[label + "_raised"] += 1
            _record_result(counter, label, result)
            return result

        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "mospop" or k.startswith("mospop."))]
        for name_id, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules["mospop." + mod_name], fn_name)
            wrapper = self._wrap(name_id, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def self_times(self, ops: range | None = None) -> dict[str, tuple[int, float]]:
        """Per label: (calls, total self time in seconds), over spans whose
        operation id lies in `ops` (all spans when ops is None).

        Self time is a span's duration minus the durations of its child
        spans; a traced call never overlaps a sibling, so children are
        disjoint.
        """
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        keep = np.ones(len(dur), dtype=bool)
        if ops is not None:
            op = np.frombuffer(self.op, dtype=np.int64)
            keep = (op >= ops.start) & (op < ops.stop)
        calls = np.bincount(name[keep], minlength=len(self.labels))
        total = np.bincount(name[keep], weights=own[keep],
                            minlength=len(self.labels))
        return {label: (int(calls[i]), float(total[i]) * 1e-9)
                for i, label in enumerate(self.labels)}

    def save(self, path: str) -> None:
        np.savez(path, labels=np.array(self.labels),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64))
