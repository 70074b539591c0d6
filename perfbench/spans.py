"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions listed in LAYER_FUNCTIONS are replaced by wrappers in every
pulsesmith module namespace that binds them (``sequences``, ``analysis``,
``bloch`` and ``cli`` import names from ``su2`` and each other directly), so
calls between modules are caught as well as calls from the benchmark. Spans
are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

LAYER_FUNCTIONS = {
    "su2": ("rotation_with_error", "compose", "gate_fidelity", "unitarity_defect"),
    "sequences": (
        "compose_with_errors",
        "synthesize",
        "arcsinc",
        "sequence_to_dict",
        "sequence_from_dict",
    ),
    "analysis": (
        "fidelity_grid",
        "grid_to_csv",
        "slope_report",
        "fit_loglog_slope",
        "symmetric_ore_residual",
    ),
    "bloch": ("trajectory", "apply_to_state", "trajectory_to_csv"),
}


class Tracer:
    """Records (name, start, end, parent) for every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.fit_points_evaluated = 0
        self.fit_points_kept = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        i = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap LAYER_FUNCTIONS in every namespace of ``modules`` (name ->
        module) that binds the same function object, and restore them on
        exit."""
        patches = []
        try:
            for layer, functions in LAYER_FUNCTIONS.items():
                for fname in functions:
                    original = getattr(modules[layer], fname)
                    wrapped = self.wrap(f"{layer}.{fname}", original)
                    if fname == "fit_loglog_slope":
                        wrapped = self._count_fit_points(wrapped)
                    for module in modules.values():
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                patches.append((module, attr, value))
                                setattr(module, attr, wrapped)
            yield
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    def _count_fit_points(self, fn):
        # INFIDELITY_FLOOR is read at call time so the count follows the
        # package's own cut.
        from pulsesmith import analysis

        @functools.wraps(fn)
        def counted(t_values, values):
            self.fit_points_evaluated += len(values)
            self.fit_points_kept += sum(1 for v in values if v > analysis.INFIDELITY_FLOOR)
            return fn(t_values, values)

        return counted

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the arrays can still grow afterwards
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Count, total and self time per span name. Self time is a span's
        duration less the durations of its direct children."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        n = len(self.names)
        counts = np.bincount(a["name_id"], minlength=n)
        totals = np.bincount(a["name_id"], weights=duration, minlength=n)
        selfs = np.bincount(a["name_id"], weights=self_time, minlength=n)
        return {
            name: {"count": int(counts[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

