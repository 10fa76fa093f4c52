"""Span tracing from outside the program, by wrapping public functions.

A wrapped function records one span per call: its name, start, end and
the span that was open when it was called.  Spans stay in memory until
the run ends.  Each function is wrapped under every module attribute that
holds it (``coneflow.ch.flow_map``, ``coneflow.cli.flow_map``,
``coneflow.submersion.flow_map``, ...), because callers look the name up
in their own module; methods are wrapped on their class.
"""
from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _trig_eval_counts(args, kwargs, result):
    grid, points = args[0], args[2] if len(args) > 2 else kwargs["points"]
    n_points = int(np.size(points))
    # the dense evaluator builds a points x (n/2 + 1) complex128 phase matrix
    return {"points": n_points,
            "bytes_computed": n_points * (grid.n // 2 + 1) * 16}


def _csv_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _wfr_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "converged": int(bool(result.converged))}


# (module, attribute, span name, counter) for every layer boundary timed.
# group is not listed: no workload calls its operations directly, and its
# off-grid evaluations go through grid.trig_eval, which is.
TARGETS = (
    ("coneflow.wfr", "solve_wfr", "wfr.solve_wfr", _wfr_iterations),
    ("coneflow.wfr", "prox_action", "wfr.prox_action", None),
    ("coneflow.wfr", "continuity_project", "wfr.continuity_project", None),
    ("coneflow.wfr", "horizontal_flow", "wfr.horizontal_flow", None),
    ("coneflow.grid", "PeriodicGrid.trig_eval", "grid.trig_eval",
     _trig_eval_counts),
    ("coneflow.grid", "PeriodicGrid.invert_lift", "grid.invert_lift", None),
    ("coneflow.ch", "ch_rhs", "ch.ch_rhs", None),
    ("coneflow.ch", "ch_solve", "ch.ch_solve", None),
    ("coneflow.ch", "flow_map", "ch.flow_map", None),
    ("coneflow.euler", "euler_residual", "euler.euler_residual", None),
    ("coneflow.euler", "geodesic_form_consistency",
     "euler.geodesic_form_consistency", None),
    ("coneflow.euler", "lagrangian_measure_check",
     "euler.lagrangian_measure_check", None),
    ("coneflow.euler", "pressure_from_state", "euler.pressure_from_state",
     None),
    ("coneflow.submersion", "horizontal_lift", "submersion.horizontal_lift",
     None),
    ("coneflow.submersion", "hessian_certificate",
     "submersion.hessian_certificate", None),
    ("coneflow.submersion", "minimality_test", "submersion.minimality_test",
     None),
    ("coneflow.cone", "cone_geodesic", "cone.cone_geodesic", None),
    ("coneflow.formats", "write_trajectory_csv",
     "formats.write_trajectory_csv", _csv_bytes),
    ("coneflow.formats", "read_trajectory_csv",
     "formats.read_trajectory_csv", None),
    ("coneflow.cli", "main", "cli.main", None),
    ("coneflow.cli", "cmd_ch_solve", "cli.ch_solve", None),
    ("coneflow.cli", "cmd_euler_check", "cli.euler_check", None),
    ("coneflow.cli", "cmd_minimality", "cli.minimality", None),
)


class Tracer:
    """Records spans (name, start, end, parent) and per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, func, name, counter):
        name_id = self._span_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (name_id, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    counts[full] = counts.get(full, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every target under each module attribute that holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "coneflow" or key.startswith("coneflow.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapped)

    def uninstall(self) -> bool:
        """Restore the originals; True when every attribute is back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        restored = all(getattr(owner, key) is original
                       for owner, key, original in self._patches)
        self._patches.clear()
        return restored

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive and self seconds, plus root coverage.

        Self time is a span's duration minus the time its direct children
        cover; calls are sequential, so children never overlap.
        """
        n = len(self.spans)
        arr = np.array(self.spans, dtype=float).reshape(n, 4)
        name_id = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for i, name in enumerate(self.names):
            sel = name_id == i
            out[name] = {"calls": int(np.sum(sel)),
                         "incl_s": float(np.sum(dur[sel])),
                         "self_s": float(np.sum(self_time[sel]))}
        up = parent[has_parent]
        nested_ok = bool(np.all(arr[has_parent, 1] >= arr[up, 1])
                         and np.all(arr[has_parent, 2] <= arr[up, 2]))
        roots_s = float(np.sum(dur[~has_parent]))
        self_total = float(np.sum(self_time))
        return out, {"spans": n, "roots_s": roots_s,
                     "self_total_s": self_total, "nested_ok": nested_ok}

    def save(self, path):
        arr = np.array(self.spans, dtype=float).reshape(len(self.spans), 4)
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2],
                            parent=arr[:, 3].astype(np.int64))
