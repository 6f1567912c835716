"""Spans around the calls lanekit's modules make into each other.

The tracer replaces a function in the namespace of the module that calls
it, so ``lanekit.robustness.lowpass`` is the low-pass as the sweep sees it
and ``lanekit.cli.lowpass`` the one the CLI calls.  A span's layer is the
module that defines the function.  Per-sample helpers (``thw``,
``_rect_gap``, the W99 law inside ``simulate``) are not wrapped: one call
each per sample would cost more than the work they measure, so their time
counts toward the layer that calls them.

Spans stay in memory as ``[name, layer, start, end, parent, op, count]``;
``count`` is the work a call did where the result shows it (rows
ingested, events found, steps simulated), else ``None``.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _rows(report) -> int:
    return sum(len(t.t) for t in report.trajectories) + len(report.rejected_rows)


def _count(result, args, kwargs) -> int:
    return len(result)


def _sweep_points(result, args, kwargs) -> int:
    corpus, grid = args[0], args[2]
    return len(corpus.trajectories) * len(grid)


# namespace -> {attribute: counter(result, args, kwargs) or None}
WRAPPED = {
    "lanekit.cli": {
        "detect_gradient": _count,
        "detect_peak": _count,
        "detect_distance": _count,
        "classify_double": None,
        "most_critical": None,
        "direction_stats": None,
        "event_stats": None,
        "sweep": _sweep_points,
        "sample_cc1": None,
        "run_closed_loop": lambda r, a, k: len(r.t),
        "resample": None,
        "lowpass": None,
        "continuous_lateral": None,
        "marking_residual": None,
    },
    "lanekit.io": {
        "ingest": lambda r, a, k: _rows(r),
        "read_vehicles": None,
        "read_events": _count,
        "parse_keyvalues": None,
        "write_trajectories": None,
        "write_vehicles": None,
        "write_events": None,
        "write_records": None,
        "write_robustness": None,
        "write_json": None,
    },
    "lanekit.robustness": {
        "inject_bias": None,
        "inject_brownian": None,
        "lowpass": None,
        "continuous_lateral": None,
        "detect_peak": None,
        "detect_distance": None,
    },
    "lanekit.detection": {
        "derivative": None,
        "continuous_lateral": None,
        "detect_peak": None,
    },
    "lanekit.criticality": {
        "continuous_lateral": None,
        "box_summary": None,
    },
    "lanekit.stats": {
        "box_summary": None,
    },
    "lanekit.wiedemann": {
        "simulate": lambda r, a, k: len(r.t),
    },
    "lanekit.mis": {
        "w99_accel": None,
    },
}


class Tracer:
    """Records spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def _wrap(self, name: str, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[6] = counter(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for ns_name, attrs in WRAPPED.items():
            ns = importlib.import_module(ns_name)
            for attr, counter in attrs.items():
                fn = getattr(ns, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._saved.append((ns, attr, fn))
                setattr(ns, attr, self._wrap(f"{ns_name}.{attr}", layer, fn, counter))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def span(self, name: str, layer: str, fn, *args):
        """Run ``fn(*args)`` inside a top-level span."""
        return self._wrap(name, layer, fn, None)(*args)
