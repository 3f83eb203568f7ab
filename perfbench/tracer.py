"""In-memory spans around the public functions of each quadrix layer.

The recorder wraps functions from the outside, so the engine is unchanged:
every name in a layer module's public API that is a function defined there,
plus the LocalChart solver methods, is replaced by a timing wrapper in every
quadrix module that imported it.  A span is (name, start, end, parent index,
lanes, newton iterations, ok).  Spans stay in memory until the run ends.

``span_totals`` folds spans into per-name totals; run.py derives the
per-layer metrics from those.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("funcspec", "_grids", "surface", "measure", "characterize", "quadrics", "cli")
CHART_METHODS = {"__init__": "init", "height": "height", "boundary_radius": "boundary_radius",
                 "gradient_at": "gradient_at"}
SOLVERS = ("surface.LocalChart.height", "surface.LocalChart.boundary_radius")


def _rows(a) -> int:
    """Lanes in a batch argument; a single point is one lane."""
    a = np.asarray(a)
    return 1 if a.ndim < 2 else int(a.shape[0])


# span name -> how to read the lane count from the call's arguments
_LANES = {
    "funcspec.eval_value_grad": lambda args, kw: _rows(args[1] if len(args) > 1 else kw["X"]),
    "surface.LocalChart.height": lambda args, kw: _rows(args[1] if len(args) > 1 else kw["Y"]),
    "surface.LocalChart.boundary_radius": lambda args, kw: _rows(args[1] if len(args) > 1 else kw["U"]),
}


class Recorder:
    """Installs wrappers, collects spans, and removes the wrappers again."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        lanes_of = _LANES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lanes = lanes_of(args, kwargs) if lanes_of else 0
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            ok, iters = False, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                iters = getattr(result, "newton_iterations", 0)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, lanes, iters, ok)

        return wrapper

    def install(self) -> None:
        modules = {m: sys.modules[f"quadrix.{m}"] for m in LAYERS if f"quadrix.{m}" in sys.modules}
        holders = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "quadrix" or key.startswith("quadrix."))]
        for short, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:  # rebind the name wherever it was imported
                    if getattr(holder, attr, None) is fn:
                        self._undo.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)
        chart = modules["surface"].LocalChart
        for attr, label in CHART_METHODS.items():
            fn = chart.__dict__[attr]
            self._undo.append((chart, attr, fn))
            setattr(chart, attr, self._wrap(f"surface.LocalChart.{label}", fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()


def span_totals(spans) -> dict:
    """Per span name: calls, lanes, self seconds, failed calls, newton iterations,
    plus the eval_value_grad lanes each chart solver issued directly."""
    child_s = defaultdict(float)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    tot = defaultdict(lambda: {"calls": 0, "lanes": 0, "self_s": 0.0, "failed": 0,
                               "newton_iters": 0, "eval_lanes": 0})
    for idx, (name, t0, t1, parent, lanes, iters, ok) in enumerate(spans):
        row = tot[name]
        row["calls"] += 1
        row["lanes"] += lanes
        row["self_s"] += (t1 - t0) - child_s[idx]
        row["failed"] += 0 if ok else 1
        row["newton_iters"] += iters
        if name == "funcspec.eval_value_grad" and parent >= 0 and spans[parent][0] in SOLVERS:
            tot[spans[parent][0]]["eval_lanes"] += lanes
    return {k: dict(v) for k, v in tot.items()}


def merge_totals(parts) -> dict:
    out: dict = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, dict.fromkeys(row, 0))
            for key, val in row.items():
                acc[key] += val
    return out
