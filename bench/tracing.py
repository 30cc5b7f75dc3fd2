"""Spans around calls into splineineq's public functions, and their self times.

The tracer patches the package from outside: for every layer module it wraps
each function listed in the module's ``__all__`` and defined there, plus
numpy's ``default_rng``, and replaces the original in every ``splineineq``
namespace that holds it (``from .norms import l2_norm_sq`` leaves a second
reference in ``bernstein``).  Nothing under ``src/`` changes.

Spans stay in memory as flat lists (name, parent, start, end) and are written
out once, when the traced process ends.  A span's self time is its duration
minus the durations of its direct children; calls on one thread nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter
import importlib
import sys
import time
import types

import numpy as np

# The package modules, in the order the CLI reaches them.
LAYERS = ("cli", "bernstein", "norms", "bspline", "favard", "symbol", "euler_frobenius")


def _norm_work(args, result, counters):
    # l2_norm_sq(s) forms the banded Gram form as dot products c[:-j] @ c[j:]
    # for j = 0..min(degree, n-1); each reads two float64 operands of n - j.
    s = args[0]
    n = len(s.coeffs)
    band = min(s.degree, n - 1) + 1
    counters["norms.l2_norm_sq.coeffs"] += n
    counters["norms.l2_norm_sq.bytes_computed"] += 16 * (band * n - band * (band - 1) // 2)


def _render_bytes(args, result, counters):
    counters["cli.render_record.bytes"] += len(result.encode("utf-8"))


# Work counters taken at a layer boundary, keyed by span name.
COUNTERS = {
    "norms.l2_norm_sq": _norm_work,
    "cli.render_record": _render_bytes,
}


class Tracer:
    """Records one span per wrapped call; install() patches the package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, result, counters)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            # import_module, not getattr on the package: splineineq.favard and
            # splineineq.euler_frobenius are the functions of those names.
            mod = importlib.import_module(f"splineineq.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        np_random = importlib.import_module("numpy.random")
        rng = self.wrap("rng.default_rng", np_random.default_rng)
        wrappers[id(np_random.default_rng)] = rng
        np_random.default_rng = rng
        for modname, mod in list(sys.modules.items()):
            if modname != "splineineq" and not modname.startswith("splineineq."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str) -> dict:
        """Write the spans to ``path`` (.npz); return names and counters."""
        np.savez(
            path,
            span_name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )
        return {"names": self.names, "counters": dict(self.counters)}


def self_times(span_name, parent, start, end, n_names: int):
    """Per-name call counts and self times of a span tree.

    ``parent[i]`` is the index of span i's caller, or -1 for a root.
    """
    span_name = np.asarray(span_name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    calls = np.bincount(span_name, minlength=n_names)
    self_s = np.bincount(span_name, weights=dur - child, minlength=n_names)
    return calls, self_s
