"""Spans around the public functions of the library's layers.

``Tracer.install`` replaces each public function of the layer modules with
a wrapper that records a span (name, parent, start, end), both in its home
module and in every module that bound it with ``from ... import``, so no
call bypasses it.  Spans are kept in flat arrays in memory and written out
once, when the traced pass has ended.  Self time is a span's duration minus
the durations of its child spans; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Layer modules whose public functions get spans.
LAYERS = ("repcw", "bredon", "exactalg", "functors", "slices", "chart",
          "catalog", "golden")

# Public methods that are layer boundaries of their own.
METHODS = {
    "bredon": {"MackeyHomology": ("__init__", "functor")},
    "exactalg": {"ReducedComplex": ("__init__", "homology")},
}

# Arithmetic leaves called 10^5..10^6 times per pass: a span each would
# cost more than the work, so their time stays in the caller's self time.
LEAVES = {
    "repcw": {"osum", "osum_add", "osum_scale", "osum_compose"},
    "exactalg": {"mat", "zeros", "identity", "shape", "mat_mul", "mat_add",
                 "mat_scale", "mat_vec", "transpose", "hstack"},
}


def _shape(m) -> tuple[int, int]:
    data = getattr(m, "data", m)
    return len(data), (len(data[0]) if data else 0)


def _cells(counts, args, out):
    counts["repcw.cells_in"] += args[0].ncells()
    counts["repcw.cells_out"] += out.ncells()


def _snf_entries(counts, args, out):
    rows, cols = _shape(args[0])
    counts["exactalg.snf_entries"] += rows * cols


def _iso_found(counts, args, out):
    counts["functors.iso_found"] += out is not None


# Counters read off a call's arguments and result, outside its span.
OBSERVERS = {
    "repcw.reduce_complex": _cells,
    "exactalg.snf_full": _snf_entries,
    "functors.find_isomorphism": _iso_found,
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _open(self, label_id: int) -> int:
        idx = len(self.name)
        self.name.append(label_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _label(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def wrap(self, label: str, fn):
        label_id = self._label(label)
        observe = OBSERVERS.get(label)
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = open_(label_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(counts, args, out)
            return out

        return span

    @contextlib.contextmanager
    def root(self, label: str = "pass"):
        """The span that holds the whole timed pass."""
        idx = self._open(self._label(label))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever bound."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "mackey" or n.startswith("mackey.")}
        spans: dict[int, object] = {}  # id of a function -> its wrapper
        for layer in LAYERS:
            mod = mods[f"mackey.{layer}"]
            skip = LEAVES.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                spans[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = f"{layer}.{cls_name}"
                    if meth != "__init__":
                        label += f".{meth}"
                    setattr(cls, meth, self.wrap(label, vars(cls)[meth]))
        for m in mods.values():
            space = vars(m)
            for attr, obj in list(space.items()):
                if id(obj) in spans and callable(obj):
                    space[attr] = spans[id(obj)]

    def summary(self) -> dict:
        """Per-label self seconds and calls, and the root's self time."""
        n = len(self.name)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        by_label: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            if self.parent[i] < 0:
                continue
            label = self.labels[self.name[i]]
            by_label[label] += self_s[i]
            calls[label] += 1
        roots = [i for i in range(n) if self.parent[i] < 0]
        return {
            "self_s": dict(by_label),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "root_s": sum(self.end[i] - self.start[i] for i in roots),
            "root_self_s": sum(self_s[i] for i in roots),
            "spans": n,
        }

    def dump(self, path) -> None:
        """Write every span: label, parent index, start and end seconds."""
        with open(path, "w") as fh:
            json.dump({
                "labels": self.labels,
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)
