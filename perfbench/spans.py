"""Spans around the public functions of the hyperns modules, from outside.

`Tracer.install` replaces every public function and public method of the
hyperns modules with a wrapper that records a span: name, thread, start,
end and the span that called it.  A function is replaced in every module
namespace that binds it, because modules import `leray_project`, `run` and
others by name.  Spans stay in memory, in typed arrays that the garbage
collector does not scan (a list per span made the program's own
collections slower as spans piled up); `write` stores them at the end.
Self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import gzip
import json
import sys
import threading
import time
import tracemalloc
import types
from array import array
from collections import defaultdict

import numpy as np

# methods traced although their names start with an underscore
TRACED_DUNDERS = ("__post_init__", "__call__")
FFT_SPANS = ("lattice.WavenumberLattice.forward",
             "lattice.WavenumberLattice.inverse")
STEP_SPAN = "dynamics.Stepper.step"


def hyperns_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyperns"
                                  or name.startswith("hyperns."))]


def rebind(old, new) -> None:
    """Point every hyperns module attribute bound to `old` at `new`."""
    for mod in hyperns_modules():
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


class Tracer:
    """Spans of the wrapped hyperns functions, recorded while `enabled`."""

    # one entry per span in each array
    FIELDS = (("name", "i"), ("thread", "q"), ("start", "d"), ("end", "d"),
              ("parent", "q"), ("in_step", "b"), ("points", "q"))

    def __init__(self):
        self.names = set()     # every span name that was wrapped
        self.labels = []       # span name of each name id
        for field, code in self.FIELDS:
            setattr(self, field, array(code))
        self.enabled = False
        self.memory_probe = False   # measure the next step under tracemalloc
        self.step_peak_bytes = None
        self._local = threading.local()
        self._lock = threading.Lock()   # the arrays grow together
        self._undo = []        # (original, wrapper) rebound in modules
        self._undo_cls = []    # (class, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod in hyperns_modules():
            for key, obj in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("hyperns"):
                    continue
                if isinstance(obj, types.FunctionType) and obj not in wrapped:
                    wrapped[obj] = self._wrap(obj, self._span_name(obj))
                elif isinstance(obj, type) and obj not in wrapped:
                    wrapped[obj] = obj
                    self._wrap_class(obj)
        for orig, new in wrapped.items():
            if new is not orig:
                rebind(orig, new)
                self._undo.append((orig, new))

    def uninstall(self) -> None:
        for orig, new in self._undo:
            rebind(new, orig)
        for cls, key, orig in reversed(self._undo_cls):
            setattr(cls, key, orig)
        self._undo = []
        self._undo_cls = []

    @staticmethod
    def _span_name(fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

    def _wrap_class(self, cls) -> None:
        for key, attr in list(vars(cls).items()):
            if key.startswith("_") and key not in TRACED_DUNDERS:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                new = type(attr)(self._wrap(fn, self._span_name(fn)))
            elif isinstance(attr, types.FunctionType):
                new = self._wrap(attr, self._span_name(attr))
            else:
                continue
            setattr(cls, key, new)
            self._undo_cls.append((cls, key, attr))

    def _wrap(self, fn, name: str):
        self.names.add(name)
        nid = len(self.labels)
        self.labels.append(name)
        tracer = self
        local = self._local
        lock = self._lock
        names, threads, starts, ends, parents, in_steps, points = (
            getattr(self, field) for field, _ in self.FIELDS)
        clock = time.perf_counter
        fft = name in FFT_SPANS
        is_step = name == STEP_SPAN

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_step and tracer.memory_probe:
                return tracer._probe_memory(fn, args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            with lock:
                i = len(starts)
                names.append(nid)
                threads.append(threading.get_ident())
                parents.append(parent)
                in_steps.append(is_step or (parent >= 0 and in_steps[parent]))
                points.append(args[1].size if fft and len(args) > 1 else 0)
                ends.append(0.0)
                starts.append(clock())
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _probe_memory(self, fn, args, kwargs):
        """One step under tracemalloc; its spans are not recorded."""
        self.memory_probe = False
        self.enabled = False
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.step_peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.enabled = True

    # -- analysis -----------------------------------------------------------

    def clear(self) -> None:
        for field, _ in self.FIELDS:
            del getattr(self, field)[:]

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return name, dur, parent

    def self_times(self) -> np.ndarray:
        """Self time of every span, in recording order."""
        _, dur, parent = self._arrays()
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return own

    def totals(self) -> dict:
        """Per span name: count, inclusive and self seconds, inside steps
        and overall, and FFT points inside steps."""
        name, dur, _ = self._arrays()
        own = self.self_times()
        step = np.frombuffer(self.in_step, dtype=np.int8) != 0
        pts = np.frombuffer(self.points, dtype=np.int64).astype(np.float64)
        n = len(self.labels)
        sums = {
            "count": np.bincount(name, minlength=n),
            "incl": np.bincount(name, weights=dur, minlength=n),
            "self": np.bincount(name, weights=own, minlength=n),
            "step_count": np.bincount(name[step], minlength=n),
            "step_self": np.bincount(name[step], weights=own[step],
                                     minlength=n),
            "step_points": np.bincount(name[step], weights=pts[step],
                                       minlength=n),
        }
        agg = defaultdict(lambda: defaultdict(float))
        for i in np.flatnonzero(sums["count"]):
            agg[self.labels[i]] = defaultdict(
                float, {k: float(v[i]) for k, v in sums.items()})
        return agg

    def parent_labels(self, label: str) -> list:
        """Name of the calling span of every span named `label` (None at
        the root of its thread)."""
        name, _, parent = self._arrays()
        return [self.labels[self.name[p]] if p >= 0 else None
                for p in parent[name == self.labels.index(label)]]

    def covered(self, windows) -> float:
        """Self seconds of spans that start inside the given windows.

        ``windows`` is a list of disjoint (start, end) intervals.
        """
        if not windows:
            return 0.0
        lo, hi = np.array(sorted(windows)).T
        start = np.frombuffer(self.start, dtype=np.float64)
        i = np.searchsorted(lo, start, side="right") - 1
        inside = (i >= 0) & (start < hi[np.maximum(i, 0)])
        return float(self.self_times()[inside].sum())

    def write(self, path) -> None:
        """Store the spans as gzip JSON: name ids with their labels, thread
        ids, start and end in seconds, and the calling span's index."""
        doc = {"labels": self.labels}
        doc.update((field, getattr(self, field).tolist())
                   for field in ("name", "thread", "start", "end", "parent"))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
