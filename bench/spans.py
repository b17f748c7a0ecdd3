"""Span tracer that times regnets layers from outside the package.

`Tracer.install()` replaces the public functions of every regnets layer
module (in every `regnets.*` namespace that imported them), a few methods
(`GridFunction.__init__`, `FluxFormOperator.as_sparse`, the `Measure`
quadrature oracles), the `numpy.fft` entry points and
`scipy.sparse.linalg.splu` with wrappers that record one span per call:
name, start, end, parent span and run id. `uninstall()` puts the
originals back, so an untraced pass runs the unmodified package.

Spans stay in memory; `PassTrace` turns the spans of one run id into
counts, inclusive times and self times (duration minus the part of the
interval that child spans cover).
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time

import numpy.fft
import scipy.sparse.linalg

LAYERS = ("grid", "mollifiers", "measures", "free", "solver", "asymptotics", "lab", "cli", "io")

# Scalar helper evaluated once per quadrature node (through
# MollifierSpec.normalization); a span per call would dominate the trace.
SKIP = {"mollifiers.cauchy_power_normalization"}

FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

QUADRATURE = {
    "measures.Measure.integrate",
    "measures.Measure.ball_mass",
    "measures.Measure.median_radius",
}

# Quantities computed from array and file sizes at the layer boundary; they
# are not measured memory or disk traffic.
MEASURES = {
    "fft": lambda args, kwargs, result: {"points": int(numpy.size(args[0]))},
    "grid.GridFunction": lambda args, kwargs, result: {"bytes": int(args[0].values.nbytes)},
    "solver.factorize": lambda args, kwargs, result: {"nnz": int(result.L.nnz + result.U.nnz)},
    "solver.solve": lambda args, kwargs, result: {
        "steps": len(result.residuals),
        "max_residual": max(result.residuals, default=0.0),
    },
    "io.write_csv": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
    "io.write_manifest": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """Records spans of wrapped calls; one run id per benchmark pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, quantities]
        self.run_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _call(self, name, fn, measure, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a worker thread (the CLI's pool) runs on behalf of the span
            # that the main thread is inside
            parent = self._main_stack[-1]
        else:
            parent = None
        record = [name, 0.0, 0.0, parent, self.run_id, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if measure is not None:
            record[5] = measure(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        measure = MEASURES.get(name)
        call = self._call

        def traced(*args, **kwargs):
            return call(name, fn, measure, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import regnets.grid
        import regnets.measures
        import regnets.solver

        namespaces = [m for n, m in sys.modules.items() if n == "regnets" or n.startswith("regnets.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"regnets.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[obj] = self.wrap(name, obj)
        # the CN matrices (as_sparse plus I -/+ i dt/2 H) have no public name
        wrappers[regnets.solver._cn_matrices] = self.wrap("solver.assemble", regnets.solver._cn_matrices)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])

        methods = [
            (regnets.grid.GridFunction, "__init__", "grid.GridFunction"),
            (regnets.solver.FluxFormOperator, "as_sparse", "solver.as_sparse"),
        ] + [(regnets.measures.Measure, name.rsplit(".", 1)[1], name) for name in sorted(QUADRATURE)]
        for cls, attr, name in methods:
            self._set(cls, attr, self.wrap(name, getattr(cls, attr)))
        for attr in FFT_ENTRY_POINTS:
            if hasattr(numpy.fft, attr):
                self._set(numpy.fft, attr, self.wrap("fft", getattr(numpy.fft, attr)))
        self._set(scipy.sparse.linalg, "splu", self.wrap("solver.factorize", scipy.sparse.linalg.splu))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_trace(self, run_id, start, end):
        # passes run one after another, so the spans of one run id are contiguous
        indices = [i for i, s in enumerate(self.spans) if s[4] == run_id]
        offset = indices[0] if indices else 0
        return PassTrace(self.spans[offset:offset + len(indices)], offset, start, end)

    def write(self, path):
        """Write every span as CSV: name, start, end, parent, run id."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,run_id\n")
            for i, (name, start, end, parent, run_id, _) in enumerate(self.spans):
                parent = "" if parent is None else parent
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{run_id}\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class PassTrace:
    """Counts and times of the spans of one pass, spanning [start, end]."""

    def __init__(self, spans, offset, start, end):
        self.wall = end - start
        self.names = [s[0] for s in spans]
        self.start = [s[1] for s in spans]
        self.end = [s[2] for s in spans]
        self.parent = [None if s[3] is None else s[3] - offset for s in spans]
        self.quantities = [s[5] for s in spans]
        children = [[] for _ in spans]
        roots = []
        for i, p in enumerate(self.parent):
            (roots if p is None else children[p]).append(i)
        self.self_time = []
        overlap = 0.0
        for i, kids in enumerate(children):
            intervals = [(self.start[c], self.end[c]) for c in kids]
            covered = _union_length(intervals)
            overlap += sum(e - s for s, e in intervals) - covered
            self.self_time.append(self.end[i] - self.start[i] - covered)
        intervals = [(self.start[r], self.end[r]) for r in roots]
        covered = _union_length(intervals)
        overlap += sum(e - s for s, e in intervals) - covered
        self.unattributed = self.wall - covered
        # time counted twice because spans of two threads ran at once
        self.overlap = overlap

    def identity_error(self):
        """|sum of self times + unattributed - overlap - wall|; 0 up to rounding."""
        return abs(sum(self.self_time) + self.unattributed - self.overlap - self.wall)

    def _ancestor_in(self, i, names):
        p = self.parent[i]
        while p is not None:
            if self.names[p] in names:
                return True
            p = self.parent[p]
        return False

    def count(self, *names):
        return sum(1 for n in self.names if n in names)

    def inclusive(self, *names):
        """Time inside the named spans, nested ones counted once."""
        return sum(
            self.end[i] - self.start[i]
            for i, n in enumerate(self.names)
            if n in names and not self._ancestor_in(i, names)
        )

    def self_s(self, *names):
        return sum(t for n, t in zip(self.names, self.self_time) if n in names)

    def total(self, name, key):
        return sum(q[key] for n, q in zip(self.names, self.quantities) if n == name and q)

    def maximum(self, name, key):
        return max((q[key] for n, q in zip(self.names, self.quantities) if n == name and q), default=0.0)

    def inclusive_under(self, names, parent_name):
        """Time in the named spans whose direct parent is `parent_name`."""
        return sum(
            self.end[i] - self.start[i]
            for i, n in enumerate(self.names)
            if n in names and self.parent[i] is not None and self.names[self.parent[i]] == parent_name
        )

    def table(self):
        """(name, count, inclusive s, self s) for every span name, by self time."""
        rows = {}
        for n, t in zip(self.names, self.self_time):
            c, s = rows.get(n, (0, 0.0))
            rows[n] = (c + 1, s + t)
        return sorted(
            ((n, c, self.inclusive(n), s) for n, (c, s) in rows.items()),
            key=lambda r: -r[3],
        )
