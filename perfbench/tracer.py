"""Span tracer that instruments hallmhd from outside the package.

Every public function defined in a ``hallmhd`` module is wrapped, and the
wrapper is bound under every module attribute that holds the same function
object.  Solver, diagnostics, paraproduct, verification and the CLI import many
names with ``from .spectral import ...``, so rebinding only the defining
module would let those calls escape the trace.  ``uninstall`` puts every
original object back.

Spans live in memory as ``[name, start, end, parent, quantity]``; they are
summarised and written out once the traced phase ends.  A span's self time is its
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "hallmhd"
STEP = "solver.step"
FFTS = ("spectral.irfftn_batch", "spectral.rfftn_batch")


def _fields(args, kwargs, result):
    arr, n = args[0], args[1]
    return math.prod(arr.shape[:-n])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# quantity recorded on each span of these functions, besides its duration
QUANTITIES = {
    "spectral.irfftn_batch": _fields,
    "spectral.rfftn_batch": _fields,
    "snapshots.write_snapshot": _file_bytes,
    "snapshots.read_snapshot": _file_bytes,
}


class Tracer:
    """Wraps the public functions of the loaded hallmhd modules while active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        quantity = QUANTITIES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if quantity is not None:
                rec[4] = quantity(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper under every module attribute holding a public function."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, quantity."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qty in self.spans:
                fh.write(json.dumps([name, start, end, parent, qty]) + "\n")


def _self_times(spans):
    """Self time of every span, and whether it lies inside a solver.step span."""
    child = [0.0] * len(spans)
    under_step = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        # parents are appended before their children, so their flag is final
        if parent >= 0:
            child[parent] += end - start
            under_step[i] = under_step[parent]
        if name == STEP:
            under_step[i] = True
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)], under_step


def summarize(spans) -> dict:
    """Per-function totals: calls, inclusive ``s``, ``self_s`` and summed ``qty``.

    The ``STEP`` entry also carries ``fields_under_step``, the FFT fields
    transformed inside solver.step spans, and ``subtree_self_s``, the summed
    self times of every span inside a solver.step span.  Self times
    telescope, so the latter equals the step's ``s`` up to rounding; the
    tracer's own cost inside a span lands in that span's self time.
    """
    selfs, under_step = _self_times(spans)
    stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "qty": 0})
    fields_under_step = 0
    subtree_self_s = 0.0
    for i, (name, start, end, _, qty) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += selfs[i]
        st["qty"] += qty
        if under_step[i]:
            subtree_self_s += selfs[i]
            if name in FFTS:
                fields_under_step += qty
    stats[STEP]["fields_under_step"] = fields_under_step
    stats[STEP]["subtree_self_s"] = subtree_self_s
    return dict(stats)
