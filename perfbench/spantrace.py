"""Spans around calls into the program, recorded from outside it.

A :class:`Tracer` replaces each traced function with a wrapper in every
namespace that binds it (``qtss.cli`` and ``qtss.protocol`` import ``deal``,
``fidelity``, ``trace_distance`` and ``encode_classical`` by name, so patching
only the defining module would miss those calls) and each traced method on its
class.  Spans (id, name, start, end, parent) stay in memory; self time is the
span's duration minus the time of its direct children, taken from the span
stack.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        # Spans as flat columns: a list of tuples would be tracked by the
        # garbage collector, whose passes then grow with the trace.
        self._names: dict[str, int] = {}
        self._span_cols = (array("q"), array("q"), array("d"), array("d"), array("q"))
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self.active = False
        self._stack: list[list] = []  # [span id, start, time in children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child_s = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        name_idx = self._names.setdefault(name, len(self._names))
        row = (span_id, name_idx, start, end, parent[0] if parent else -1)
        for col, value in zip(self._span_cols, row):
            col.append(value)

    @property
    def spans(self) -> list[tuple[int, str, float, float, int | None]]:
        """Every closed span as (id, name, start, end, parent id or None)."""
        names = list(self._names)
        return [
            (i, names[n], s, e, None if p < 0 else p)
            for i, n, s, e, p in zip(*self._span_cols)
        ]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; calls inside it are traced."""
        was_active, self.active = self.active, True
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)
            self.active = was_active

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching -----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> int:
        """Wrap ``module.attr`` in every loaded ``qtss`` module that binds the
        same object; returns how many bindings were replaced."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qtss" or mod_name.startswith("qtss.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    replaced += 1
        return replaced

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output -------------------------------------------------------------

    def dump(self, path, meta: dict) -> None:
        """Write the spans as JSON: names once, then one row per span whose
        name is an index into them and whose parent is -1 at a root."""
        doc = dict(meta)
        doc["names"] = list(self._names)
        doc["columns"] = ["id", "name", "start_s", "end_s", "parent"]
        doc["spans"] = [list(row) for row in zip(*self._span_cols)]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
