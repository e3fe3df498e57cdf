"""Span recorder and span arithmetic for the spdo benchmark.

A span is one call into a wrapped function: a name, a start and an end
(perf_counter nanoseconds), the index of the enclosing span (-1 for none) and
the id of the CLI invocation that made it.  The recorder keeps spans in flat
typed arrays, so a million spans cost about 24 MB, and writes them once, when
the invocation ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np


class Recorder:
    """Collects nested spans of one process in memory."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """Return fn wrapped in a span.

        `name` is a string, or a callable (args, kwargs) -> string that names
        each call from its arguments.
        """
        fixed = None if callable(name) else self.name_index(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else \
                self.name_index(name(args, kwargs))
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def save(self, path: str) -> None:
        np.savez(path, header=np.array(json.dumps(
                     {"invocation": self.invocation, "names": self.names})),
                 name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start, np.int64),
                 end=np.frombuffer(self.end, np.int64))


class SpanTable:
    """Spans of one invocation as parallel arrays, with self times."""

    def __init__(self, invocation, names, name_id, parent, start, end):
        self.invocation = invocation
        self.names = list(names)
        self.name_id = np.asarray(name_id, np.int64)
        self.parent = np.asarray(parent, np.int64)
        self.start = np.asarray(start, np.int64)
        self.end = np.asarray(end, np.int64)

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path) as z:
            head = json.loads(str(z["header"]))
            return cls(head["invocation"], head["names"], z["name_id"],
                       z["parent"], z["start"], z["end"])

    def durations(self) -> np.ndarray:
        """Span durations in seconds."""
        return (self.end - self.start) * 1e-9

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children.

        Spans of one thread nest, so the children of a span cover disjoint
        parts of its interval and their durations add.
        """
        dur = self.durations()
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child],
                              minlength=len(dur))
        return dur - covered

    def root_time(self) -> float:
        """Seconds covered by spans that have no parent."""
        return float(self.durations()[self.parent < 0].sum())

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (call count, total self time in seconds)."""
        n = len(self.names)
        calls = np.bincount(self.name_id, minlength=n)
        self_s = np.bincount(self.name_id, weights=self.self_times(),
                             minlength=n)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}
