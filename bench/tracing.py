"""In-memory span tracing, installed from outside the traced package.

A `Tracer` keeps every span in memory (name, start, end, parent id and
optional attributes) and writes them as gzip-compressed JSON at the end of
a run.  Spans are
opened by wrappers that `patch` puts in place of package functions for the
length of a `with` block; the package source is never edited.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest like the calls they wrap, one thread at a time, so
children never overlap and lie inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    parent: int | None
    start: int  # ns on the tracer's clock
    end: int
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans into flat lists of atoms, which the garbage collector
    does not traverse, so a long run does not slow down as spans pile up.
    `clock_ns` gives the time stamps."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self._clock_ns = clock_ns
        self._names, self._parents, self._starts, self._ends = [], [], [], []
        self._attrs = {}
        self._stack = []

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else None)
        self._ends.append(-1)
        self._stack.append(idx)
        self._starts.append(self._clock_ns())
        return idx

    def _close(self, idx: int):
        self._ends[idx] = self._clock_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, annotate=None):
        """Wrap `fn` so each call is a span.

        `name` is a string or a function of (args, kwargs) returning one;
        `annotate(args, kwargs, result)` returns the span's attributes and
        runs after the span is closed, so its cost is not in the span.
        """
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                self._attrs[idx] = annotate(args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(n, p, s, e, self._attrs.get(i)) for i, (n, p, s, e) in
                enumerate(zip(self._names, self._parents, self._starts, self._ends))]

    def write_json(self, path):
        """Write the spans as gzip-compressed JSON: a name table and one
        ``[id, parent, name index, start, end, attrs]`` row per span, times
        in ns from the first span."""
        names = sorted(set(self._names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self._starts[0] if self._starts else 0
        rows = [[i, s.parent, index[s.name], s.start - t0, s.end - t0, s.attrs]
                for i, s in enumerate(self.spans())]
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({"time_unit": "ns", "names": names,
                       "columns": ["id", "parent", "name", "start", "end", "attrs"],
                       "spans": rows}, f, separators=(",", ":"))


def subtree(spans, root: int) -> list[int]:
    """Indices of `root` and all its descendants.  Spans are recorded in the
    order they open, so descendants follow their ancestor and open before
    it closes."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].start > spans[root].end:
            break
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


@contextmanager
def patch(namespaces, replacements: dict):
    """Replace functions by wrappers in every given namespace, then restore.

    `replacements` maps each original function to its wrapper; any attribute
    of any namespace (a module) that *is* an original is swapped, which also
    covers names bound by `from module import name`.
    """
    by_id = {id(orig): wrapper for orig, wrapper in replacements.items()}
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                setattr(ns, attr, wrapper)
                undo.append((ns, attr, value))
    try:
        yield
    finally:
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)


def self_times(spans, indices) -> dict[int, int]:
    """Self time of each span in `indices`: duration minus the durations of
    its direct children."""
    out = {i: spans[i].end - spans[i].start for i in indices}
    for i in indices:
        p = spans[i].parent
        if p in out:
            out[p] -= spans[i].end - spans[i].start
    return out
