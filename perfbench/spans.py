"""In-memory span recorder for the traced pass, and self-time accounting.

A span is `(name, trace, parent, start, end)`, in process CPU seconds: `trace` is the TU index (or
the TU count for the whole-program stage), `parent` the index of the span
open when it began, or -1. Spans stay in memory and are written as JSON
lines at exit. CPython's cyclic collections are recorded as `gc` spans
through `gc.callbacks`, as children of whatever layer span was open, so a
layer's self time excludes the collections that happened inside it.

The recorder must not feed the collector it measures: spans live in
`array` columns, which the collector neither counts nor traverses, and the
context manager of each span name is made once and reused. Recording a span
allocates no object the collector tracks, so no collection can start in the
middle of `_begin` and misalign the columns.
"""
from __future__ import annotations

import gc
import json
import time
from array import array


class _Span:
    __slots__ = ("_rec", "_name")

    def __init__(self, rec: "SpanRecorder", name: int) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> None:
        self._rec._begin(self._name)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._rec._end()


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._spans: dict[str, _Span] = {}
        self._name_ids = array("i")
        self._traces = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._open = array("i")
        self.trace = 0
        self.gc_collections = 0
        self.gc_gen2_collections = 0
        self._gc_span = self.span("gc")

    def span(self, name: str) -> _Span:
        """The context manager that records one span named `name`."""
        s = self._spans.get(name)
        if s is None:
            self.names.append(name)
            s = self._spans[name] = _Span(self, len(self.names) - 1)
        return s

    def _begin(self, name: int) -> None:
        self._parents.append(self._open[-1] if self._open else -1)
        self._open.append(len(self._name_ids))
        self._name_ids.append(name)
        self._traces.append(self.trace)
        self._ends.append(0.0)
        self._starts.append(time.process_time())

    def _end(self) -> None:
        self._ends[self._open.pop()] = time.process_time()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_collections += 1
            self.gc_gen2_collections += info["generation"] == 2
            self._gc_span.__enter__()
        else:
            self._gc_span.__exit__(None, None, None)

    def __enter__(self) -> "SpanRecorder":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        gc.callbacks.remove(self._on_gc)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self._name_ids)):
                parent = self._parents[i]
                fh.write(json.dumps([self.names[self._name_ids[i]], self._traces[i],
                                     None if parent < 0 else parent,
                                     self._starts[i], self._ends[i]]) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals
