"""Spans at layer boundaries, kept in memory and written once at the end.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it began (its parent), the workload it
ran under, and optional counts measured at the same boundary.  Calls the
benchmark makes itself are wrapped with ``Tracer.span``; calls one corrldp
layer makes into another are reached by ``Tracer.instrument``, which swaps
the name the calling module looks up for a wrapper that opens a span and
calls the original.  Nothing in corrldp changes, and ``Tracer.restore``
puts every original back.

The untraced run uses ``NullTracer``, whose spans cost one context-manager
entry and record nothing.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class NullTracer:
    """Tracer for the untraced run: every span is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext({})

    def paused(self):
        return contextlib.nullcontext()

    def counts(self, workload: str, name: str, key: str) -> list:
        return []


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.workload: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._enabled = True

    @contextlib.contextmanager
    def span(self, name: str):
        if not self._enabled:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while a check calls an instrumented function."""
        before, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = before

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None and "id" in record:
                    record["counts"] = count(args, kwargs, result)
            return result

        return wrapper

    def instrument(self, owner, attr: str, name: str, count=None) -> None:
        """Open a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is the module or class the caller looks the name up in.
        ``count(args, kwargs, result)`` may return a dict of counts to attach.
        """
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, count))
        else:
            replacement = self._wrap(original, name, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, workload: str, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["workload"] == workload and s["name"] == name
        ]

    def durations_per_parent(self, workload: str, name: str) -> list[float]:
        """Summed duration of the named spans under each parent span."""
        totals: dict = {}
        for s in self.spans:
            if s["workload"] == workload and s["name"] == name:
                totals[s["parent"]] = totals.get(s["parent"], 0.0) + s["end"] - s["start"]
        return list(totals.values())

    def counts(self, workload: str, name: str, key: str) -> list[float]:
        return [
            s["counts"][key]
            for s in self.spans
            if s["workload"] == workload and s["name"] == name and key in s.get("counts", {})
        ]


def median_or_none(values):
    return statistics.median(values) if values else None
