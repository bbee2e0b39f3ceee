"""Spans, work counts and checked-operation accounting, all held in memory.

The benchmark records spans from its own files, around each call it makes into
a public pdakit function; nothing inside the library is instrumented.  Calls
made from the benchmark never nest, so the duration of a library span is also
its layer's self time.  Work items (an array, a product, an equivalence search
or a demand) are the parents of those spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Keeps one span per library call: (name, start_ns, end_ns, item).

    ``name`` is ``<module>.<function>``, the clock is ``perf_counter_ns`` and
    ``item`` labels the work item that made the call.  Work counts computed
    by the benchmark go to ``counts``.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.counts: Counter = Counter()
        self.item: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), self.item))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def layer_totals(self) -> Counter:
        """Seconds per function and per layer, call counts, and the work counts."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            if name.startswith("item."):
                continue
            seconds = (end - start) / 1e9
            out[f"{name}.s"] += seconds
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.s"] += seconds
        out.update(self.counts)
        return out


class Untraced:
    """Stands in for a Tracer when tracing is off: calls pass straight through."""

    enabled = False
    item = None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class Checks:
    """Attempted and failed checked operations, by kind.

    A check that finds a wrong output makes the run incorrect.  An exception
    or an exhausted search budget is a failed operation but not a wrong
    output, so the run stays correct and the failure shows in the counts.
    """

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong = 0
        self.notes: list[str] = []

    def check(self, kind: str, ok: bool, what: str = "") -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            self.wrong += 1
            self._note(f"{kind}: wrong result {what}")

    def fail(self, kind: str, why: str) -> None:
        self.attempted[kind] += 1
        self.failed[kind] += 1
        self._note(f"{kind}: {why}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20 and text not in self.notes:
            self.notes.append(text)


class Pass:
    """One pass of a workload: its tracer, the run's checks, and item latencies."""

    def __init__(self, tracer, checks: Checks) -> None:
        self.tr = tracer
        self.checks = checks
        self.latencies: dict[str, list[float]] = {}
        self.verified_bytes = 0

    @contextmanager
    def item(self, kind: str, label: str):
        """Time one work item; an exception inside it is one failed operation."""
        tr = self.tr
        tr.item = f"{kind}:{label}"
        start = time.perf_counter_ns()
        try:
            yield
        except Exception as exc:  # the run must go on and report the failure
            self.checks.fail(kind, f"{tr.item} raised {type(exc).__name__}: {exc}"[:300])
        finally:
            end = time.perf_counter_ns()
            self.latencies.setdefault(kind, []).append((end - start) / 1e9)
            if tr.enabled:
                tr.spans.append((f"item.{kind}", start, end, tr.item))
            tr.item = None
