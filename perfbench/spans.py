"""In-memory span recorder for the traced run.

A span is (name, start, end, parent span index, op id, tag, error): tag
is an optional size label such as u_max, error the exception type name if
the call raised. Besides spans the tracer keeps a peak per name and the
facts of each distinct table solved (keyed by model and u_max, so they do
not grow with the number of ops that fit into a run). All of it is kept in
memory and summarised once the run ends; nothing is written while the
workload runs. The untraced run uses NullTracer, whose methods do nothing.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, TAG, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.peaks = {}
        self.tables = {}
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else None, self.op, tag, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            rec[END] = perf_counter()

    def table(self, table_id: tuple, facts: dict) -> None:
        self.tables.setdefault(table_id, facts)

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def self_times(self) -> list:
        """Self time of every span in seconds: its duration minus the time
        its child spans cover (the run is single-threaded, so children
        never overlap)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def median_ms(self, name: str, tag=None) -> float:
        """Median self time of the named spans that finished without
        raising, in ms; NaN when there are none."""
        times = [t for s, t in zip(self.spans, self.self_times())
                 if s[NAME] == name and s[ERROR] is None
                 and (tag is None or s[TAG] == tag)]
        return 1e3 * statistics.median(times) if times else float("nan")

    def errors(self, name: str, error: str | None = None) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and s[ERROR]
                   and (error is None or s[ERROR] == error))

    def layer_totals(self) -> dict:
        """Self time in seconds and span count per layer, the layer being
        the span name up to its first dot."""
        totals = defaultdict(lambda: {"self_s": 0.0, "spans": 0})
        for s, t in zip(self.spans, self.self_times()):
            layer = totals[s[NAME].split(".", 1)[0]]
            layer["self_s"] += t
            layer["spans"] += 1
        return dict(totals)


class NullTracer:
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str, tag=None):
        return self._null

    def table(self, table_id: tuple, facts: dict) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass
