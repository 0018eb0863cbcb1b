"""In-memory spans and counters for the traced benchmark run.

A span records one call into a layer of ``repro``: its name, the spans
opened inside it, its start and end on ``time.perf_counter`` and the number
of Spark jobs started while it was open. Spark jobs are counted as the delta
of the next job id the scheduler will hand out, which, unlike the length of
the status tracker's job list, does not saturate at
``spark.ui.retainedJobs``.

Spans live in memory and become metrics only when the run ends:
``<name>_s`` (wall time), ``<name>.spark_jobs`` and, for a span with
children, ``<name>.self_s`` (its duration minus the time its children
cover).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    spark_jobs: int = 0
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the union of the children's intervals."""
        covered, reach = 0.0, self.start
        for c in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.seconds - covered


class Tracer:
    """Records nested spans and named counters for one benchmark run.

    ``job_id`` returns the next Spark job id the scheduler will hand out;
    its difference across a span is the number of jobs the span started.
    """

    def __init__(self, job_id: Callable[[], int]):
        self._job_id = job_id
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.counters: dict[str, tuple[float, str]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(name=name, start=0.0)
        jobs0 = self._job_id()
        s.start = time.perf_counter()
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.spark_jobs = self._job_id() - jobs0
            self._stack.pop()
            if parent is not None:
                parent.children.append(s)
            self.spans.append(s)

    def count(self, name: str, value: float, unit: str = "count") -> None:
        self.counters[name] = (value, unit)

    def seconds(self, name: str) -> float:
        return next(s.seconds for s in self.spans if s.name == name)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every span and counter as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for s in self.spans:
            out[f"{s.name}_s"] = (s.seconds, "s")
            out[f"{s.name}.spark_jobs"] = (s.spark_jobs, "count")
            if s.children:
                out[f"{s.name}.self_s"] = (s.self_seconds, "s")
        out.update(self.counters)
        return out
