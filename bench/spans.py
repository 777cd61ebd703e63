"""In-memory spans recorded around the benchmark's calls into the engine.

A span is (id, parent id, op id, name, start, end). Spans stay in memory and
are written out when the run ends. A disabled tracer calls straight through,
so untraced ops pay one attribute test per call.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.op = None  # op id stamped on new spans; None for probes
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.op, name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[5] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        record = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(record)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def durations(self) -> dict[str, list[float]]:
        by_name = defaultdict(list)
        for _, _, _, name, start, end in self.spans:
            by_name[name].append(end - start)
        return by_name

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(values) for name, values in self.durations().items()}

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its (sequential) children cover."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_op(self) -> tuple[dict[int, int], dict[int, float]]:
        """Span count and root self-time share for every traced op."""
        counts: dict[int, int] = defaultdict(int)
        shares: dict[int, float] = {}
        own = self.self_times()
        for sid, parent, op, _, start, end in self.spans:
            if op is None:
                continue
            counts[op] += 1
            if parent is None:
                shares[op] = own[sid] / (end - start)
        return dict(counts), shares

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["id", "parent", "op", "name", "start", "end"], "spans": self.spans},
                handle,
            )


OFF = Tracer(enabled=False)
