"""Span recorder for traced benchmark runs.

A span covers one call from the benchmark into a ``randaudit`` module.
It records its name, start, end (``perf_counter_ns``), parent span and
operation.  Spans are kept in memory; ``write`` dumps them when the run
ends.

The program has no spans of its own yet, so the time inside one call is
split by *replay*: after an operation finishes, the benchmark calls the
lower-layer public functions that the call is made of (for a verdict,
the statistic and the tail) on the same inputs, and records them as
children of the call's span.  Replays run after the operation's root
span has closed, so they never count toward operation time.  A span's
self time is its duration minus the durations of its children.

Self times add up to the operation's time whatever the replays measure,
so that sum checks nothing.  What can go wrong is a replay that costs
more than the call it explains: ``overdrawn`` finds span names whose
children, summed over a run, take longer than the calls themselves.
Work that a call does but no replay repeats stays in the call's self
time; nothing can detect it from outside the program.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# Each span name is "<module>.<call>"; its stage is the layer name that
# the bench and a later in-program trace share.
STAGES = {
    "op": "bench",
    "process.cli": "process",
    "cli.run": "process",
    "cli.parse_args": "process",
    "sequences.parse": "parse",
    "sequences.pack": "parse",
    "sequences.statistic": "statistic",
    "sequences.relabel": "relabel",
    "exact.tail": "tail",
    "exact.enumerate": "enumerate",
    "verdicts.verdict": "verdict",
    "verdicts.rejection_set": "verdict",
    "audit.audit": "audit",
    "audit.flip_search": "search",
    "audit.spectrum": "enumerate",
    "audit.invariance": "enumerate",
    "simulate.model": "simulate",
    "simulate.rejection_rate": "simulate",
    "report.json": "report",
    "report.reproduce": "report",
}


# Summed over a run, a span name's replayed children may take longer than
# the name's own calls by this share of the calls' duration plus this many
# ns before the attribution is rejected.  A call whose work is all replayed
# (an audit is a relabeling and two verdicts) sits near zero self time, and
# timing noise between call and replay moved it by up to 5% on a shared
# 2-vCPU machine; the slack absorbs a collector pause on short calls.
OVERDRAW_SHARE = 0.2
OVERDRAW_SLACK_NS = 5_000_000


def overdrawn(summary: dict[str, dict[str, float]]) -> list[str]:
    """Span names whose replayed children took longer than the calls they explain."""
    return [
        name
        for name, row in summary.items()
        if row["self_ns"] < -(OVERDRAW_SHARE * row["duration_ns"] + OVERDRAW_SLACK_NS)
    ]


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: int = 0
    end: int = 0
    calls: int = 1
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def operation(self, fn: Callable[["NullTracer"], Any]) -> Any:
        return fn(self)

    def call(self, name, fn, *args, replay=None, calls=1, tag=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._parent: int | None = None
        self._op = -1
        self._replays: list[tuple[int, Callable, Any]] = []

    def operation(self, fn: Callable[["Tracer"], Any]) -> Any:
        """Run one operation under a root span, then its replays."""
        self._op += 1
        root = self._open("op")
        try:
            try:
                result = fn(self)
            finally:
                self._close(root)
            while self._replays:
                parent, replay, value = self._replays.pop(0)
                self._parent = parent
                replay(value)
        finally:
            self._replays.clear()
            self._parent = None
        return result

    def call(self, name, fn, *args, replay=None, calls=1, tag=None, **kwargs):
        """Call ``fn`` under a span; queue ``replay(result)`` to explain it."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        span = self.spans[index]
        span.calls = calls
        if tag is not None:
            span.attrs.update(tag(result))
        if replay is not None:
            self._replays.append((index, replay, result))
        return result

    def _open(self, name: str) -> int:
        if name not in STAGES:
            raise KeyError(f"span name {name!r} has no stage")
        self.spans.append(Span(name, self._parent, self._op))
        index = len(self.spans) - 1
        self._parent = index
        self.spans[index].start = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        self._parent = span.parent

    def self_ns(self) -> list[int]:
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration_ns
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self ns, total duration ns, calls, spans."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_ns()):
            row = out[span.name]
            row["self_ns"] += own
            row["duration_ns"] += span.duration_ns
            row["calls"] += span.calls
            row["spans"] += 1
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    row[key] += value
                else:
                    row[f"{key}={value}"] += 1
                    row[f"{key}={value}.self_ns"] += own
        return {name: dict(row) for name, row in out.items()}

    def write(self, path, environment: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"environment": environment}) + "\n")
            for i, (span, own) in enumerate(zip(self.spans, self.self_ns())):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "stage": STAGES[span.name],
                            "op": span.op,
                            "parent": span.parent,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "self_ns": own,
                            "calls": span.calls,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )
