"""In-memory spans for the traced run, exported as Chrome trace events.

The benchmark takes spans from the outside, around its calls into each
layer's public functions. Spans stay in memory and are written once, at
the end of the run, in the trace-event format that Perfetto opens.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Stage names; the program's own tracing should adopt them unchanged.
STAGES = ("fingerprint", "select", "cache_lookup", "ruiz", "bind", "run",
          "session_update", "session_resolve", "batch_bind", "batch_run",
          "customize", "compile", "verify")

#: Root span of one request (one burst on batch_bursts). Roots of set-up
#: builds carry negative request ids.
REQUEST = "request"


@dataclass
class Span:
    name: str
    request_id: int
    span_id: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    args: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def ms(self) -> float:
        return self.ns / 1e6


class SpanRecorder:
    """Nested spans on ``perf_counter_ns``; one recorder per run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: int, **args):
        if name != REQUEST and name not in STAGES:
            raise ValueError(f"unknown stage {name!r}")
        record = Span(name, request_id, len(self.spans),
                      self._open[-1] if self._open else None,
                      time.perf_counter_ns(), args=args)
        self.spans.append(record)
        self._open.append(record.span_id)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def named(self, name: str, **match) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.args.get(k) == v for k, v in match.items())]

    def stage_ms(self) -> dict[str, list[float]]:
        """Per stage, the time each request spent in it.

        Counts the direct children of request roots (set-up builds and
        probe spans excluded), so nested spans are not counted twice.
        """
        roots = {s.span_id for s in self.spans
                 if s.name == REQUEST and s.request_id >= 0}
        per_stage: dict[str, dict[int, float]] = {}
        for s in self.spans:
            if s.parent in roots and not s.args.get("probe"):
                by_request = per_stage.setdefault(s.name, {})
                by_request[s.request_id] = (by_request.get(s.request_id, 0.0)
                                            + s.ms)
        return {name: list(by_request.values())
                for name, by_request in per_stage.items()}

    def chrome_trace(self, metadata: dict) -> dict:
        origin = min((s.start_ns for s in self.spans), default=0)
        pid = os.getpid()
        events = [{
            "name": s.name, "cat": "request" if s.name == REQUEST else "stage",
            "ph": "X", "ts": (s.start_ns - origin) / 1e3, "dur": s.ns / 1e3,
            "pid": pid, "tid": 1,
            "args": {"request_id": s.request_id, "span_id": s.span_id,
                     "parent": s.parent, **s.args},
        } for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}

    def write(self, path, metadata: dict) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)
