"""In-memory span recorder for the traced (``--trace 1``) run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing inside ``src/`` is instrumented.
A span is ``(id, name, start, end, parent, qid)``: ``parent`` is the span
that was open when this one started and ``qid`` the query the span
belongs to (spans of one query share it).  Spans stay in memory and are
written out as JSONL once, when the run ends.  The untraced run never
imports this module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    qid: int | None


class Recorder:
    """Collects spans; the innermost open span is the parent of the next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = parent.qid
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent else None,
            qid=qid,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Seconds spent in spans of each name (a name never nests in
        itself here, so durations add up without double counting)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
        return totals

    def self_times(self) -> dict[str, float]:
        """Per-name self time: a span's duration minus the part of that
        interval its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span in self.spans:
            own = (span.end - span.start) - covered[span.id]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "qid": s.qid,
                        }
                    )
                )
                handle.write("\n")


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with 0/0 and n/0 both reported as 0.0
    (per-layer ratios have no bound; a vacuous one must still print)."""
    return numerator / denominator if denominator else 0.0
