"""repro.obs — unified tracing + metrics for the build and query
pipelines (DESIGN.md §10).

One :class:`Obs` context bundles the two observability substrates:

* a :class:`~repro.obs.tracer.Tracer` producing hierarchical spans that
  serialize to a JSONL trace file and merge deterministically across
  the parallel worker pools, and
* a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges
  and quantile sketches — the one sink every measurement is written to,
  per query or, for the pipelines' counter blocks (``PhaseTimings``,
  ``ConstructionStats``, ``BTreeStats``, ``PagerStats``), at named
  boundaries.

Every :class:`~repro.core.index.FixIndex` owns an ``Obs`` (configured
via ``FixIndexConfig.obs``); processors default to their index's.  The
registry is always live — it is the bookkeeping substrate, and writing
a counter is about as cheap as the ``+=`` it replaced — while span
*tracing* is off unless requested, with a cached no-op span singleton
keeping disabled-mode overhead under its 2 % budget (see
:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import Counter, CounterBlock, Gauge, MetricsRegistry
from repro.obs.resources import ResourceSampler
from repro.obs.sketch import DEFAULT_SKETCH_K, QuantileSketch
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    read_trace,
    scan_trace,
    write_trace,
)
from repro.obs.window import RollingWindow

__all__ = [
    "DEFAULT_SKETCH_K",
    "Counter",
    "CounterBlock",
    "Gauge",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Obs",
    "ObsConfig",
    "QuantileSketch",
    "ResourceSampler",
    "RollingWindow",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "read_trace",
    "scan_trace",
    "write_trace",
]


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Observability settings carried by ``FixIndexConfig.obs``.

    Attributes:
        trace: capture spans (build and query) for JSONL export.  The
            metrics registry is live regardless — only span capture has
            a cost worth gating.
        trace_path: default path ``Obs.flush()`` writes to when the
            caller gives none (the CLI's ``--trace PATH``).
    """

    trace: bool = False
    trace_path: str | None = None


class Obs:
    """A tracer + registry pair scoped to one index (or one worker)."""

    def __init__(
        self,
        trace: bool = False,
        proc: str = "main",
        trace_path: str | None = None,
    ) -> None:
        self.tracer = Tracer(enabled=trace, proc=proc)
        self.registry = MetricsRegistry()
        self.trace_path = trace_path
        #: registry state at the last flush, so repeated flushes emit
        #: deltas and a merged trace never double-counts a counter.
        self._flushed_snapshot: dict | None = None

    @classmethod
    def from_config(cls, config: "ObsConfig | None", proc: str = "main") -> "Obs":
        if config is None:
            return cls(trace=False, proc=proc)
        return cls(trace=config.trace, proc=proc, trace_path=config.trace_path)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def span(self, name: str, **attrs):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, **attrs)

    def flush(self, path: str | None = None, append: bool = False) -> int:
        """Write buffered spans plus a metrics snapshot to JSONL.

        Returns the number of lines written (0 when tracing is off or
        no path is known).  The buffer is cleared after a successful
        write, and the metrics snapshot only carries the *delta* since
        the previous flush (the registry keeps accumulating), so
        interleaved ``build --trace`` / ``query --trace`` invocations —
        or several flushes from one process — can append into one
        artifact without ``repro trace`` double-counting anything.
        """
        path = path or self.trace_path
        if path is None or not self.tracer.enabled:
            return 0
        snapshot = self.registry.snapshot()
        delta = (
            snapshot
            if self._flushed_snapshot is None
            else _snapshot_delta(self._flushed_snapshot, snapshot)
        )
        events = list(self.tracer.events)
        events.append(
            {
                "type": "metrics",
                "run": self.tracer.run,
                "proc": self.tracer.proc,
                "snapshot": delta,
            }
        )
        written = write_trace(events, path, append=append)
        self.tracer.clear()
        self._flushed_snapshot = snapshot
        return written


def _snapshot_delta(prev: dict, cur: dict) -> dict:
    """What changed between two registry snapshots of one process.

    Counters diff (so ``merge_snapshot`` over a sequence of flushed
    deltas reconstructs the final totals exactly); gauges are
    point-in-time values and pass through unchanged — merge is
    last-write-wins for them anyway.  Sketches cannot be diffed (the
    state is lossy), so each flush carries the *full* sketch state and
    trace summarization keeps only the last state per (run, name)
    before merging across runs — same net effect as the counter deltas.
    """
    prev_counters = prev["counters"]
    return {
        "counters": {
            name: value - prev_counters.get(name, 0.0)
            for name, value in cur["counters"].items()
        },
        "gauges": dict(cur["gauges"]),
        "sketches": dict(cur["sketches"]),
    }
