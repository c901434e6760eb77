"""Slow-query exemplar capture (DESIGN.md §13).

Aggregates tell you p99 moved; an *exemplar* tells you why.  The
:class:`SlowQueryLog` is a bounded ring of full-fidelity records for
queries whose total latency crossed a threshold: the per-phase split,
the span subtree the tracer captured for exactly that query, and the
epoch (vector) the query pinned — enough to reproduce the plan against
the same snapshot.

Thresholding is tail-based: a fixed ``threshold`` (seconds) when
configured, otherwise *quantile-derived* — the log reads the
``query.seconds`` sketch of the registry it is attached to and captures
anything beyond its ``quantile`` (default p99), once at least
``min_count`` queries have been observed (before that, nothing is
"slow" in a way worth an exemplar).

Persistence is a bounded JSONL ring: records append to ``path``; when
the file grows past ``2 * capacity`` records it is compacted back to
the newest ``capacity`` (so the artifact's size is bounded no matter
how long the process serves).  Each line is a self-contained
``{"type": "slow_query", ...}`` object — the same shape embedded in
trace artifacts — so ``repro trace --slow`` reads either file.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Tail-based bounded exemplar ring for slow queries.

    Args:
        path: JSONL ring file (``None`` keeps the ring in memory only).
        capacity: maximum retained exemplars (ring semantics).
        threshold: fixed slow threshold in seconds; ``None`` derives it
            from the registry sketch per :attr:`quantile`.
        quantile: the tail cut when deriving (default 0.99).
        min_count: observations the sketch must hold before a derived
            threshold activates.
        registry: the :class:`~repro.obs.registry.MetricsRegistry`
            whose ``query.seconds`` sketch drives derivation (the
            processor attaches its own when left ``None``).
    """

    def __init__(
        self,
        path: str | None = None,
        capacity: int = 64,
        threshold: float | None = None,
        quantile: float = 0.99,
        min_count: int = 50,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"need a positive capacity, got {capacity}")
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.path = path
        self.capacity = capacity
        self.threshold = threshold
        self.quantile = quantile
        self.min_count = min_count
        self.registry = registry
        self.entries: deque = deque(maxlen=capacity)
        #: queries considered / captured (exported via ``publish``).
        self.considered = 0
        self.captured = 0
        self._file_records = self._existing_records()

    def _existing_records(self) -> int:
        if not self.path or not os.path.exists(self.path):
            return 0
        try:
            with open(self.path, encoding="utf-8") as handle:
                return sum(1 for line in handle if line.strip())
        except OSError:
            return 0

    # ------------------------------------------------------------------ #
    # Thresholding
    # ------------------------------------------------------------------ #

    def current_threshold(self) -> float | None:
        """The active slow threshold in seconds, or ``None`` while a
        derived threshold has not activated yet."""
        if self.threshold is not None:
            return self.threshold
        if self.registry is None:
            return None
        sketch = self.registry.sketch("query.seconds")
        if sketch.count < self.min_count:
            return None
        return sketch.quantile(self.quantile)

    def is_slow(self, seconds: float) -> bool:
        """Whether a query of ``seconds`` total latency should be
        captured (counts the consideration either way)."""
        self.considered += 1
        threshold = self.current_threshold()
        return threshold is not None and seconds > threshold

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #

    def record(
        self,
        result,
        source: str,
        spans: list[dict] | None = None,
        epoch: dict | None = None,
    ) -> dict:
        """Capture one slow query exemplar from a ``FixQueryResult``-
        shaped object; returns the record appended to the ring."""
        entry = {
            "type": "slow_query",
            "ts": time.time(),
            "source": source,
            "seconds": result.plan_seconds + result.prune_seconds
            + result.refine_seconds,
            "plan_s": result.plan_seconds,
            "prune_s": result.prune_seconds,
            "refine_s": result.refine_seconds,
            "plan_cached": result.plan_cached,
            "path": result.access_path.value,
            "candidates": result.candidate_count,
            "results": result.result_count,
            "documents_fetched": result.documents_fetched,
            "workers": result.workers,
            "pushdown": getattr(result, "pushdown", False),
            "threshold_s": self.current_threshold(),
            "epoch": epoch or {},
            "spans": spans or [],
        }
        self.entries.append(entry)
        self.captured += 1
        self._persist(entry)
        return entry

    def _persist(self, entry: dict) -> None:
        if not self.path:
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._file_records += 1
        if self._file_records > 2 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the ring file down to its newest ``capacity``
        records (bounded artifact size)."""
        assert self.path is not None
        kept: deque = deque(maxlen=self.capacity)
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    kept.append(line)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for line in kept:
                handle.write(line + "\n")
        os.replace(tmp, self.path)
        self._file_records = len(kept)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def publish(self, registry, prefix: str = "slowlog.") -> None:
        """Delta-sync capture counters into a registry."""
        registry.sync_counter(prefix + "considered", self.considered)
        registry.sync_counter(prefix + "captured", self.captured)
        threshold = self.current_threshold()
        if threshold is not None:
            registry.gauge(prefix + "threshold_seconds").set(threshold)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlowQueryLog({self.captured}/{self.considered} captured, "
            f"ring={len(self.entries)}/{self.capacity})"
        )
