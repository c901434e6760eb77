"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the single source of truth for the repo's operational
numbers (DESIGN.md §10).  The older instrumentation islands —
:class:`~repro.core.construction.PhaseTimings`,
:class:`~repro.core.index.BuildReport`,
:class:`~repro.core.metrics.QueryMetricsLog` — are *views* over a
registry: they read and write named instruments here instead of keeping
parallel sums, so one snapshot answers "where did the build spend its
time", "what is the spectral-cache hit rate", and "how many candidates
did pruning produce" at once.

Design constraints:

* **Zero dependencies** — plain Python objects, JSON-friendly
  snapshots.
* **Cheap writes** — an instrument is fetched once
  (:meth:`MetricsRegistry.counter` get-or-creates) and then updated by
  attribute arithmetic; no locks (CPython attribute updates are
  GIL-atomic enough for the single-writer-per-process usage here, and
  cross-process aggregation goes through :meth:`merge_snapshot`).
* **Mergeable** — worker processes ship :meth:`snapshot` dicts back to
  the coordinator, which folds them in deterministically (counters and
  histogram buckets add; gauges take the last write).

Metric names are dotted paths (``build.phase_seconds.eigen``,
``query.plan_cache.hits``); the conventional names used across the
pipelines are collected in DESIGN.md §10.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.sketch import DEFAULT_SKETCH_K, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "DEFAULT_LATENCY_BOUNDS",
]

#: Fixed bucket upper bounds (seconds) for latency histograms — a
#: log-ish ladder from 0.1 ms to 10 s; everything above the last bound
#: lands in the implicit +inf bucket.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically growing number (int or float adds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (sizes, rates, configuration)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets are derivable
    from the per-bucket counts in the snapshot)."""

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(bounds)
        #: one count per bound, plus the trailing +inf bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times, for bulk sync)."""
        self.counts[bisect_right(self.bounds, value)] += n
        self.count += n
        self.sum += value * n

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, sum={self.sum:.6f})"


class MetricsRegistry:
    """Named instruments, get-or-create semantics.

    A process typically has one registry per :class:`~repro.obs.Obs`
    context (one per index, plus private ones inside standalone views);
    instruments are identified by name within their registry.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif instrument.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}, requested {tuple(bounds)}"
            )
        return instrument

    def sketch(self, name: str, k: int = DEFAULT_SKETCH_K) -> QuantileSketch:
        """Get-or-create a mergeable quantile sketch (DESIGN.md §13).

        Unlike :meth:`histogram`, a sketch derives *any* quantile with a
        bounded rank error — the instrument the serving layer's p50/p99
        reporting reads.  Capacity conflicts raise, like histogram
        bound conflicts, because two capacities cannot merge.
        """
        instrument = self._sketches.get(name)
        if instrument is None:
            instrument = self._sketches[name] = QuantileSketch(name, k=k)
        elif instrument.k != k:
            raise ValueError(
                f"sketch {name!r} already registered with k={instrument.k}, "
                f"requested k={k}"
            )
        return instrument

    def sketch_names(self) -> list[str]:
        """The registered sketch names, sorted."""
        return sorted(self._sketches)

    def sync_counter(self, name: str, value: float) -> None:
        """Catch counter ``name`` up to an externally accumulated total.

        Used by views that keep their own running sums (e.g.
        :class:`~repro.core.construction.ConstructionStats`) and publish
        them at phase boundaries: the counter is bumped by the delta, so
        repeated publishes of a growing total are idempotent.  The delta
        is clamped at zero — counters are monotonic, so a source total
        that was externally reset (``reset_stats()``) can never drive
        the registry backwards; publishes then no-op until the total
        re-passes the value already recorded.
        """
        instrument = self.counter(name)
        if value > instrument.value:
            instrument.inc(value - instrument.value)

    # ------------------------------------------------------------------ #
    # Snapshots and merging
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.as_dict() for name, h in sorted(self._histograms.items())
            },
            "sketches": {
                name: s.as_dict() for name, s in sorted(self._sketches.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins, the conventional gauge merge); sketches
        merge (replay-exact for uncompacted inputs — see
        :class:`~repro.obs.sketch.QuantileSketch`).  Merge the incoming
        snapshots in a deterministic order (chunk order for worker
        absorbs, shard order for sharded aggregation) and the merged
        sketch state is deterministic too.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, dump in snapshot.get("histograms", {}).items():
            instrument = self.histogram(name, tuple(dump["bounds"]))
            for i, count in enumerate(dump["counts"]):
                instrument.counts[i] += count
            instrument.count += dump["count"]
            instrument.sum += dump["sum"]
        for name, dump in snapshot.get("sketches", {}).items():
            self.sketch(name, k=int(dump["k"])).merge(dump)

    def merge_sketch_states(self, sketches: dict) -> None:
        """Fold a bare ``{name: sketch state}`` mapping (the worker
        absorb payload) into this registry's sketches."""
        for name, dump in sketches.items():
            self.sketch(name, k=int(dump["k"])).merge(dump)

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges)
            + len(self._histograms) + len(self._sketches)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms, "
            f"{len(self._sketches)} sketches)"
        )
