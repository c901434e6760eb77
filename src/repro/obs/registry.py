"""Process-wide metrics registry: counters, gauges, quantile sketches.

The registry is the one place an operational number is written
(DESIGN.md §10): ``query.*`` instruments once per query, and the counter
blocks the pipelines accumulate in plain fields —
:class:`~repro.core.construction.PhaseTimings`,
:class:`~repro.core.construction.ConstructionStats`,
:class:`~repro.btree.tree.BTreeStats`,
:class:`~repro.storage.pager.PagerStats` — synced in at named
boundaries (:class:`CounterBlock`), so one snapshot answers "where did
the build spend its time", "what is the spectral-cache hit rate", and
"how many candidates did pruning produce" at once.

Design constraints:

* **Zero dependencies** — plain Python objects, JSON-friendly
  snapshots.
* **Cheap writes** — an instrument is fetched once
  (:meth:`MetricsRegistry.counter` get-or-creates) and then updated by
  attribute arithmetic; no locks (CPython attribute updates are
  GIL-atomic enough for the single-writer-per-process usage here, and
  cross-process aggregation goes through :meth:`merge_snapshot`).
* **Mergeable** — worker processes ship :meth:`snapshot` dicts back to
  the coordinator, which folds them in deterministically (counters add;
  gauges take the last write; sketches merge).

Metric names are dotted paths (``build.phase_seconds.eigen``,
``query.plan_cache.hits``); the conventional names used across the
pipelines are collected in DESIGN.md §10.
"""

from __future__ import annotations

import dataclasses

from repro.obs.sketch import DEFAULT_SKETCH_K, QuantileSketch

__all__ = [
    "Counter",
    "CounterBlock",
    "Gauge",
    "MetricsRegistry",
    "QuantileSketch",
]


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


class CounterBlock:
    """Base of the dataclasses a pipeline counts in: every field is a
    running total, summed by :meth:`merge` and synced into a registry
    by :meth:`publish` under ``PREFIX`` plus the field's name.

    A subclass is a ``@dataclass`` of numeric fields with defaults.  It
    lists in ``EXPLICIT`` the fields that are not sums (a maximum, a
    mapping) and folds those itself, and in ``PUBLISHED`` the fields
    whose counter is named otherwise, or — ``None`` — not published.
    """

    PREFIX = ""
    EXPLICIT: tuple[str, ...] = ()
    PUBLISHED: dict[str, str | None] = {}

    @classmethod
    def _totals(cls) -> tuple[tuple[str, str | None], ...]:
        """``(field, counter name)`` per summed field, worked out from
        the dataclass on first use and kept on the class."""
        totals = cls.__dict__.get("_totals_of_class")
        if totals is None:
            totals = cls._totals_of_class = tuple(
                (f.name, cls.PUBLISHED.get(f.name, f.name))
                for f in dataclasses.fields(cls)
                if f.name not in cls.EXPLICIT
            )
        return totals

    def snapshot(self):
        """A copy frozen at the current counts (for before/after deltas)."""
        return dataclasses.replace(self)

    def delta(self, before):
        """Counter difference ``self - before``."""
        now, then = vars(self), vars(before)
        return dataclasses.replace(
            self, **{name: now[name] - then[name] for name, _ in self._totals()}
        )

    def merge(self, other) -> None:
        """Fold another block's totals into this one."""
        mine, theirs = vars(self), vars(other)
        for name, _ in self._totals():
            mine[name] += theirs[name]

    @classmethod
    def combine(cls, blocks):
        """Sum of several blocks."""
        total = cls()
        for block in blocks:
            total.merge(block)
        return total

    def publish(self, registry: "MetricsRegistry", prefix: str | None = None) -> None:
        """Sync these running totals into ``registry`` counters
        (:meth:`MetricsRegistry.sync_counter`: by delta, so publishing a
        growing total again — at every boundary — is idempotent)."""
        if prefix is None:
            prefix = self.PREFIX
        values = vars(self)
        for name, counter in self._totals():
            if counter is not None:
                registry.sync_counter(prefix + counter, values[name])


class MetricsRegistry:
    """Named instruments, get-or-create semantics.

    A process typically has one registry per :class:`~repro.obs.Obs`
    context (one per index, plus private ones inside standalone views);
    instruments are identified by name within their registry.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
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

    def sketch(self, name: str, k: int = DEFAULT_SKETCH_K) -> QuantileSketch:
        """Get-or-create a mergeable quantile sketch (DESIGN.md §13).

        A sketch derives *any* quantile with a bounded rank error —
        the instrument the serving layer's p50/p99 reporting reads.
        Capacity conflicts raise, because two capacities cannot merge.
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

        Used by the blocks that keep their own running sums
        (:class:`CounterBlock`) and publish them at named boundaries:
        the counter is bumped by the delta, so repeated publishes of a
        growing total are idempotent.  The delta is clamped at zero —
        counters are monotonic, so a source total that was externally
        reset (``reset_stats()``) can never drive the registry
        backwards; publishes then no-op until the total re-passes the
        value already recorded.
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
            "sketches": {
                name: s.as_dict() for name, s in sorted(self._sketches.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters add; gauges take the incoming value (last write
        wins, the conventional gauge merge); sketches merge
        (replay-exact for uncompacted inputs — see
        :class:`~repro.obs.sketch.QuantileSketch`).  Merge the incoming
        snapshots in a deterministic order (chunk order for worker
        absorbs, shard order for sharded aggregation) and the merged
        sketch state is deterministic too.  Any other section — the
        ``"histograms"`` of a trace written before sketches replaced
        them — is skipped.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        self.merge_sketch_states(snapshot.get("sketches", {}))

    def merge_sketch_states(self, sketches: dict) -> None:
        """Fold a bare ``{name: sketch state}`` mapping (the worker
        absorb payload) into this registry's sketches."""
        for name, dump in sketches.items():
            self.sketch(name, k=int(dump["k"])).merge(dump)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._sketches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._sketches)} sketches)"
        )
