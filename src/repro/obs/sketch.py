"""Mergeable streaming quantile sketch (DESIGN.md §13).

Fixed buckets answer "how many observations fell under each static
bound", which is useless for tail latency: p99 of a workload whose
latencies straddle one bucket is unrecoverable.  This module provides
the registry's one distribution instrument — a
**compacting quantile sketch** in the Munro–Paterson / KLL family that
estimates any quantile of the observed stream with bounded rank error
in fixed memory, and **merges** across worker registries and trace
flushes.

Design constraints (inherited from the rest of ``repro.obs``):

* **Zero dependencies, JSON-friendly state.**  The sketch serializes to
  a plain dict (:meth:`QuantileSketch.as_dict`) that registry snapshots
  and flushed traces carry verbatim.
* **Deterministic.**  No randomness anywhere: compaction alternates a
  per-level parity bit instead of flipping coins, so the sketch state
  is a pure function of the observation sequence.  Two runs that
  observe the same values in the same order serialize byte-identically.
* **Replay-exact merge below the compaction threshold.**  Merging a
  sketch whose state is still an uncompacted level-0 log is *exactly*
  equivalent to observing its values in their arrival order.  The
  multi-worker absorb path (PR 1/7) concatenates per-worker streams in
  chunk order — the same contiguous-chunk order a serial run would have
  produced — so as long as each worker's per-sketch stream stays under
  ``k`` observations, the merged coordinator sketch is byte-identical
  to the serial one, for any worker count.  Beyond ``k`` the merge is
  still deterministic in merge order (and the error bound still holds);
  only exact byte equality with the serial ordering is forfeited.

Error model
-----------

Values live in levels; an item at level ``h`` carries weight ``2**h``.
New observations append to level 0 in arrival order.  When a level
reaches ``k`` items it is sorted and *compacted*: every other item
(starting at an alternating parity offset) is promoted to the next
level with doubled weight, the rest are discarded (an odd trailing item
stays at its level).  One compaction at level ``h`` can shift the
estimated rank of any query point by at most ``2**h`` — the sketch
accumulates that worst case in ``_error_weight``, so

    ``rank_error_bound() = _error_weight / count``

is a *sound, per-instance* bound on the rank error of every reported
quantile: for ``q`` the returned value's true rank is within
``count * rank_error_bound()`` of ``q * count``.  For ``n <= k`` the
sketch is lossless and the bound is exactly 0.  With the default
``k = 512`` the analytic envelope is ``~2*log2(n/k)/k`` — under 1% at
one million observations — and the alternating parity makes observed
error far smaller (``tests/test_obs_serving.py`` checks measured error
against the bound on a stream that compacts).  ``min``/``max``/``count``/``sum`` are tracked
exactly, so p0/p100 and means are never approximated.
"""

from __future__ import annotations

import math

__all__ = ["DEFAULT_SKETCH_K", "QuantileSketch"]

#: Default per-level capacity.  Lossless (zero rank error) up to this
#: many observations; ~57 KB ceiling per sketch at a million.
DEFAULT_SKETCH_K = 512


class QuantileSketch:
    """Deterministic compacting quantile sketch (KLL-style levels with
    alternating-parity compaction; see the module docstring)."""

    __slots__ = (
        "name", "k", "count", "sum", "min", "max",
        "_levels", "_parities", "_error_weight",
    )

    def __init__(self, name: str, k: int = DEFAULT_SKETCH_K) -> None:
        if k < 8:
            raise ValueError(f"sketch capacity k must be >= 8, got {k}")
        self.name = name
        self.k = k
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: _levels[0] is the arrival-order log; _levels[h >= 1] are kept
        #: sorted (weight 2**h per item).
        self._levels: list[list[float]] = [[]]
        #: per-level compaction parity bits (alternate, deterministic).
        self._parities: list[int] = [0]
        #: accumulated worst-case rank displacement, in weight units.
        self._error_weight = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._ingest(value)

    def _ingest(self, value: float) -> None:
        level0 = self._levels[0]
        level0.append(value)
        if len(level0) >= self.k:
            self._compact(0)

    def _compact(self, h: int) -> None:
        """Promote half of level ``h`` to level ``h + 1`` (sorted,
        alternating parity, deterministic)."""
        buf = sorted(self._levels[h])
        retained: list[float] = []
        if len(buf) % 2:
            retained.append(buf.pop())  # odd tail stays at this level
        parity = self._parities[h]
        self._parities[h] ^= 1
        promoted = buf[parity::2]
        self._levels[h] = retained
        self._error_weight += 1 << h
        if h + 1 == len(self._levels):
            self._levels.append([])
            self._parities.append(0)
        nxt = self._levels[h + 1]
        nxt.extend(promoted)
        nxt.sort()
        if len(nxt) >= self.k:
            self._compact(h + 1)

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #

    def merge(self, other: "QuantileSketch | dict") -> None:
        """Fold another sketch (or its :meth:`as_dict` state) into this
        one.

        The incoming level-0 log is *replayed in arrival order*, so
        merging uncompacted sketches in stream order reproduces the
        serial state exactly; compacted levels fold level-wise (sorted,
        then re-compacted as capacity demands), which preserves the
        error bound: the merged bound is the sum of both inputs' bounds
        plus whatever new compactions the fold itself performs.
        """
        state = other.as_dict() if isinstance(other, QuantileSketch) else other
        if state.get("count", 0) == 0:
            return
        if int(state["k"]) != self.k:
            raise ValueError(
                f"cannot merge sketch {self.name!r} with k={self.k} "
                f"and incoming k={state['k']}"
            )
        self.count += int(state["count"])
        self.sum += float(state["sum"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        self._error_weight += int(state.get("error_weight", 0))
        levels = state["levels"]
        for value in levels[0]:
            self._ingest(float(value))
        for h in range(1, len(levels)):
            if not levels[h]:
                continue
            while h >= len(self._levels):
                self._levels.append([])
                self._parities.append(0)
            mine = self._levels[h]
            mine.extend(float(v) for v in levels[h])
            mine.sort()
            if len(mine) >= self.k:
                self._compact(h)

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #

    def _weighted_items(self) -> list[tuple[float, int]]:
        items: list[tuple[float, int]] = []
        for h, level in enumerate(self._levels):
            weight = 1 << h
            items.extend((value, weight) for value in level)
        items.sort(key=lambda pair: pair[0])
        return items

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``0 <= q <= 1``) of the stream.

        ``q = 0`` and ``q = 1`` return the exact tracked extremes; NaN
        on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        items = self._weighted_items()
        for value, weight in items:
            cumulative += weight
            if cumulative >= target:
                return value
        return items[-1][0]  # pragma: no cover - float-rounding guard

    def quantiles(self, qs) -> list[float]:
        """Batch :meth:`quantile` (one sort, many probes)."""
        qs = list(qs)
        if self.count == 0:
            return [math.nan] * len(qs)
        items = self._weighted_items()
        out: list[float] = []
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
            if q == 0.0:
                out.append(self.min)
                continue
            if q == 1.0:
                out.append(self.max)
                continue
            target = q * self.count
            cumulative = 0
            result = items[-1][0]
            for value, weight in items:
                cumulative += weight
                if cumulative >= target:
                    result = value
                    break
            out.append(result)
        return out

    def rank_error_bound(self) -> float:
        """Sound per-instance bound on the rank error of any reported
        quantile, as a fraction of ``count`` (0.0 while lossless)."""
        if self.count == 0:
            return 0.0
        return self._error_weight / self.count

    @property
    def compacted(self) -> bool:
        """True once any lossy compaction has happened."""
        return self._error_weight > 0

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def as_dict(self) -> dict:
        """Canonical JSON-friendly state (deterministic byte-for-byte
        for a deterministic observation sequence)."""
        return {
            "k": self.k,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "levels": [list(level) for level in self._levels],
            "parities": list(self._parities),
            "error_weight": self._error_weight,
        }

    @classmethod
    def from_dict(cls, name: str, state: dict) -> "QuantileSketch":
        """Rehydrate a sketch exactly (state, not replay)."""
        sketch = cls(name, k=int(state["k"]))
        sketch.count = int(state["count"])
        sketch.sum = float(state["sum"])
        if sketch.count:
            sketch.min = float(state["min"])
            sketch.max = float(state["max"])
        sketch._levels = [[float(v) for v in level] for level in state["levels"]]
        sketch._parities = [int(p) for p in state["parities"]]
        sketch._error_weight = int(state.get("error_weight", 0))
        if not sketch._levels:
            sketch._levels = [[]]
            sketch._parities = [0]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch({self.name}, n={self.count}, "
            f"eps<={self.rank_error_bound():.4f})"
        )
