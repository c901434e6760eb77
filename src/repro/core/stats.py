"""Optimizer statistics: the λ_max histogram (Section 5).

The paper: "A good practice is to build a histogram on the primary
sorting key (e.g., λ_max) in the B-tree" to estimate the number of
candidate results before choosing a plan.  This module provides a
per-label equi-width histogram over the indexed λ_max values and the
corresponding candidate-count estimator; the estimator is validated
against exact scan counts in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.epoch import EpochCachedView
from repro.core.index import FixIndex
from repro.spectral import FeatureKey


@dataclass
class _LabelHistogram:
    lo: float
    hi: float
    counts: list[int]
    #: entries with the all-covering (infinite) range, kept out of the
    #: finite buckets but always counted as candidates.
    unbounded: int = 0

    def estimate_at_least(self, threshold: float) -> float:
        """Estimated number of entries with λ_max >= ``threshold``."""
        estimate = float(self.unbounded)
        if not self.counts:
            return estimate
        if threshold <= self.lo:
            return estimate + sum(self.counts)
        if threshold > self.hi:
            return estimate
        width = (self.hi - self.lo) / len(self.counts) or 1.0
        position = (threshold - self.lo) / width
        bucket = min(int(position), len(self.counts) - 1)
        # Linear interpolation inside the straddled bucket.
        fraction = 1.0 - (position - bucket)
        estimate += self.counts[bucket] * max(0.0, min(1.0, fraction))
        estimate += sum(self.counts[bucket + 1 :])
        return estimate


class FeatureHistogram:
    """Equi-width per-label histogram over indexed λ_max values.

    Label slices are independently refreshable: after a mutation, only
    the touched labels' slices are recomputed from the surviving entries
    (:meth:`refresh`), which keeps the recorded per-label endpoints both
    *sound* and *tight* — removals shrink ``hi``, so the
    :meth:`may_contain` skip test never degrades on churn.
    """

    def __init__(self, index: FixIndex, buckets: int = 32) -> None:
        if buckets < 1:
            raise ValueError(f"need at least 1 bucket, got {buckets}")
        self.buckets = buckets
        values: dict[str, list[float]] = {}
        unbounded: dict[str, int] = {}
        for entry in index.iter_entries():
            key = entry.key
            label = key.root_label
            if key.range.is_all_covering():
                unbounded[label] = unbounded.get(label, 0) + 1
                continue
            values.setdefault(label, []).append(key.range.lmax)
        self._histograms: dict[str, _LabelHistogram] = {}
        for label, lmaxes in values.items():
            self._histograms[label] = self._slice_of(
                lmaxes, unbounded.pop(label, 0)
            )
        for label, count in unbounded.items():
            # Labels whose every entry is unbounded.
            self._histograms[label] = _LabelHistogram(0.0, 0.0, [], count)

    def _slice_of(
        self, lmaxes: list[float], unbounded: int
    ) -> _LabelHistogram:
        """One label's histogram slice from its finite λ_max values."""
        if not lmaxes:
            return _LabelHistogram(0.0, 0.0, [], unbounded)
        lo, hi = min(lmaxes), max(lmaxes)
        buckets = self.buckets
        counts = [0] * buckets
        span = (hi - lo) or 1.0
        for value in lmaxes:
            bucket = min(int((value - lo) / span * buckets), buckets - 1)
            counts[bucket] += 1
        return _LabelHistogram(lo, hi, counts, unbounded)

    def refresh(self, index: FixIndex, labels) -> None:
        """Recompute the slices of ``labels`` from the index's surviving
        entries (a per-label B-tree range scan each) — the scoped
        alternative to a full rebuild after a mutation.  A label with no
        remaining entries loses its slice entirely, so ``may_contain``
        goes back to proving its scans empty."""
        for label in labels:
            lmaxes: list[float] = []
            unbounded = 0
            for entry in index.iter_label_entries(label):
                stored = entry.key.range
                if stored.is_all_covering():
                    unbounded += 1
                else:
                    lmaxes.append(stored.lmax)
            if not lmaxes and not unbounded:
                self._histograms.pop(label, None)
            else:
                self._histograms[label] = self._slice_of(lmaxes, unbounded)

    def estimate_candidates(
        self, query_key: FeatureKey, anchored: bool = True
    ) -> float:
        """Estimated ``cdt`` for a query feature key.

        The scan condition is ``label match and indexed λ_max >= query
        λ_max``; the λ_min filter is ignored by the estimator (λ_min is
        -λ_max for real anti-symmetric matrices, so it rejects almost
        nothing the λ_max condition admits — see eigen.py).

        ``anchored=False`` drops the label condition and sums the
        estimate over every label — the collection-mode ``//`` scan,
        which the processor uses to order intersection fragments by
        selectivity.
        """
        if anchored:
            histograms = (
                [self._histograms[query_key.root_label]]
                if query_key.root_label in self._histograms
                else []
            )
        else:
            histograms = list(self._histograms.values())
        threshold = query_key.range.lmax
        if math.isinf(threshold):
            return float(sum(h.unbounded for h in histograms))
        return sum(h.estimate_at_least(threshold) for h in histograms)

    def may_contain(
        self,
        query_key: FeatureKey,
        anchored: bool = True,
        guard: float = 0.0,
    ) -> bool:
        """Can a scan for ``query_key`` possibly yield a candidate?

        Unlike :meth:`estimate_candidates` (an approximation) this is a
        *sound* emptiness test, because each label histogram records its
        exact λ_max endpoints: when the query's guarded threshold
        ``λ_max - guard`` lies strictly above a label's recorded ``hi``
        and the label has no all-covering entries, no stored key can
        satisfy the containment predicate.  Sharded coordinators use it
        to skip shards without scanning them (DESIGN.md §11); a
        ``False`` here never loses an answer.
        """
        if anchored:
            histogram = self._histograms.get(query_key.root_label)
            histograms = [] if histogram is None else [histogram]
        else:
            histograms = list(self._histograms.values())
        threshold = query_key.range.lmax - guard
        for histogram in histograms:
            if histogram.unbounded:
                return True
            if histogram.counts and threshold <= histogram.hi:
                return True
        return False

    def labels(self) -> list[str]:
        """Labels with at least one indexed entry."""
        return sorted(self._histograms)


def histogram_view() -> "EpochCachedView[FeatureHistogram]":
    """The λ_max histogram of the index handed to its ``get`` (a whole
    index, or one shard), kept fresh against that index's epochs:
    touched label slices are refreshed, untouched ones kept."""
    return EpochCachedView(
        FeatureHistogram,
        lambda index, histogram, labels: histogram.refresh(index, labels),
    )


def shard_balance(index) -> dict:
    """Per-shard balance summary for a sharded index.

    Root-label affinity routes every document with the same root tag to
    one shard, so a corpus with few distinct roots can leave shards
    empty; the skew ratio makes that visible before it shows up as one
    hot shard dominating scatter-gather latency.

    Returns a dict with ``entries`` / ``documents`` (per-shard lists),
    ``empty_shards`` (ids with zero entries), and ``skew`` (max/min
    entry count; ``inf`` when some — but not all — shards are empty,
    ``1.0`` for a wholly empty index).
    """
    entries = [shard.entry_count for shard in index.shards]
    documents = [0] * len(entries)
    for shard_id in index.routing:
        if shard_id is not None:
            documents[shard_id] += 1
    empty_shards = [shard_id for shard_id, count in enumerate(entries) if count == 0]
    if not entries or not any(entries):
        skew = 1.0
    elif empty_shards:
        skew = math.inf
    else:
        skew = max(entries) / min(entries)
    return {
        "entries": entries,
        "documents": documents,
        "empty_shards": empty_shards,
        "skew": skew,
    }
