"""An R-tree view of a FIX index's feature keys (Section 8 future work).

Wraps one bulk-loaded R-tree per root label over the ``(λ_min, λ_max)``
points of a built :class:`~repro.core.index.FixIndex`.  It is an
ablation, not a query path: the candidates it returns are *identical*
to the B-tree scan's (both implement the Section 3.4 containment
predicate exactly, with the same guard band), and it has no work to
save.  The pattern matrices are real anti-symmetric, so every stored
and every query range has ``λ_min == -λ_max`` bit for bit
(:mod:`repro.spectral.eigen`): the points lie on one line, containment
is a single threshold on λ_max, and the B-tree's anchored scan — which
starts at that threshold — visits exactly the candidates.  On the
harness's Treebank-shaped corpus the 45 fragment scans of a query pass
visit 70,967 B-tree entries and return 70,967; the R-tree inspects
71,101 leaf entries to return the same ones.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.core.index import FixIndex, IndexEntry
from repro.spectral import FeatureKey
from repro.spatial.rtree import Rect, RTree


class SpatialFeatureIndex:
    """Per-label R-trees over a FIX index's feature points."""

    def __init__(self, index: FixIndex, max_entries: int = 16) -> None:
        # Nothing of ``index`` is kept but its entries and guard band:
        # the index caches this view, and a view pointing back would
        # put both in a reference cycle.
        self._guard = index.config.guard_band
        self._trees: dict[str, RTree] = {}
        self._all_covering: dict[str, list[IndexEntry]] = {}
        grouped: dict[str, list[tuple[Rect, IndexEntry]]] = {}
        for entry in index.iter_entries():
            key = entry.key
            if key.range.is_all_covering():
                # Infinite rectangles poison R-tree bounds; keep the
                # (rare) all-covering entries aside and always return
                # them, mirroring the B-tree's behaviour.
                self._all_covering.setdefault(key.root_label, []).append(entry)
                continue
            point = Rect.point(key.range.lmin, key.range.lmax)
            grouped.setdefault(key.root_label, []).append((point, entry))
        for label, entries in grouped.items():
            self._trees[label] = RTree.bulk_load(
                entries, max_entries=max_entries
            )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def candidates_for_key(
        self, query_key: FeatureKey, anchored: bool = True
    ) -> Iterator[IndexEntry]:
        """Same contract as :meth:`FixIndex.candidates_for_key`.

        ``anchored=False`` drops the root-label condition and runs the
        dominance query against every label's tree (collection-mode
        ``//`` queries, where the query root can bind below unrelated
        unit roots).
        """
        # Containment with the guard band: indexed λ_min <= q_min + g
        # and indexed λ_max >= q_max - g.
        qx = query_key.range.lmin + self._guard
        qy = query_key.range.lmax - self._guard
        if math.isinf(qy):  # degenerate all-covering query key
            qy = -math.inf
        if anchored:
            label = query_key.root_label
            trees = [self._trees[label]] if label in self._trees else []
            covering = [self._all_covering.get(label, [])]
        else:
            trees = [self._trees[label] for label in sorted(self._trees)]
            covering = [
                self._all_covering[label] for label in sorted(self._all_covering)
            ]
        for tree in trees:
            for entry in tree.search_dominating(qx, qy):
                yield entry  # type: ignore[misc]
        for entries in covering:
            yield from entries

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def entries_inspected(self) -> int:
        """Total leaf entries looked at across all queries so far."""
        return sum(tree.entries_inspected for tree in self._trees.values())

    def nodes_visited(self) -> int:
        """Total tree nodes visited across all queries so far."""
        return sum(tree.nodes_visited for tree in self._trees.values())

    def reset_stats(self) -> None:
        """Zero all work counters."""
        for tree in self._trees.values():
            tree.reset_stats()

    def labels(self) -> list[str]:
        """Labels with at least one finite-range entry."""
        return sorted(self._trees)
