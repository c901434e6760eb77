"""Ablation: B-tree range scan vs R-tree dominance query (the paper's
Section 8 future work — "move the index to R-tree ... to gain further
pruning power" — implemented in :mod:`repro.spatial`).

Both return identical candidates (same predicate), and the R-tree has
no pruning power to add: ranges are symmetric (``λ_min == -λ_max``,
:mod:`repro.spectral.eigen`), so the λ_max bound an anchored B-tree
scan starts at implies the λ_min bound too — the scanned range *is* the
candidate set, which the report below asserts.  (Harness corpora, one
pass of 45 Treebank-shaped fragment scans: 70,967 B-tree entries
visited, 70,967 returned; the R-tree inspects 71,101 for the same.)
"""

from __future__ import annotations

import pytest

from repro.bench.paper_queries import TABLE2_QUERIES
from repro.bench.reporting import format_table
from repro.query import twig_of
from repro.spatial import SpatialFeatureIndex


@pytest.fixture(scope="module")
def spatial_indexes(unclustered_indexes):
    return {
        name: SpatialFeatureIndex(index)
        for name, index in unclustered_indexes.items()
        if name in ("xmark", "treebank", "dblp")
    }


_QUERIES = [(d, s, q) for d, s, q in TABLE2_QUERIES if d != "xbench"]


@pytest.mark.parametrize(
    "dataset, selectivity, query", _QUERIES, ids=[f"{d}_{s}" for d, s, _ in _QUERIES]
)
def test_rtree_backend(benchmark, dataset, selectivity, query, unclustered_indexes, spatial_indexes):
    """Time the R-tree candidate scan for one representative query."""
    index = unclustered_indexes[dataset]
    spatial = spatial_indexes[dataset]
    key = index.query_features(twig_of(query))
    candidates = benchmark(lambda: list(spatial.candidates_for_key(key)))
    # Identical answers to the B-tree scan.
    assert {e.pointer for e in candidates} == {
        e.pointer for e in index.candidates_for_key(key)
    }


def test_rtree_ablation_report(benchmark, unclustered_indexes, spatial_indexes):
    """Per-query work comparison: entries inspected by each structure."""

    def run():
        rows = []
        for dataset, selectivity, query in _QUERIES:
            index = unclustered_indexes[dataset]
            spatial = spatial_indexes[dataset]
            key = index.query_features(twig_of(query))
            # B-tree work: every entry in the lambda_max-suffix scan of
            # the label's range is compared against the two thresholds.
            candidates = 0
            before = index.btree.stats.snapshot()
            for _ in index.candidates_for_key(key):
                candidates += 1
            leaf_scans = index.btree.stats.delta(before).leaf_scans
            threshold = key.range.lmax - index.config.guard_band
            btree_inspected = sum(
                1
                for stored in (e.key for e in index.iter_entries())
                if stored.root_label == key.root_label
                and stored.range.lmax >= threshold
            )
            spatial.reset_stats()
            list(spatial.candidates_for_key(key))
            rows.append(
                (
                    f"{dataset}_{selectivity}",
                    candidates,
                    btree_inspected,
                    spatial.entries_inspected(),
                    leaf_scans,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["query", "cdt", "B-tree entries", "R-tree entries", "B-tree leaves"],
            rows,
            title="R-tree ablation: entries inspected per structure",
        )
    )
    for _, candidates, btree_inspected, rtree_inspected, _ in rows:
        # These indexes are depth-limited, so every scan is anchored:
        # the B-tree's suffix scan rejects nothing, and the R-tree
        # cannot inspect fewer entries than it returns.
        assert btree_inspected == candidates
        assert rtree_inspected >= candidates
