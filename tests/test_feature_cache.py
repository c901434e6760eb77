"""Tests for the cross-document spectral feature cache (DESIGN.md §8).

Covers the soundness contract: a warm (cached) build must produce keys
byte-identical to a cold (uncached) build; cache statistics must be
monotone and consistent; and the all-covering fallback — a cap artifact,
not a pattern feature — must never enter the cache.
"""

from __future__ import annotations

import random

import pytest

from repro.bisim import (
    PatternTable,
    bisim_graph_of_document,
    depth_limited_graph,
    reachable_vertices,
    vertex_signature,
)
from repro.core import FixIndex, FixIndexConfig
from repro.datasets import load_dataset
from repro.spectral import ALL_COVERING_RANGE, FeatureCache, FeatureKey, FeatureRange
from repro.spectral.cache import pattern_signature
from repro.storage import PrimaryXMLStore
from repro.xmltree import Document, Element, parse_xml


def dblp_like_store(documents: int = 4, scale: float = 0.01) -> PrimaryXMLStore:
    """Several DBLP-like slices: the regular, repetitive shape the cache
    is built for."""
    store = PrimaryXMLStore()
    for offset in range(documents):
        for document in load_dataset("dblp", scale=scale, seed=91 + offset).documents:
            store.add_document(document)
    return store


def entry_keys(index: FixIndex) -> list[tuple[bytes, bytes]]:
    return [(key, value) for key, value in index.btree.items()]


class TestWarmEqualsCold:
    def test_cached_build_keys_identical_to_uncached(self):
        store = dblp_like_store()
        cold = FixIndex.build(
            store, FixIndexConfig(depth_limit=6, feature_cache=False)
        )
        warm = FixIndex.build(
            store, FixIndexConfig(depth_limit=6, feature_cache=True)
        )
        assert entry_keys(cold) == entry_keys(warm)
        # The corpus repeats structures across documents, so the cache
        # must actually have been exercised, not just harmless.
        assert warm.report.stats.cache_hits > 0
        assert (
            warm.report.stats.eigen_computations
            < cold.report.stats.eigen_computations
        )

    def test_cached_build_keys_identical_with_values(self):
        store = dblp_like_store(documents=2)
        config = dict(depth_limit=6, value_buckets=16)
        cold = FixIndex.build(
            store, FixIndexConfig(feature_cache=False, **config)
        )
        warm = FixIndex.build(
            store, FixIndexConfig(feature_cache=True, **config)
        )
        assert entry_keys(cold) == entry_keys(warm)

    def test_unit_mode_cache_shares_across_identical_documents(self):
        # depth_limit=0: one unit entry per document; identical documents
        # must collapse to one eigen computation.
        store = PrimaryXMLStore()
        for _ in range(5):
            store.add_document(
                parse_xml("<bib><article><title/><author/></article></bib>")
            )
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=0, feature_cache=True)
        )
        assert index.report.stats.eigen_computations == 1
        assert index.report.stats.cache_hits == 4


class TestCacheStats:
    def test_stats_monotone_and_consistent(self):
        store = dblp_like_store(documents=3)
        generatorless_hits = 0
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=6, feature_cache=True)
        )
        stats = index.report.stats
        assert stats.cache_hits > generatorless_hits
        assert stats.cache_misses > 0
        # Every miss that succeeded became an eigen computation; the
        # oversized fallbacks account for the remainder.
        assert stats.eigen_computations + stats.oversized_patterns == (
            stats.cache_misses
        )
        cache = index.feature_cache
        assert cache is not None
        assert cache.hits == stats.cache_hits
        assert cache.misses == stats.cache_misses
        assert len(cache) == stats.eigen_computations

    def test_lookup_counts_hits_and_misses(self):
        cache = FeatureCache()
        key = FeatureKey("a", FeatureRange(-1.0, 1.0))
        assert cache.lookup(b"sig") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.store(b"sig", key)
        assert cache.lookup(b"sig") is key
        assert (cache.hits, cache.misses) == (1, 1)
        assert b"sig" in cache and len(cache) == 1

    def test_disabled_cache_reports_zero(self):
        store = dblp_like_store(documents=2)
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=6, feature_cache=False)
        )
        assert index.feature_cache is None
        assert index.report.stats.cache_hits == 0
        assert index.report.stats.cache_misses == 0


class TestAllCoveringNeverCached:
    def test_store_rejects_all_covering(self):
        cache = FeatureCache()
        with pytest.raises(ValueError):
            cache.store(b"sig", FeatureKey("a", ALL_COVERING_RANGE))

    def test_oversized_fallbacks_bypass_cache(self):
        # A pattern over the vertex cap falls back to the all-covering
        # range; the cache must stay empty and every repeat must re-miss.
        store = PrimaryXMLStore()
        for _ in range(2):
            store.add_document(parse_xml(
                "<root>" + "".join(
                    f"<kid{i}><leaf/></kid{i}>" for i in range(12)
                ) + "</root>"
            ))
        index = FixIndex.build(
            store,
            FixIndexConfig(
                depth_limit=4, feature_cache=True, max_pattern_vertices=4
            ),
        )
        stats = index.report.stats
        assert stats.oversized_patterns > 0
        cache = index.feature_cache
        assert cache is not None
        for key in cache._entries.values():
            assert not key.range.is_all_covering()
        # Fallbacks still produce entries keyed by the artificial range.
        fallback_entries = [
            entry for entry in index.iter_entries()
            if entry.key.range.is_all_covering()
        ]
        assert fallback_entries


class TestDepthSignature:
    """The cache key of a depth-limited pattern is its root's signature
    in the document's pattern table: it must not depend on what else the
    table holds, and must name the pattern's structure and nothing else."""

    LABELS = "abcd"

    def _random_tree(self, rng: random.Random, depth: int) -> Element:
        element = Element(rng.choice(self.LABELS))
        if depth > 0:
            for _ in range(rng.randint(0, 3)):
                element.append(self._random_tree(rng, depth - 1))
        return element

    def test_matches_unfolded_signature_on_random_trees(self):
        rng = random.Random(5)
        for _ in range(25):
            document = Document(self._random_tree(rng, 5))
            graph = bisim_graph_of_document(document)
            table = PatternTable()
            memo: dict[int, bytes] = {}
            for vertex in reachable_vertices(graph.root):
                for limit in (1, 2, 3, 6):
                    shared = vertex_signature(table.pattern(vertex, limit).root, memo)
                    alone = depth_limited_graph(vertex, limit)
                    assert shared == pattern_signature(alone)

    def test_truncation_merges_children(self):
        # Two children that differ only below the cut must collapse to
        # one digest — the set-dedup that re-minimization performs.
        document = Document(
            parse_xml("<r><a><x><y/></x></a><a><x><z/></x></a></r>").root
        )
        graph = bisim_graph_of_document(document)
        # At depth 2 the two <a> subtrees look identical (both childless).
        assert pattern_signature(
            depth_limited_graph(graph.root, 2)
        ) == pattern_signature(bisim_graph_of_document(parse_xml("<r><a/></r>")))

    def test_unlimited_depth_equals_vertex_signature(self):
        document = Document(parse_xml("<r><a><b/></a><c/></r>").root)
        graph = bisim_graph_of_document(document)
        assert pattern_signature(
            depth_limited_graph(graph.root, 0)
        ) == vertex_signature(graph.root)
