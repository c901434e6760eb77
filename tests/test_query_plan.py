"""Tests for query plans, the plan cache and pruning-phase accounting
(DESIGN.md §8)."""

from __future__ import annotations

import pytest

from repro.core import (
    AccessPath,
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    PlanCache,
    build_plan,
)
from repro.engine import NavigationalEngine
from repro.query import twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml

SITE_XML = (
    "<site><regions><asia>"
    "<item><name/><mailbox><mail><to/></mail></mailbox></item>"
    "<item><payment/><quantity/></item>"
    "</asia></regions><people>"
    "<person><name/><emailaddress/><phone/></person>"
    "</people></site>"
)


def site_store(documents: int = 4) -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for _ in range(documents):
        store.add_document(parse_xml(SITE_XML))
    return store


class TestPlanCache:
    def test_second_query_hits_the_cache(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index)
        first = processor.query("//item[name]/mailbox")
        second = processor.query("//item[name]/mailbox")
        assert not first.plan_cached
        assert second.plan_cached
        assert second.results == first.results
        assert processor.plan_cache.hits == 1

    def test_mutation_invalidates_cached_plans(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index)
        processor.query("//item[name]")
        doc_id = index.add_document(parse_xml(SITE_XML))
        refreshed = processor.query("//item[name]")
        assert not refreshed.plan_cached  # generation bumped -> replanned
        assert any(p.doc_id == doc_id for p in refreshed.results)
        index.remove_document(doc_id)
        assert not processor.query("//item[name]").plan_cached

    def test_sourceless_twigs_are_never_cached(self):
        import dataclasses

        index = FixIndex.build(site_store(1), FixIndexConfig(depth_limit=4))
        cache = PlanCache()
        plan = build_plan(index, twig_of("//item[name]"))
        cache.put(dataclasses.replace(plan, source=""))
        assert len(cache) == 0

    def test_cache_is_a_bounded_lru(self):
        index = FixIndex.build(site_store(1), FixIndexConfig(depth_limit=4))
        cache = PlanCache(capacity=2)
        for query in ["//item", "//person", "//item/mailbox"]:
            cache.put(build_plan(index, query))
        assert len(cache) == 2
        snapshot = index.epochs.current
        assert cache.get("//item", snapshot) is None  # evicted
        assert cache.get("//person", snapshot) is not None

    def test_cache_shared_between_processors(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        shared = PlanCache()
        first = FixQueryProcessor(index, plan_cache=shared)
        second = FixQueryProcessor(index, plan_cache=shared)
        first.query("//person[name]")
        assert second.query("//person[name]").plan_cached

    def test_disabled_cache_replans_every_time(self):
        index = FixIndex.build(site_store(1), FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index, plan_cache=False)
        processor.query("//item")
        assert not processor.query("//item").plan_cached


class TestPruningPhaseAccounting:
    def test_rooted_query_candidates_match_prune_output(self):
        # Satellite: the non-root-candidate filter for '/'-rooted queries
        # on depth-limited indexes runs *inside* the pruning phase, so on
        # the index scan candidate_count == len(prune()) and the
        # false-positive count never goes negative.  (An explicit refiner
        # keeps the query on the index scan.)
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(
            index, refiner=NavigationalEngine(index.store)
        )
        twig = twig_of("/site/people")
        candidates = processor.prune(twig)
        assert candidates  # the roots survive
        assert all(e.pointer.node_id == 0 for e in candidates)
        result = processor.query(twig)
        assert result.access_path is AccessPath.INDEX_SCAN
        assert result.candidate_count == len(candidates)
        assert result.false_positive_count >= 0
        assert result.result_count <= result.candidate_count
        # A structure scan judges the documents' roots: one candidate
        # per document, the same answer.
        scanned = FixQueryProcessor(index).query(twig)
        assert scanned.access_path is AccessPath.STRUCTURE_SCAN
        assert scanned.candidate_count == index.store.document_count
        assert scanned.results == result.results

    def test_intersection_matches_naive_reference(self):
        # Satellite: the incremental most-selective-first intersection
        # must produce exactly the naive all-fragments intersection.
        store = PrimaryXMLStore()
        for i in range(8):
            extra = "<keywords/>" if i % 2 else ""
            body = "<section><figure/></section>" if i % 3 else "<section/>"
            store.add_document(
                parse_xml(
                    f"<article><prolog>{extra}</prolog>"
                    f"<body>{body}</body></article>"
                )
            )
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        processor = FixQueryProcessor(index)
        twig = twig_of("//article[.//figure][.//keywords]")
        plan = processor.plan_for(twig)
        assert len(plan.fragments) > 1
        naive = None
        for key, anchored in zip(plan.feature_keys, plan.anchored):
            pointers = {
                e.pointer
                for e in index.candidates_for_key(key, anchored=anchored)
            }
            naive = pointers if naive is None else naive & pointers
        assert {e.pointer for e in processor.prune(twig)} == naive
