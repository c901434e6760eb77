"""Determinism tests for grouped and parallel refinement (DESIGN.md §8).

The refinement verdict for a candidate is a pure function of (query,
unit tree), so the final pointer-ordered result list must be identical
— element for element — for any worker count and for either refinement
engine, on every index variant.  The baseline is the serial processor,
itself checked against the ground-truth matcher.
"""

from __future__ import annotations

import pytest

from repro.core import AccessPath, FixIndex, FixIndexConfig, FixQueryProcessor
from repro.engine import NavigationalEngine, StructuralJoinEngine
from repro.query import matching_elements, query_matches_document, twig_of
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import parse_xml
from tests.test_structure_refine import index_scan_forced

WORKER_COUNTS = [1, 2, 4]

QUERIES = [
    "//item[name]/mailbox",
    "//item[payment][quantity]",
    "//person[emailaddress][phone]",
    "//item/mailbox/mail",
    "/site/people",
    "//item[missing]",
]


def varied_store(documents: int = 12) -> PrimaryXMLStore:
    """Structurally varied site documents so candidate groups span many
    documents and some candidates are false positives."""
    store = PrimaryXMLStore()
    for i in range(documents):
        mailbox = "<mailbox><mail><to/></mail></mailbox>" if i % 2 else ""
        payment = "<payment/><quantity/>" if i % 3 else "<payment/>"
        phone = "<phone/>" if i % 2 else ""
        store.add_document(
            parse_xml(
                "<site><regions><asia>"
                f"<item><name/>{mailbox}</item>"
                f"<item>{payment}</item>"
                "</asia></regions><people>"
                f"<person><name/><emailaddress/>{phone}</person>"
                "</people></site>"
            )
        )
    return store


def values_store(documents: int = 10) -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    publishers = ["Springer", "ACM", "Elsevier"]
    for i in range(documents):
        store.add_document(
            parse_xml(
                "<dblp><proceedings>"
                f"<publisher>{publishers[i % 3]}</publisher><title/>"
                "</proceedings></dblp>"
            )
        )
    return store


def assert_pointer_ordered(results) -> None:
    assert results == sorted(results)


def ground_truth(store: PrimaryXMLStore, query: str, depth_limit: int):
    """What the index must answer, from the matcher alone: every
    matching element on a depth-limited index, every matching document
    (as its root pointer) on a collection index."""
    twig = twig_of(query)
    truth = []
    for doc_id in store.doc_ids():
        document = store.get_document(doc_id)
        if depth_limit > 0:
            truth.extend(
                NodePointer(doc_id, element.node_id)
                for element in matching_elements(twig, document)
            )
        elif query_matches_document(twig, document):
            truth.append(NodePointer(doc_id, 0))
    return truth


class TestWorkerDeterminism:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(FixIndexConfig(depth_limit=4), id="depth-limited"),
            pytest.param(
                FixIndexConfig(depth_limit=4, clustered=True), id="clustered"
            ),
            pytest.param(FixIndexConfig(depth_limit=0), id="collection"),
        ],
    )
    def test_results_identical_for_any_worker_count(self, query, config):
        store = varied_store()
        index = FixIndex.build(store, config)
        baseline = FixQueryProcessor(index).query(query).results
        assert_pointer_ordered(baseline)
        assert baseline == ground_truth(store, query, config.depth_limit)
        for workers in WORKER_COUNTS:
            # Decided on the structure DAG, and by the navigational
            # engine over fetched trees (the path that fans out).
            for refiner in (None, NavigationalEngine(store)):
                result = FixQueryProcessor(
                    index, refiner=refiner, workers=workers
                ).query(query)
                assert result.results == baseline, (query, workers)
                assert_pointer_ordered(result.results)
                assert result.workers == workers

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_structural_join_refiner_parallel(self, workers):
        store = varied_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        baseline = FixQueryProcessor(
            index, refiner=StructuralJoinEngine(store)
        )
        parallel = FixQueryProcessor(
            index, refiner=StructuralJoinEngine(store), workers=workers
        )
        for query in QUERIES:
            assert (
                parallel.query(query).results == baseline.query(query).results
            ), query

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_value_extended_index_parallel(self, workers):
        store = values_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, value_buckets=16)
        )
        serial = FixQueryProcessor(index)
        parallel = FixQueryProcessor(index, workers=workers)
        for query in [
            '//proceedings[publisher = "Springer"][title]',
            '//proceedings[publisher = "Elsevier"]',
        ]:
            assert parallel.query(query).results == serial.query(query).results

    def test_collection_descendant_queries_parallel(self):
        # '//'-led queries on a collection index keep their leading '//'
        # at refinement (whole-document evaluation per group).
        store = varied_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        for query in ["//item[name]", "//person[.//phone]"]:
            baseline = FixQueryProcessor(index).query(query).results
            for workers in WORKER_COUNTS:
                got = FixQueryProcessor(index, workers=workers).query(query).results
                assert got == baseline, (query, workers)

    def test_custom_refiner_falls_back_to_in_process_grouping(self):
        # An engine the worker pool can't reconstruct still works — the
        # processor silently refines grouped but in-process.
        class WrappedEngine(StructuralJoinEngine):
            pass

        store = varied_store(6)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index, refiner=WrappedEngine(store), workers=4)
        baseline = FixQueryProcessor(index)
        for query in QUERIES[:3]:
            assert processor.query(query).results == baseline.query(query).results


class TestGroupedFetchAccounting:
    def test_grouped_fetches_each_document_once(self):
        store = varied_store(8)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index, refiner=NavigationalEngine(store))
        query = "//item[name]/mailbox"
        # One fetch per distinct candidate document, however many
        # candidates each document holds.
        candidate_docs = {e.pointer.doc_id for e in processor.prune(query)}
        opened_before = processor.refiner.stats.documents_opened
        result = processor.query(query)
        assert result.documents_fetched == len(candidate_docs)
        assert result.documents_fetched < result.candidate_count
        assert result.fetches_avoided == 0
        assert (
            processor.refiner.stats.documents_opened - opened_before
            == len(candidate_docs)
        )
        # Left to the structure DAG, the same query is a structure scan:
        # no refinement, so no tree fetched and none to avoid.
        default = FixQueryProcessor(index)
        scanned = default.query(query)
        assert scanned.results == result.results
        assert scanned.access_path is AccessPath.STRUCTURE_SCAN
        assert scanned.documents_fetched == scanned.fetches_avoided == 0
        # On the index scan the DAG decides every candidate: it fetches
        # none of them.
        with index_scan_forced():
            decided = default.query(query)
        assert decided.access_path is AccessPath.INDEX_SCAN
        assert decided.results == result.results
        assert decided.documents_fetched == 0
        assert decided.fetches_avoided == len(candidate_docs)

    def test_clustered_groups_count_copy_units(self):
        store = varied_store(8)
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=True)
        )
        result = FixQueryProcessor(
            index, refiner=NavigationalEngine(store)
        ).query("//item[name]")
        # Clustered candidates refine against their own copy unit.
        assert result.documents_fetched == result.candidate_count
