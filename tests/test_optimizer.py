"""Tests for access-path selection (the Section 5 optimizer)."""

from __future__ import annotations

import pytest

from repro.core import FixIndex, FixIndexConfig, FixQueryProcessor
from repro.core.optimizer import (
    AccessPath,
    CostModel,
    QueryOptimizer,
    choose_access_path,
)
from repro.core.structure import StructureDag
from repro.engine import NavigationalEngine
from repro.query import matching_elements, twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml


def regular_store() -> PrimaryXMLStore:
    """A store where one label is everywhere (weak pruning) and another
    is rare (strong pruning)."""
    store = PrimaryXMLStore()
    parts = ["<db>"]
    for i in range(80):
        parts.append("<row><common/><common/></row>")
    parts.append("<row><rare><gem/></rare></row>")
    parts.append("</db>")
    store.add_document(parse_xml("".join(parts)))
    return store


@pytest.fixture()
def optimizer() -> QueryOptimizer:
    store = regular_store()
    index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
    return QueryOptimizer(index)


class TestPlanning:
    def test_selective_query_uses_index(self, optimizer):
        plan = optimizer.plan("//rare[gem]")
        # The index side; no value literal, so its structure DAG answers.
        assert plan.path is AccessPath.STRUCTURE_SCAN
        assert plan.covered
        assert plan.estimated_candidates < plan.total_units / 10

    def test_unselective_query_scans(self, optimizer):
        # `common` is ~2/3 of all entries; with a candidate 6x costlier
        # than a scan step, the index loses.
        plan = optimizer.plan("//common")
        assert plan.path is AccessPath.FULL_SCAN
        assert plan.covered
        assert "pruning too weak" in plan.reason

    def test_uncovered_query_scans(self, optimizer):
        plan = optimizer.plan("//db/row/rare/gem")  # depth 4 > limit 3
        assert plan.path is AccessPath.FULL_SCAN
        assert not plan.covered
        assert "not covered" in plan.reason

    def test_describe_mentions_decision(self, optimizer):
        text = optimizer.plan("//rare[gem]").describe()
        assert "plan: structure-scan" in text
        assert "structure DAG" in text
        assert "estimated candidates" in text

    def test_cost_model_can_flip_decision(self):
        store = regular_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        # Free candidates: the index always wins.
        greedy = QueryOptimizer(
            index, cost_model=CostModel(descent_cost=0.0, candidate_cost=0.0)
        )
        assert greedy.plan("//common").path is AccessPath.STRUCTURE_SCAN
        # Outrageously expensive candidates: the index always loses.
        frugal = QueryOptimizer(
            index, cost_model=CostModel(candidate_cost=10_000.0)
        )
        assert frugal.plan("//rare[gem]").path is AccessPath.FULL_SCAN

    def test_collection_estimate_uses_the_scan_anchoring(self):
        """On a collection index a ``//``-leading query scans every
        label, so the estimate must sum over labels too — 30 ``<bib>``
        units all hold an ``article[author]``, none is rooted there."""
        store = PrimaryXMLStore()
        for i in range(30):
            store.add_document(
                parse_xml(
                    "<bib>"
                    + "<article><author/><title/></article>" * (1 + i % 3)
                    + "</bib>"
                )
            )
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        optimizer = QueryOptimizer(index)
        plan, result = optimizer.execute("//article[author]")
        scanned = len(optimizer._processor.prune("//article[author]"))
        assert scanned == 30 and len(result.results) == 30
        assert scanned / 2 <= plan.estimated_candidates <= scanned * 2


class TestExecution:
    @pytest.mark.parametrize(
        "query",
        ["//rare[gem]", "//common", "//db/row/rare/gem", "//row[rare]"],
    )
    def test_both_paths_return_ground_truth(self, optimizer, query):
        plan, result = optimizer.execute(query)
        document = optimizer.index.store.get_document(0)
        twig = twig_of(query)
        expected = {e.node_id for e in matching_elements(twig, document)}
        got = {p.node_id for p in result.results}
        assert got == expected, plan.describe()

    def test_collection_mode_scan_returns_document_units(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b/><b/></a>"))
        store.add_document(parse_xml("<a><c/></a>"))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        # Force the full-scan path.
        optimizer = QueryOptimizer(
            index, cost_model=CostModel(candidate_cost=10_000.0)
        )
        plan, result = optimizer.execute("//b")
        assert plan.path is AccessPath.FULL_SCAN
        # One unit pointer per matching *document*, at its root.
        assert [(p.doc_id, p.node_id) for p in result.results] == [(0, 0)]


class TestTheRule:
    """``choose_access_path`` splits the index side into the structure
    scan and the index scan; the processor and the optimizer both
    apply it."""

    def test_values_and_an_explicit_refiner_keep_the_index_scan(self):
        valued = twig_of('//rare[gem = "x"]')
        structural = twig_of("//rare[gem]")
        assert choose_access_path(valued, False) is AccessPath.INDEX_SCAN
        assert choose_access_path(structural, True) is AccessPath.INDEX_SCAN
        assert choose_access_path(structural, False) is AccessPath.STRUCTURE_SCAN

    def test_optimizer_and_processor_agree(self):
        store = PrimaryXMLStore()
        for i in range(12):
            store.add_document(
                parse_xml(f"<db><row><rare><gem>{i % 3}</gem></rare></row></db>")
            )
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3, value_buckets=8))
        optimizer = QueryOptimizer(index, cost_model=CostModel(scan_cost=1e6))
        for query, path in [
            ("//rare[gem]", AccessPath.STRUCTURE_SCAN),
            ("/db/row", AccessPath.STRUCTURE_SCAN),
            ('//rare[gem = "1"]', AccessPath.INDEX_SCAN),
        ]:
            plan, result = optimizer.execute(query)
            assert plan.path is result.access_path is path, plan.describe()
            assert f"plan: {path.value}" in plan.describe()
        explicit = FixQueryProcessor(index, refiner=NavigationalEngine(store))
        assert explicit.query("//rare[gem]").access_path is AccessPath.INDEX_SCAN

    def test_planning_reads_no_structure(self, optimizer, monkeypatch):
        """``plan()`` runs outside any epoch pin, so it must not touch
        the DAG a writer may be changing; only the processor's pinned
        query collects candidate vertices."""

        def unpinned(*args):
            raise AssertionError("plan() read the structure DAG")

        for reader in ("extents", "carriers", "document_roots"):
            monkeypatch.setattr(StructureDag, reader, unpinned)
        for query in ["//rare[gem]", "//common", "/db/row", "//db/row/rare/gem"]:
            optimizer.plan(query)
