"""Tests for incremental index maintenance (add / remove documents)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordError, StorageError
from repro.core import FixIndex, FixIndexConfig, FixQueryProcessor, evaluate_pruning
from repro.query import query_matches_document, twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import Document, Element, parse_xml

DOCS = [
    "<bib><article><author><email/></author><title/></article></bib>",
    "<bib><book><author><phone/></author><title/></book></bib>",
    "<bib><www><title/></www></bib>",
]


def fresh_index(depth_limit: int = 0) -> FixIndex:
    store = PrimaryXMLStore()
    for source in DOCS:
        store.add_document(parse_xml(source))
    return FixIndex.build(store, FixIndexConfig(depth_limit=depth_limit))


def rebuild_equivalent(index: FixIndex) -> FixIndex:
    """Rebuild from scratch over the index's current live documents."""
    store = PrimaryXMLStore()
    for doc_id in index.store.doc_ids():
        source_doc = index.store.get_document(doc_id)
        store.add_document(parse_xml_of(source_doc))
    return FixIndex.build(store, index.config)


def parse_xml_of(document: Document) -> Document:
    from repro.xmltree import serialize_fragment

    return parse_xml(serialize_fragment(document.root))


class TestAddDocument:
    def test_new_document_becomes_queryable(self):
        index = fresh_index()
        new_doc = parse_xml(
            "<bib><inproceedings><author><affiliation/></author></inproceedings></bib>"
        )
        doc_id = index.add_document(new_doc)
        processor = FixQueryProcessor(index)
        result = processor.query("//inproceedings/author/affiliation")
        assert {p.doc_id for p in result.results} == {doc_id}

    def test_entry_count_grows(self):
        index = fresh_index()
        before = index.entry_count
        index.add_document(parse_xml("<bib><misc/></bib>"))
        assert index.entry_count == before + 1  # collection: 1 entry/doc

    def test_subpattern_mode_adds_one_entry_per_element(self):
        index = fresh_index(depth_limit=3)
        before = index.entry_count
        new_doc = parse_xml("<bib><article><title/></article></bib>")
        index.add_document(new_doc)
        assert index.entry_count == before + new_doc.element_count()

    def test_existing_results_unchanged(self):
        index = fresh_index()
        processor = FixQueryProcessor(index)
        before = {p.doc_id for p in processor.query("//author").results}
        index.add_document(parse_xml("<bib><unrelated/></bib>"))
        after = {p.doc_id for p in processor.query("//author").results}
        assert before == after

    @pytest.mark.parametrize("depth_limit", [0, 2, 3])
    def test_an_add_with_new_edge_labels_is_a_rebuild(self, depth_limit):
        """A staged add walks its document like a build does, seeding
        the encoder in preorder, so new edge labels get the codes — and
        the B-tree the entries — a from-scratch build of the same
        documents gives."""
        index = fresh_index(depth_limit)
        index.add_document(
            parse_xml("<bib><misc><note><url/></note><isbn/></misc><cite><url/></cite></bib>")
        )
        rebuilt = rebuild_equivalent(index)
        assert list(index.encoder.to_dict().items()) == list(
            rebuilt.encoder.to_dict().items()
        )
        assert sorted(index.btree.items()) == sorted(rebuilt.btree.items())

    def test_clustered_rejects_mutation(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml(DOCS[0]))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0, clustered=True))
        with pytest.raises(StorageError):
            index.add_document(parse_xml(DOCS[1]))
        with pytest.raises(StorageError):
            index.remove_document(0)


class TestRemoveDocument:
    def test_removed_document_stops_matching(self):
        index = fresh_index()
        processor = FixQueryProcessor(index)
        assert {p.doc_id for p in processor.query("//book").results} == {1}
        removed = index.remove_document(1)
        assert removed == 1
        assert processor.query("//book").results == []

    def test_entry_count_shrinks(self):
        index = fresh_index(depth_limit=3)
        document = index.store.get_document(0)
        before = index.entry_count
        removed = index.remove_document(0)
        assert removed == document.element_count()
        assert index.entry_count == before - removed

    def test_report_btree_bytes_refreshed(self):
        # The report must track the B-tree it describes after removals,
        # exactly as add_document refreshes it.
        index = fresh_index(depth_limit=3)
        before = index.report.btree_bytes
        assert before == index.btree.size_bytes()
        removed = index.remove_document(0)
        assert removed > 0
        assert index.report.btree_bytes == index.btree.size_bytes()
        assert index.report.btree_bytes <= before

    def test_store_tombstone(self):
        index = fresh_index()
        index.remove_document(2)
        assert index.store.document_count == 2
        assert list(index.store.doc_ids()) == [0, 1]
        with pytest.raises(RecordError):
            index.store.get_document(2)

    def test_double_remove_raises(self):
        index = fresh_index()
        index.remove_document(0)
        with pytest.raises(RecordError):
            index.remove_document(0)

    def test_metrics_after_removal(self):
        index = fresh_index()
        index.remove_document(0)
        metrics = evaluate_pruning(index, "//book[title]")
        assert metrics.ent == index.entry_count == 2
        assert metrics.false_negatives == 0


class TestAddRemoveChurn:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
    def test_churn_preserves_query_correctness(self, operations):
        """Random interleavings of add/remove must keep query results
        equal to brute-force over the live documents."""
        index = fresh_index(depth_limit=3)
        live = {0, 1, 2}
        next_shape = 0
        shapes = [
            "<bib><article><x{}/></article></bib>",
            "<bib><book><y{}/></book></bib>",
        ]
        for op in operations:
            if op <= 1 or not live:
                shape = shapes[op % 2].format(next_shape % 3)
                next_shape += 1
                live.add(index.add_document(parse_xml(shape)))
            else:
                victim = sorted(live)[op % len(live)]
                index.remove_document(victim)
                live.discard(victim)
        processor = FixQueryProcessor(index)
        for query in ("//article", "//book", "//author", "//title"):
            twig = twig_of(query)
            expected = {
                doc_id
                for doc_id in index.store.doc_ids()
                if query_matches_document(twig, index.store.get_document(doc_id))
            }
            got = {p.doc_id for p in processor.query(twig).results}
            assert got == expected, query
        index.btree.check_invariants()
