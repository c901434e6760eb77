"""Tests for the navigational and structural-join engines and the F&B
index: each must agree with the brute-force ground truth on arbitrary
generated documents and queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NavigationalEngine, StructuralJoinEngine
from repro.fb import FBEvaluator, FBIndex, fb_partition
from repro.query import matching_elements, twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import Document, Element, parse_xml

BIB = (
    "<bib>"
    "<article><author><email/></author><title/><year>1998</year></article>"
    "<article><author><email/><phone/></author><title/></article>"
    "<book><author><phone/></author><title/></book>"
    "</bib>"
)

QUERIES = [
    "//article/author/email",
    "//article[title]/author",
    "//author[phone][email]",
    "//bib//phone",
    "//bib[.//email]/book",
    "/bib/article/title",
    "//missing",
    "//article[isbn]",
    '//article[year = "1998"]/title',
]


def store_with(*sources: str) -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in sources:
        store.add_document(parse_xml(source))
    return store


# --------------------------------------------------------------------- #
# Random documents and queries for property tests
# --------------------------------------------------------------------- #

_LABELS = ["a", "b", "c", "d"]


@st.composite
def random_documents(draw) -> Document:
    """Small random trees over a 4-label alphabet (recursion included)."""
    node_budget = draw(st.integers(min_value=1, max_value=25))
    root = Element(draw(st.sampled_from(_LABELS)))
    open_nodes = [root]
    for _ in range(node_budget):
        parent = draw(st.sampled_from(open_nodes))
        child = parent.add_element(draw(st.sampled_from(_LABELS)))
        open_nodes.append(child)
        if len(open_nodes) > 6:
            open_nodes.pop(0)
    return Document(root)


@st.composite
def random_twigs(draw) -> str:
    """Random query text over the same alphabet: short paths with
    optional predicates and descendant axes."""
    parts = ["//" if draw(st.booleans()) else "/", draw(st.sampled_from(_LABELS))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            parts.append(f"[{draw(st.sampled_from(_LABELS))}]")
        parts.append(draw(st.sampled_from(["/", "//"])))
        parts.append(draw(st.sampled_from(_LABELS)))
    text = "".join(parts)
    return text if not text.endswith(("/", "//")) else text + "a"


class TestNavigationalEngine:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_ground_truth_on_bib(self, query):
        store = store_with(BIB)
        engine = NavigationalEngine(store)
        twig = twig_of(query)
        expected = {
            e.node_id for e in matching_elements(twig, store.get_document(0))
        }
        got = {p.node_id for p in engine.evaluate(twig)}
        assert got == expected

    def test_multiple_documents(self):
        store = store_with(BIB, "<bib><book><author><phone/></author></book></bib>")
        engine = NavigationalEngine(store)
        results = engine.evaluate(twig_of("//author[phone]"))
        assert {p.doc_id for p in results} == {0, 1}

    def test_refine_accepts_true_candidate(self):
        store = store_with(BIB)
        engine = NavigationalEngine(store)
        doc = store.get_document(0)
        article = next(doc.root.find_all("article"))
        twig = twig_of("//article[title]/author").with_child_leading_axis()
        assert engine.refine(twig, article)

    def test_refine_rejects_false_candidate(self):
        store = store_with(BIB)
        engine = NavigationalEngine(store)
        doc = store.get_document(0)
        book = next(doc.root.find_all("book"))
        twig = twig_of("//book/author/email").with_child_leading_axis()
        assert not engine.refine(twig, book)

    def test_stats_accumulate(self):
        store = store_with(BIB)
        engine = NavigationalEngine(store)
        engine.evaluate(twig_of("//author/email"))
        assert engine.stats.elements_scanned > 0
        assert engine.stats.verifications > 0

    @settings(max_examples=60, deadline=None)
    @given(random_documents(), random_twigs())
    def test_property_equals_ground_truth(self, document, query):
        store = PrimaryXMLStore()
        store.add_document(document)
        engine = NavigationalEngine(store)
        twig = twig_of(query)
        expected = {e.node_id for e in matching_elements(twig, document)}
        got = {p.node_id for p in engine.evaluate(twig)}
        assert got == expected


class TestStructuralJoinEngine:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_ground_truth_on_bib(self, query):
        store = store_with(BIB)
        engine = StructuralJoinEngine(store)
        twig = twig_of(query)
        expected = {
            e.node_id for e in matching_elements(twig, store.get_document(0))
        }
        got = {p.node_id for p in engine.evaluate(twig)}
        assert got == expected

    def test_join_counter(self):
        store = store_with(BIB)
        engine = StructuralJoinEngine(store)
        engine.evaluate(twig_of("//article/author/email"))
        assert engine.joins_performed >= 2

    def test_evaluate_elements_resolves(self):
        store = store_with(BIB)
        engine = StructuralJoinEngine(store)
        elements = engine.evaluate_elements(
            twig_of("//author[phone]"), store.get_document(0)
        )
        assert all(e.tag == "author" for e in elements)
        assert len(elements) == 2

    @settings(max_examples=60, deadline=None)
    @given(random_documents(), random_twigs())
    def test_property_equals_ground_truth(self, document, query):
        store = PrimaryXMLStore()
        store.add_document(document)
        engine = StructuralJoinEngine(store)
        twig = twig_of(query)
        expected = {e.node_id for e in matching_elements(twig, document)}
        got = {p.node_id for p in engine.evaluate(twig)}
        assert got == expected


class TestFBPartition:
    def test_regular_siblings_merge(self):
        doc = parse_xml("<r><x><y/></x><x><y/></x><x><y/></x></r>")
        blocks = set(fb_partition(doc).values())
        assert len(blocks) == 3  # r, x, y

    def test_backward_direction_splits(self):
        # Both `c` leaves have identical subtrees, but different parents
        # (a vs b), so F&B keeps them apart — unlike plain bisimulation.
        doc = parse_xml("<r><a><c/></a><b><c/></b></r>")
        assignment = fb_partition(doc)
        c_blocks = {
            assignment[e.node_id] for e in doc.root.find_all("c")
        }
        assert len(c_blocks) == 2

    def test_forward_direction_splits(self):
        doc = parse_xml("<r><a><x/></a><a><y/></a></r>")
        assignment = fb_partition(doc)
        a_blocks = {assignment[e.node_id] for e in doc.root.find_all("a")}
        assert len(a_blocks) == 2

    def test_incompressible_authors_from_paper_intro(self):
        # The paper's Figure 1 argument: every author has a different
        # parent or child set, so F&B keeps them all singleton.
        doc = parse_xml(
            "<bib>"
            "<article><author><address/><email/></author></article>"
            "<book><author><affiliation/></author></book>"
            "<www><author><email/></author></www>"
            "</bib>"
        )
        assignment = fb_partition(doc)
        author_blocks = {
            assignment[e.node_id] for e in doc.root.find_all("author")
        }
        assert len(author_blocks) == 3

    def test_text_nodes_optional(self):
        doc = parse_xml("<a><b>x</b><b>y</b></a>")
        without = fb_partition(doc)
        assert len(without) == doc.element_count()
        with_text = fb_partition(doc, text_label=lambda value: f"#{value}")
        assert len(with_text) == doc.node_count()


class TestFBIndex:
    def test_block_tree_structure(self):
        doc = parse_xml("<r><x><y/></x><x><y/></x></r>")
        index = FBIndex(doc)
        assert index.block_count() == 3
        assert index.root.label == "r"
        assert index.root.extent == [doc.root.node_id]

    def test_extents_partition_elements(self):
        doc = parse_xml(BIB)
        index = FBIndex(doc)
        total = sum(block.extent_size() for block in index.blocks)
        assert total == doc.element_count()

    def test_size_bytes_positive(self):
        doc = parse_xml(BIB)
        assert FBIndex(doc).size_bytes() > 0

    @pytest.mark.parametrize("query", QUERIES[:-1])  # value query separate
    def test_evaluator_matches_ground_truth(self, query):
        doc = parse_xml(BIB)
        index = FBIndex(doc)
        evaluator = FBEvaluator(index)
        twig = twig_of(query)
        expected = sorted(e.node_id for e in matching_elements(twig, doc))
        assert evaluator.evaluate(twig) == expected

    def test_value_query_needs_text_blocks(self):
        doc = parse_xml(BIB)
        twig = twig_of('//article[year = "1998"]/title')
        plain = FBEvaluator(FBIndex(doc))
        assert plain.evaluate(twig) == []  # no text blocks -> cannot cover
        hashed = FBEvaluator(FBIndex(doc, text_label=lambda v: f"#{hash(v) % 4}"))
        expected = sorted(e.node_id for e in matching_elements(twig, doc))
        got = hashed.evaluate(twig)
        # With hashing the answer is a superset (collisions possible).
        assert set(expected) <= set(got)

    @settings(max_examples=60, deadline=None)
    @given(random_documents(), random_twigs())
    def test_property_covering(self, document, query):
        """F&B is a covering index: block-level evaluation equals the
        ground truth exactly (no refinement)."""
        index = FBIndex(document)
        evaluator = FBEvaluator(index)
        twig = twig_of(query)
        expected = sorted(e.node_id for e in matching_elements(twig, document))
        assert evaluator.evaluate(twig) == expected
