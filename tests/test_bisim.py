"""Unit tests for bisimulation-graph construction, the traveler, and DAG
utilities.  These pin down the Section 2.2 semantics, including the
paper's own worked example (Figure 2)."""

from __future__ import annotations

import random
import time

import pytest

from repro.errors import BisimulationError, PatternTooLargeError
from repro.bisim import (
    BisimGraphBuilder,
    BisimVertex,
    PatternTable,
    bisim_graph_of_document,
    canonical_key,
    depth_limited_graph,
    edge_count,
    graphs_isomorphic,
    reachable_vertices,
    topological_order,
    vertex_signature,
)
from repro.xmltree import Document, Element, parse_xml

# The Figure 1 bibliography document.  Its bisimulation graph (Figure 2)
# merges the book and inproceedings authors (both have only an
# affiliation child) while keeping the two article authors separate.
FIGURE1_XML = (
    "<bib>"
    "<article><author><address/><email/></author><title/></article>"
    "<article><author><email/><affiliation/></author><title/></article>"
    "<book><author><affiliation/><phone/></author><title/></book>"
    "<www><title/><author><email/></author></www>"
    "<inproceedings><author><affiliation/><phone/></author><title/></inproceedings>"
    "</bib>"
)


def graph_of(xml: str, **kwargs):
    return bisim_graph_of_document(parse_xml(xml), **kwargs)


class TestBasicConstruction:
    def test_single_element(self):
        graph = graph_of("<a/>")
        assert graph.vertex_count() == 1
        assert graph.root.label == "a"
        assert graph.root.is_leaf()
        assert graph.depth() == 1

    def test_identical_siblings_merge(self):
        graph = graph_of("<a><b/><b/><b/></a>")
        assert graph.vertex_count() == 2
        assert graph.root.out_degree() == 1
        assert graph.root.children[0].extent_size == 3

    def test_distinct_subtrees_stay_separate(self):
        graph = graph_of("<a><b><c/></b><b><d/></b></a>")
        # a, b[c], b[d], c, d -> 5 classes
        assert graph.vertex_count() == 5
        labels = sorted(v.label for v in graph.vertices)
        assert labels == ["a", "b", "b", "c", "d"]

    def test_merging_is_by_child_set_not_multiset(self):
        # <b><c/><c/></b> and <b><c/></b> have the same child *set* {c},
        # so downward bisimulation merges them.
        graph = graph_of("<a><b><c/><c/></b><b><c/></b></a>")
        assert graph.vertex_count() == 3

    def test_depth_matches_tree_depth_for_trees_without_sharing(self):
        doc = parse_xml("<a><b><c><d/></c></b></a>")
        graph = bisim_graph_of_document(doc)
        assert graph.depth() == doc.max_depth() == 4

    def test_extent_sizes_sum_to_element_count(self):
        doc = parse_xml(FIGURE1_XML)
        graph = bisim_graph_of_document(doc)
        assert sum(v.extent_size for v in graph.vertices) == doc.element_count()

    def test_recorded_extents_are_preorder_ids(self):
        doc = parse_xml("<a><b/><b/></a>")
        graph = bisim_graph_of_document(doc, record_extents=True)
        b_vertex = next(v for v in graph.vertices if v.label == "b")
        ids = sorted(e.node_id for e in doc.root.find_all("b"))
        assert sorted(b_vertex.extent) == ids


class TestFigure2Example:
    """The paper's Figure 1 -> Figure 2 construction."""

    def test_figure2_has_fifteen_vertices(self):
        # Figure 2's caption-level claim: the example matrix is 15x15
        # "because there are 15 vertices in the graph".
        graph = graph_of(FIGURE1_XML)
        assert graph.vertex_count() == 15

    def test_book_and_inproceedings_authors_merge(self):
        # Section 2.2: "the bisimulation graph clusters the two author
        # vertices from book and inproceedings into one equivalence class".
        graph = graph_of(FIGURE1_XML)
        author_classes = [v for v in graph.vertices if v.label == "author"]
        assert len(author_classes) == 4
        merged = next(
            v
            for v in author_classes
            if frozenset(c.label for c in v.children) == {"affiliation", "phone"}
        )
        assert merged.extent_size == 2

    def test_all_title_leaves_merge(self):
        graph = graph_of(FIGURE1_XML)
        titles = [v for v in graph.vertices if v.label == "title"]
        assert len(titles) == 1
        assert titles[0].extent_size == 5


class TestBuilderStreaming:
    """The builder driven through its handlers and through the walk."""

    def test_close_returns_vertex_and_pointer(self):
        builder = BisimGraphBuilder()
        assert builder.open("a", 7) is None
        vertex, ptr = builder.close()
        assert vertex.label == "a"
        assert ptr == 7

    def test_one_result_per_element(self):
        doc = parse_xml(FIGURE1_XML)
        closed = list(BisimGraphBuilder().walk(doc.root))
        assert len(closed) == doc.element_count()
        # Elements close in postorder: a node's pointer comes after every
        # pointer inside its region.
        pointers = [ptr for _, ptr in closed]
        assert sorted(pointers) == [e.node_id for e in doc.elements()]
        position = {ptr: i for i, ptr in enumerate(pointers)}
        for element in doc.elements():
            for child in element.child_elements():
                assert position[child.node_id] < position[element.node_id]

    def test_orphan_close_raises(self):
        with pytest.raises(BisimulationError):
            BisimGraphBuilder().close()

    def test_orphan_text_raises(self):
        for text_label in (None, str.upper):
            with pytest.raises(BisimulationError):
                BisimGraphBuilder(text_label=text_label).text("x", 0)

    def test_unfinished_stream_raises(self):
        builder = BisimGraphBuilder()
        builder.open("a", 0)
        with pytest.raises(BisimulationError):
            builder.finish()

    def test_empty_stream_raises(self):
        with pytest.raises(BisimulationError):
            BisimGraphBuilder().finish()

    def test_forest_gets_synthetic_root(self):
        builder = BisimGraphBuilder()
        for label in ("a", "b"):
            builder.open(label, 0)
            builder.close()
        graph = builder.finish()
        assert graph.root.label == BisimGraphBuilder.FOREST_LABEL
        assert {c.label for c in graph.root.children} == {"a", "b"}

    def test_text_ignored_without_mapping(self):
        builder = BisimGraphBuilder()
        builder.open("a", 0)
        builder.text("hello", 1)
        builder.close()
        graph = builder.finish()
        assert graph.vertex_count() == 1

    def test_text_becomes_leaf_with_mapping(self):
        builder = BisimGraphBuilder(text_label=lambda value: f"#v{len(value)}")
        builder.open("a", 0)
        builder.text("hello", 1)
        builder.close()
        graph = builder.finish()
        assert graph.vertex_count() == 2
        assert graph.root.children[0].label == "#v5"

    def test_walk_registers_text_before_element_children(self):
        # Vertex ids are handed out at first intern, so the walk's order
        # shows in them: a node's text leaves (in document order) come
        # before anything under its element children.
        doc = parse_xml("<a>x<b>y</b>zz</a>")
        builder = BisimGraphBuilder(text_label=lambda value: f"#{value}")
        closed = [(v.label, ptr) for v, ptr in builder.walk(doc.root)]
        assert closed == [("b", 2), ("a", 0)]
        graph = builder.finish()
        assert [v.label for v in graph.vertices] == ["#x", "#zz", "#y", "b", "a"]


class TestTraveler:
    def test_unlimited_unfolding_reproduces_graph(self):
        graph = graph_of(FIGURE1_XML)
        again = depth_limited_graph(graph.root, 0)
        assert graphs_isomorphic(graph, again)

    def test_depth_one_is_just_the_root(self):
        graph = graph_of(FIGURE1_XML)
        limited = depth_limited_graph(graph.root, 1)
        assert limited.vertex_count() == 1
        assert limited.root.label == "bib"

    def test_depth_two_truncation_reminimizes(self):
        # Depth-2 view of <a><b><c/></b><b><d/></b></a> at the root: both
        # b classes truncate to a childless b, so they must re-merge.
        graph = graph_of("<a><b><c/></b><b><d/></b></a>")
        limited = depth_limited_graph(graph.root, 2)
        assert limited.vertex_count() == 2
        assert limited.depth() == 2

    def test_doubling_dag_is_truncated_not_unfolded(self):
        # 40 levels where a_i and b_i both have children {a_(i-1),
        # b_(i-1)}: the unfolding has 2**40 nodes, the pattern two
        # vertices per level.  Only work on the DAG itself can finish.
        a, b = BisimVertex(0, "a", ()), BisimVertex(1, "b", ())
        for level in range(1, 40):
            a, b = (
                BisimVertex(2 * level, "a", (a, b)),
                BisimVertex(2 * level + 1, "b", (a, b)),
            )
        started = time.perf_counter()
        full = depth_limited_graph(a, 0)
        assert time.perf_counter() - started < 1.0
        assert full.vertex_count() == 79  # b_39 is not below a_39
        assert full.depth() == 40
        # Cut at depth 10, every level's a and b still differ by label.
        assert depth_limited_graph(a, 10).vertex_count() == 19

    def test_max_vertices_cap(self):
        graph = graph_of(FIGURE1_XML)
        with pytest.raises(PatternTooLargeError) as caught:
            depth_limited_graph(graph.root, 0, max_vertices=14)
        assert caught.value.size == 15
        # The cap counts the result's vertices: all 15 classes fit 15.
        assert depth_limited_graph(graph.root, 0, 15).vertex_count() == 15
        # ... and a truncation that re-merges needs fewer than its source.
        assert depth_limited_graph(graph.root, 2, 5).vertex_count() == 5
        with pytest.raises(PatternTooLargeError):
            depth_limited_graph(graph.root, 2, 4)

    def test_depth_limit_bounds_result_depth(self):
        graph = graph_of(FIGURE1_XML)
        for limit in (1, 2, 3, 4):
            limited = depth_limited_graph(graph.root, limit)
            assert limited.depth() == min(limit, graph.depth())


class TestDagUtilities:
    def test_topological_order_parents_first(self):
        graph = graph_of(FIGURE1_XML)
        position = {v.vid: i for i, v in enumerate(topological_order(graph))}
        for parent in graph.vertices:
            for child in parent.children:
                assert position[parent.vid] < position[child.vid]

    def test_reachable_includes_all_for_document_graph(self):
        graph = graph_of(FIGURE1_XML)
        assert len(reachable_vertices(graph.root)) == graph.vertex_count()

    def test_edge_count_matches_graph_method(self):
        graph = graph_of(FIGURE1_XML)
        assert edge_count(graph) == graph.edge_count()

    def test_canonical_key_distinguishes_structure(self):
        g1 = graph_of("<a><b/></a>")
        g2 = graph_of("<a><c/></a>")
        g3 = graph_of("<a><b/></a>")
        assert canonical_key(g1.root) != canonical_key(g2.root)
        assert canonical_key(g1.root) == canonical_key(g3.root)

    def test_isomorphism_ignores_construction_order(self):
        g1 = graph_of("<a><b><x/></b><c/></a>")
        g2 = graph_of("<a><c/><b><x/></b></a>")
        assert graphs_isomorphic(g1, g2)

    def test_deep_graph_no_recursion_error(self):
        depth = 5000
        xml = "".join(f"<n{i}>" for i in range(depth)) + "".join(
            f"</n{i}>" for i in reversed(range(depth))
        )
        graph = graph_of(xml)
        assert graph.depth() == depth
        # canonical_key is iterative and must survive this depth.
        canonical_key(graph.root)


class TestMinimality:
    """The builder must produce the *minimal* bisimulation graph."""

    @pytest.mark.parametrize(
        "xml, expected_vertices",
        [
            ("<a/>", 1),
            ("<a><a/></a>", 2),  # same label, different children
            ("<r><x><y/></x><x><y/></x><x><y/></x></r>", 3),
            ("<r><p><q/></p><p><q/><s/></p></r>", 5),
        ],
    )
    def test_expected_class_counts(self, xml, expected_vertices):
        assert graph_of(xml).vertex_count() == expected_vertices

    def test_no_two_vertices_share_signature(self):
        graph = graph_of(FIGURE1_XML)
        signatures = {
            (v.label, frozenset(c.vid for c in v.children)) for v in graph.vertices
        }
        assert len(signatures) == graph.vertex_count()


class TestDepthSignature:
    """The digest of a depth-limited pattern — the matrix builder's
    canonical dimension order — is its root's signature in the
    document's pattern table: it must not depend on what else the table
    holds, and must name the pattern's structure and nothing else."""

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
                    assert shared == vertex_signature(alone.root)

    def test_truncation_merges_children(self):
        # Two children that differ only below the cut must collapse to
        # one digest — the set-dedup that re-minimization performs.
        document = Document(
            parse_xml("<r><a><x><y/></x></a><a><x><z/></x></a></r>").root
        )
        graph = bisim_graph_of_document(document)
        # At depth 2 the two <a> subtrees look identical (both childless).
        assert vertex_signature(
            depth_limited_graph(graph.root, 2).root
        ) == vertex_signature(graph_of("<r><a/></r>").root)

    def test_unlimited_depth_equals_vertex_signature(self):
        document = Document(parse_xml("<r><a><b/></a><c/></r>").root)
        graph = bisim_graph_of_document(document)
        assert vertex_signature(
            depth_limited_graph(graph.root, 0).root
        ) == vertex_signature(graph.root)
