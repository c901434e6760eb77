"""Cross-validation of the single-pass bisimulation builder against an
independent reference implementation (naive fixpoint partition
refinement), of the traveler against an explicitly unfolded tree, plus
equivalence properties that tie the two notions used in the paper
together."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bisim import (
    PatternTable,
    bisim_graph_of_document,
    depth_limited_graph,
    graphs_isomorphic,
    vertex_signature,
)
from repro.core.construction import EntryGenerator, seed_encoder
from repro.fb import fb_partition
from repro.spectral import EdgeLabelEncoder
from repro.xmltree import Document, Element


def reference_downward_bisim(document: Document) -> dict[int, int]:
    """Coarsest downward bisimulation by naive fixpoint refinement:
    start from the by-label partition and refine each node's block by
    the *set* of its children's blocks until stable.  O(n^2)-ish and
    obviously correct — the oracle for the streaming builder."""
    elements = list(document.elements())
    block: dict[int, int] = {}
    interning: dict[object, int] = {}
    for element in elements:
        block[element.node_id] = interning.setdefault(element.tag, len(interning))
    while True:
        interning = {}
        refined: dict[int, int] = {}
        for element in elements:
            signature = (
                element.tag,
                frozenset(block[c.node_id] for c in element.child_elements()),
            )
            refined[element.node_id] = interning.setdefault(
                signature, len(interning)
            )
        if len(set(refined.values())) == len(set(block.values())):
            return refined
        block = refined


def random_document(rng: random.Random, labels: list[str], size: int) -> Document:
    root = Element(rng.choice(labels))
    nodes = [root]
    for _ in range(size):
        parent = rng.choice(nodes)
        child = parent.add_element(rng.choice(labels))
        nodes.append(child)
    return Document(root)


def builder_partition(document: Document) -> dict[int, int]:
    graph = bisim_graph_of_document(document, record_extents=True)
    partition: dict[int, int] = {}
    for vertex in graph.vertices:
        for node_id in vertex.extent or []:
            partition[node_id] = vertex.vid
    return partition


def partitions_equal(left: dict[int, int], right: dict[int, int]) -> bool:
    """Same partition up to block renaming."""
    if left.keys() != right.keys():
        return False
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for key in left:
        a, b = left[key], right[key]
        if mapping.setdefault(a, b) != b:
            return False
        if reverse.setdefault(b, a) != a:
            return False
    return True


class TestBuilderAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=9999))
    def test_streaming_builder_equals_fixpoint_oracle(self, size, seed):
        rng = random.Random(seed)
        document = random_document(rng, ["a", "b", "c"], size)
        assert partitions_equal(
            builder_partition(document), reference_downward_bisim(document)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=9999))
    def test_recursive_labels(self, size, seed):
        # Single-label documents are the hardest case: blocks are
        # distinguished purely by structure (and its depth strata).
        rng = random.Random(seed)
        document = random_document(rng, ["n"], size)
        assert partitions_equal(
            builder_partition(document), reference_downward_bisim(document)
        )


def unfolded(vertex, depth: int) -> Element:
    """The depth-``depth`` unfolding of ``vertex`` as an explicit tree."""
    element = Element(vertex.label)
    if depth > 1:
        for child in vertex.children:
            element.append(unfolded(child, depth - 1))
    return element


class TestTravelerAgainstExplicitUnfolding:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=9999),
        st.integers(min_value=1, max_value=6),
    )
    def test_depth_limited_graph_is_the_graph_of_the_unfolded_tree(
        self, size, seed, depth
    ):
        # One or two labels over random shapes: recursive documents, whose
        # truncated unfoldings re-merge the most.
        rng = random.Random(seed)
        document = random_document(rng, ["n", "m"][: 1 + seed % 2], size)
        for vertex in bisim_graph_of_document(document).vertices:
            tree = unfolded(vertex, depth)
            assert graphs_isomorphic(
                depth_limited_graph(vertex, depth), bisim_graph_of_document(tree)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=9999),
            ),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_shared_table_is_the_one_shot_pattern_and_never_leaks(
        self, shapes, depth_limit
    ):
        documents = [
            random_document(random.Random(seed), ["n", "m"][: 1 + seed % 2], size)
            for size, seed in shapes
        ]
        # One table (and one signature memo over it) across all vertices
        # and depths of a graph names every pattern as a fresh table and
        # as the explicitly unfolded tree do.
        for document in documents:
            table, memo = PatternTable(), {}
            for vertex in bisim_graph_of_document(document).vertices:
                for depth in range(1, 7):
                    shared = vertex_signature(table.pattern(vertex, depth).root, memo)
                    assert shared == vertex_signature(
                        depth_limited_graph(vertex, depth).root
                    )
                    assert shared == vertex_signature(
                        bisim_graph_of_document(unfolded(vertex, depth)).root
                    )
        # The generator's table is per document: what an earlier document
        # left behind (builder vids restart) never shows in a later one.
        encoder = EdgeLabelEncoder()
        for document in documents:
            seed_encoder(encoder, document)

        def staged(doc_ids):
            generator = EntryGenerator(encoder, depth_limit)
            return generator.stage(doc_ids, documents.__getitem__)

        everything = range(len(documents))
        assert staged(everything) == [
            entry for doc_id in everything for entry in staged([doc_id])
        ]


class TestFBRefinesDownwardBisim:
    """F&B equivalence adds the backward condition, so the F&B partition
    must always *refine* the downward bisimulation partition."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=9999))
    def test_refinement_property(self, size, seed):
        rng = random.Random(seed)
        document = random_document(rng, ["a", "b"], size)
        downward = builder_partition(document)
        fandb = fb_partition(document)
        # Two F&B-equivalent nodes must be downward-bisimilar.
        blocks: dict[int, int] = {}
        for node_id, fb_block in fandb.items():
            if fb_block in blocks:
                assert downward[node_id] == blocks[fb_block]
            else:
                blocks[fb_block] = downward[node_id]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=9999))
    def test_fb_never_coarser(self, size, seed):
        rng = random.Random(seed)
        document = random_document(rng, ["a", "b", "c"], size)
        downward_blocks = len(set(builder_partition(document).values()))
        fb_blocks = len(set(fb_partition(document).values()))
        assert fb_blocks >= downward_blocks
