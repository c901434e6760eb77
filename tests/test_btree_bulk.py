"""Tests for B+tree bulk loading."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BTreeError
from repro.btree import BPlusTree
from repro.btree.node import NO_LEAF, InternalNode, LeafNode
from repro.storage import Pager


def pairs_for(count: int) -> list[tuple[bytes, bytes]]:
    return [(f"{i:05d}".encode(), str(i).encode()) for i in range(count)]


class TestBulkLoad:
    def test_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0
        assert list(tree.scan()) == []

    def test_single_entry(self):
        tree = BPlusTree.bulk_load([(b"k", b"v")])
        assert tree.search(b"k") == [b"v"]
        tree.check_invariants()

    def test_matches_insert_built_tree(self):
        pairs = pairs_for(500)
        bulk = BPlusTree.bulk_load(pairs, Pager(page_size=256))
        incremental = BPlusTree(Pager(page_size=256))
        for key, value in pairs:
            incremental.insert(key, value)
        assert list(bulk.scan()) == list(incremental.scan())
        bulk.check_invariants()

    def test_duplicates_straddling_leaves(self):
        pairs = sorted(
            [(b"dup", str(i).encode()) for i in range(60)]
            + [(f"k{i:03d}".encode(), b"x") for i in range(60)]
        )
        tree = BPlusTree.bulk_load(pairs, Pager(page_size=256))
        assert len(tree.search(b"dup")) == 60
        tree.check_invariants()

    def test_unsorted_input_rejected(self):
        with pytest.raises(BTreeError):
            BPlusTree.bulk_load([(b"b", b""), (b"a", b"")])

    def test_oversized_entry_rejected(self):
        pager = Pager(page_size=256)
        with pytest.raises(BTreeError):
            BPlusTree.bulk_load([(b"k" * 100, b"v" * 100)], pager)

    def test_insert_after_bulk_load(self):
        tree = BPlusTree.bulk_load(pairs_for(300), Pager(page_size=256))
        tree.insert(b"00150a", b"new")
        assert tree.search(b"00150a") == [b"new"]
        assert len(tree) == 301
        tree.check_invariants()

    def test_delete_after_bulk_load(self):
        tree = BPlusTree.bulk_load(pairs_for(300), Pager(page_size=256))
        assert tree.delete(b"00123")
        assert tree.search(b"00123") == []
        tree.check_invariants()

    def test_flush_and_reopen(self):
        pager = Pager(page_size=256)
        tree = BPlusTree.bulk_load(pairs_for(400), pager)
        tree.flush()
        reopened = BPlusTree.open(pager, tree.root_page, len(tree))
        assert list(reopened.scan()) == list(tree.scan())
        reopened.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=16), st.binary(max_size=8)),
            max_size=250,
        )
    )
    def test_property_matches_reference(self, raw_pairs):
        pairs = sorted(raw_pairs, key=lambda pair: pair[0])
        tree = BPlusTree.bulk_load(pairs, Pager(page_size=256))
        assert list(tree.scan()) == pairs
        if pairs:
            probe = pairs[len(pairs) // 2][0]
            expected = sorted(v for k, v in pairs if k == probe)
            assert sorted(tree.search(probe)) == expected
        tree.check_invariants()


def remeasuring_bulk_pages(
    pairs: list[tuple[bytes, bytes]], page_size: int, fill_factor: float
) -> list[bytes]:
    """Every page of the bulk load as it packed before it kept a running
    size: append, re-measure the whole node, pop what does not fit."""
    pager = Pager(page_size=page_size)
    budget = int(page_size * fill_factor)
    root_page = pager.allocate()
    nodes: dict[int, LeafNode | InternalNode] = {}
    level: list[tuple[int, bytes]] = []
    current, current_page, full = LeafNode(), pager.allocate(), False
    for key, value in pairs:
        if full:
            current.next_leaf = pager.allocate()
            level.append((current_page, current.keys[0]))
            nodes[current_page] = current
            current, current_page, full = LeafNode(), current.next_leaf, False
        current.keys.append(key)
        current.values.append(value)
        full = current.serialized_size() > budget
    level.append((current_page, current.keys[0]))
    nodes[current_page] = current
    while len(level) > 1:
        parents: list[tuple[int, bytes]] = []
        index = 0
        while index < len(level):
            node = InternalNode([], [level[index][0]])
            first_key = level[index][1]
            index += 1
            while index < len(level):
                node.keys.append(level[index][1])
                node.children.append(level[index][0])
                if node.serialized_size() > budget:
                    node.keys.pop()
                    node.children.pop()
                    break
                index += 1
            page = pager.allocate()
            nodes[page] = node
            parents.append((page, first_key))
        level = parents
    # The built root moves into the page the empty tree started with.
    nodes[root_page] = nodes.pop(level[0][0])
    return [
        bytes(nodes[page].serialize(page_size)) if page in nodes else bytes(page_size)
        for page in range(pager.page_count)
    ]


def bulk_pages(pairs, page_size: int, fill_factor: float) -> list[bytes]:
    tree = BPlusTree.bulk_load(pairs, Pager(page_size=page_size), fill_factor)
    tree.flush()
    return [bytes(tree.pager.read(page)) for page in range(tree.pager.page_count)]


def leaf_pages(tree: BPlusTree):
    """Page ids along the leaf chain."""
    page = tree._leaf_for(None)
    while page != NO_LEAF:
        yield page
        page = tree._node(page).next_leaf


class TestRunningSize:
    """The load keeps a running byte count per open node; the pages are
    those of measuring the whole node after every append."""

    def test_measures_per_node_not_per_pair(self, monkeypatch):
        calls = {LeafNode: 0, InternalNode: 0}
        for cls in calls:
            measure = cls.serialized_size

            def counted(node, cls=cls, measure=measure):
                calls[cls] += 1
                return measure(node)

            monkeypatch.setattr(cls, "serialized_size", counted)
        pairs = pairs_for(3000)
        tree = BPlusTree.bulk_load(pairs, Pager(page_size=256))
        tree.flush()  # one measurement per node, when it is serialized
        monkeypatch.undo()
        leaves = sum(1 for _ in leaf_pages(tree))
        assert 100 < leaves < len(pairs) // 10
        assert calls[LeafNode] <= leaves
        assert calls[InternalNode] <= tree.pager.page_count - leaves

    @pytest.mark.parametrize("fill_factor", [0.5, 0.9])
    def test_keys_landing_exactly_on_the_budget(self, fill_factor):
        # 5-byte keys, 2-byte values, 256-byte pages: a leaf entry and an
        # internal (separator, child) both cost 11 bytes, and at 0.5 the
        # budget (128) is the base (7) plus exactly 11 of them, so the
        # eleventh lands on the budget and stays.
        pairs = [(f"{i:05d}".encode(), b"vv") for i in range(12 * 12 * 3)]
        assert bulk_pages(pairs, 256, fill_factor) == remeasuring_bulk_pages(
            pairs, 256, fill_factor
        )
        if fill_factor == 0.5:
            tree = BPlusTree.bulk_load(pairs, Pager(page_size=256), fill_factor)
            assert [len(tree._node(p).keys) for p in leaf_pages(tree)] == [12] * 36
            root = tree._node(tree.root_page)
            assert [len(tree._node(p).children) for p in root.children] == [12] * 3

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=12).map(lambda key: key[:1] * len(key)),
                st.binary(max_size=8),
            ),
            min_size=1,
            max_size=400,
        ),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_pages_equal_the_remeasuring_load(self, raw_pairs, fill_factor):
        # Keys are runs of one byte, so duplicates are common and
        # straddle nodes.  An entry is at most 24 bytes: the one that
        # overfills a 0.9 leaf still fits the page.
        pairs = sorted(raw_pairs, key=lambda pair: pair[0])
        assert bulk_pages(pairs, 256, fill_factor) == remeasuring_bulk_pages(
            pairs, 256, fill_factor
        )
