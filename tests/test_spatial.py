"""Tests for the R-tree and the spatial feature-index ablation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FixIndex, FixIndexConfig
from repro.datasets import load_dataset
from repro.query import twig_of
from repro.spatial import Rect, RTree, SpatialFeatureIndex


class TestRect:
    def test_point(self):
        point = Rect.point(1.0, 2.0)
        assert point.min_x == point.max_x == 1.0
        assert point.area() == 0.0

    def test_union(self):
        merged = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert merged == Rect(0, 0, 3, 3)

    def test_enlargement(self):
        base = Rect(0, 0, 1, 1)
        assert base.enlargement(Rect(0, 0, 2, 1)) == pytest.approx(1.0)
        assert base.enlargement(Rect(0.2, 0.2, 0.8, 0.8)) == 0.0

    def test_intersects(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))
        # Edge touching counts as intersecting.
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_quarter_plane(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.intersects_quarter_plane(0.0, 2.0)
        assert rect.intersects_quarter_plane(5.0, -5.0)
        assert not rect.intersects_quarter_plane(-1.0, 0.0)  # all x > qx
        assert not rect.intersects_quarter_plane(1.0, 3.0)  # all y < qy


def reference_dominating(points, qx, qy):
    return sorted(v for (x, y), v in points if x <= qx and y >= qy)


class TestRTree:
    def test_insert_and_window_search(self):
        tree = RTree(max_entries=4)
        for i in range(50):
            tree.insert(Rect.point(float(i), float(i)), i)
        hits = sorted(tree.search(Rect(10, 10, 20, 20)))
        assert hits == list(range(10, 21))

    def test_split_grows_height(self):
        tree = RTree(max_entries=4)
        for i in range(100):
            tree.insert(Rect.point(float(i % 10), float(i // 10)), i)
        assert tree.height() >= 2
        assert len(tree) == 100

    def test_dominance_query(self):
        tree = RTree(max_entries=4)
        points = [((float(x), float(y)), (x, y)) for x in range(8) for y in range(8)]
        for (x, y), value in points:
            tree.insert(Rect.point(x, y), value)
        got = sorted(tree.search_dominating(3.0, 5.0))
        assert got == reference_dominating(points, 3.0, 5.0)

    def test_bulk_load_equals_insert(self):
        rng = random.Random(5)
        points = [
            ((rng.uniform(-10, 10), rng.uniform(-10, 10)), i) for i in range(200)
        ]
        inserted = RTree(max_entries=8)
        for (x, y), value in points:
            inserted.insert(Rect.point(x, y), value)
        bulk = RTree.bulk_load(
            [(Rect.point(x, y), v) for (x, y), v in points], max_entries=8
        )
        assert len(bulk) == len(inserted) == 200
        window = Rect(-5, -5, 5, 5)
        assert sorted(bulk.search(window)) == sorted(inserted.search(window))

    def test_empty_tree(self):
        tree = RTree()
        assert list(tree.search(Rect(0, 0, 1, 1))) == []
        assert list(tree.search_dominating(0, 0)) == []
        bulk = RTree.bulk_load([])
        assert len(bulk) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_stats_counters(self):
        tree = RTree(max_entries=4)
        for i in range(40):
            tree.insert(Rect.point(float(i), float(i)), i)
        tree.reset_stats()
        list(tree.search(Rect(0, 0, 5, 5)))
        assert tree.nodes_visited > 0
        assert tree.entries_inspected > 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=120,
        ),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
    )
    def test_property_dominance_matches_reference(self, raw_points, qx, qy):
        points = [((x, y), i) for i, (x, y) in enumerate(raw_points)]
        tree = RTree.bulk_load(
            [(Rect.point(x, y), v) for (x, y), v in points], max_entries=6
        )
        assert sorted(tree.search_dominating(qx, qy)) == reference_dominating(
            points, qx, qy
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=100,
        ),
        st.data(),
    )
    def test_property_window_matches_reference(self, raw_points, data):
        points = [((x, y), i) for i, (x, y) in enumerate(raw_points)]
        tree = RTree(max_entries=5)
        for (x, y), value in points:
            tree.insert(Rect.point(x, y), value)
        x1 = data.draw(st.floats(min_value=-50, max_value=50))
        x2 = data.draw(st.floats(min_value=-50, max_value=50))
        y1 = data.draw(st.floats(min_value=-50, max_value=50))
        y2 = data.draw(st.floats(min_value=-50, max_value=50))
        window = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        expected = sorted(
            v
            for (x, y), v in points
            if window.min_x <= x <= window.max_x and window.min_y <= y <= window.max_y
        )
        assert sorted(tree.search(window)) == expected


class TestSpatialFeatureIndex:
    @pytest.fixture(scope="class")
    def built(self):
        bundle = load_dataset("xmark", scale=0.15, seed=9)
        index = FixIndex.build(
            bundle.store(), FixIndexConfig(depth_limit=bundle.depth_limit)
        )
        return index, SpatialFeatureIndex(index)

    @pytest.mark.parametrize(
        "query",
        [
            "//item[name]/mailbox",
            "//open_auction[seller]/annotation",
            "//person[phone]",
            "//description/parlist/listitem",
            "//missing",
        ],
    )
    def test_candidates_identical_to_btree(self, built, query):
        index, spatial = built
        key = index.query_features(twig_of(query))
        btree_candidates = {e.pointer for e in index.candidates_for_key(key)}
        rtree_candidates = {e.pointer for e in spatial.candidates_for_key(key)}
        assert btree_candidates == rtree_candidates

    def test_rtree_inspects_fewer_entries_than_label_scan(self, built):
        index, spatial = built
        spatial.reset_stats()
        key = index.query_features(twig_of("//item[name]/mailbox"))
        list(spatial.candidates_for_key(key))
        label_entries = sum(
            1 for e in index.iter_entries() if e.key.root_label == "item"
        )
        assert spatial.entries_inspected() <= label_entries

    def test_all_covering_entries_always_returned(self):
        bundle = load_dataset("treebank", scale=0.05, seed=3)
        index = FixIndex.build(
            bundle.store(),
            FixIndexConfig(depth_limit=6, max_pattern_vertices=4),
        )
        assert index.report.stats.oversized_patterns > 0
        spatial = SpatialFeatureIndex(index)
        key = index.query_features(twig_of("//S[VP]/NP"))
        btree_candidates = {e.pointer for e in index.candidates_for_key(key)}
        rtree_candidates = {e.pointer for e in spatial.candidates_for_key(key)}
        assert btree_candidates == rtree_candidates

    def test_labels(self, built):
        _, spatial = built
        assert "item" in spatial.labels()
