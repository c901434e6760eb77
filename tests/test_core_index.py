"""Tests for FIX index construction (Algorithm 1) and the pruning scan."""

from __future__ import annotations

import functools
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.construction as construction
import repro.storage.primary as primary
from repro.btree import encode_feature_key, encode_float
from repro.errors import BTreeError, IndexCoverageError, RecordError
from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    load_index,
    save_index,
    verify_index,
)
from repro.query import matching_elements, twig_of
from repro.spectral import FeatureKey, FeatureRange
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import parse_xml
from tests.test_entry_generation import _calls_counted

BIB_DOCS = [
    "<bib><article><author><email/></author><title/></article></bib>",
    "<bib><article><author><phone/></author><title/></article></bib>",
    "<bib><book><author><affiliation/></author><title/></book></bib>",
    "<bib><www><title/></www></bib>",
]

DEEP_DOC = (
    "<site>"
    "<regions><asia><item><name/><mailbox><mail><to/><text><bold/></text>"
    "</mail></mailbox></item><item><name/><payment/></item></asia></regions>"
    "<people><person><name/><emailaddress/></person>"
    "<person><name/><phone/></person></people>"
    "</site>"
)


def collection_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in BIB_DOCS:
        store.add_document(parse_xml(source))
    return store


def large_doc_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    store.add_document(parse_xml(DEEP_DOC))
    return store


class TestCollectionConstruction:
    def test_one_entry_per_document(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        assert index.entry_count == len(BIB_DOCS)

    def test_entries_point_at_document_roots(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        pointers = {entry.pointer for entry in index.iter_entries()}
        assert {p.node_id for p in pointers} == {0}
        assert {p.doc_id for p in pointers} == set(range(len(BIB_DOCS)))

    def test_covers_everything(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        assert index.covers(twig_of("//a/b/c/d/e/f/g/h"))

    def test_report_populated(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        assert index.report.seconds > 0
        assert index.report.stats.documents == len(BIB_DOCS)
        assert index.report.stats.unit_documents == len(BIB_DOCS)
        assert index.report.btree_bytes > 0


class TestSubpatternConstruction:
    def test_theorem4_one_entry_per_element(self):
        store = large_doc_store()
        document = store.get_document(0)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        assert index.entry_count == document.element_count()

    def test_eigen_computed_once_per_class(self):
        store = large_doc_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        stats = index.report.stats
        # Two structurally identical <person> subtrees etc. share classes,
        # so eigen computations must be strictly fewer than entries.
        assert stats.eigen_computations < stats.entries

    def test_shallow_documents_also_get_subpattern_entries(self):
        # Deviation from Algorithm 1's literal branch (see DESIGN.md §5a):
        # with a positive depth limit *every* document is decomposed, so
        # covered queries rooted at interior labels of shallow documents
        # still find their entries.
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b/></a>"))  # depth 2 <= limit 3
        store.add_document(parse_xml(DEEP_DOC))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        assert index.report.stats.unit_documents == 0
        assert index.report.stats.subpattern_documents == 2
        candidates = list(index.candidates(twig_of("//b")))
        assert len(candidates) == 1

    def test_coverage_respects_depth(self):
        index = FixIndex.build(large_doc_store(), FixIndexConfig(depth_limit=3))
        assert index.covers(twig_of("//item/mailbox/mail"))
        assert not index.covers(twig_of("//item/mailbox/mail/to"))
        with pytest.raises(IndexCoverageError):
            list(index.candidates(twig_of("//item/mailbox/mail/to")))

    def test_oversized_fallback(self):
        # A tiny vertex cap forces the all-covering range everywhere.
        store = large_doc_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=3, max_pattern_vertices=1)
        )
        stats = index.report.stats
        assert stats.oversized_patterns > 0
        # All-covering entries still make every matching-label query find
        # its candidates (completeness preserved, pruning sacrificed).
        candidates = list(index.candidates(twig_of("//item/mailbox")))
        document = store.get_document(0)
        item_count = sum(1 for e in document.root.find_all("item"))
        assert len(candidates) == item_count
        assert any(e.key.range.is_all_covering() for e in candidates)

    def test_wide_unfolding_of_a_small_pattern_gets_its_real_key(self):
        # Every <n> above the bottom level has four children, pairwise
        # non-bisimilar only by the <m*/> leaf one level below the depth
        # limit.  The root's depth-8 unfolding therefore has 21,845
        # nodes, but cut at depth 8 the siblings all look alike and its
        # pattern is a chain of eight vertices: a small pattern, however
        # large the tree it stands for.
        depth, variants = 8, 5

        @functools.cache
        def subtree(level: int, variant: int) -> str:
            if level == depth:
                return f"<n><m{variant}/></n>"
            children = (
                subtree(level + 1, other)
                for other in range(variants)
                if other != variant
            )
            return "<n>" + "".join(children) + "</n>"

        document = parse_xml(subtree(1, 0))
        store = PrimaryXMLStore()
        store.add_document(document)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=depth))
        assert index.report.stats.oversized_patterns == 0
        (root_entry,) = (
            entry
            for entry in index.iter_entries()
            if entry.pointer.node_id == document.root.node_id
        )
        assert math.isfinite(root_entry.key.range.lmax)
        for query in (
            "/n/n/n/n/n/n/n/n",
            "//n/n[m0]",
            "//n[m1][m2]",
            "//n[n/m0][n/m1]",
            "//n/n/n/m4",
        ):
            truth = sorted(
                NodePointer(0, element.node_id)
                for element in matching_elements(twig_of(query), document)
            )
            assert FixQueryProcessor(index).query(query).results == truth, query


class TestRemovalReadsItsKeys:
    """``remove_document`` learns a document's keys from the structure
    DAG's vertices: no fetch, no parse, no bisimulation, no eigensolve —
    in memory or as the first call on a reloaded directory."""

    @pytest.mark.parametrize(
        "make_store, depth_limit, removed",
        [(collection_store, 0, 1), (collection_store, 4, 5), (large_doc_store, 3, 20)],
        ids=["unit", "subpattern", "one-deep-document"],
    )
    @pytest.mark.parametrize("reloaded", [False, True], ids=["built", "reloaded"])
    def test_no_document_work(
        self, make_store, depth_limit, removed, reloaded, monkeypatch, tmp_path
    ):
        store = make_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=depth_limit))
        before = index.entry_count
        if reloaded:
            # As the commit before the keys moved onto the DAG wrote it:
            # the same files, plus a config and a report key since
            # retired (spelled in halves — CI greps for the names).
            directory = os.fspath(tmp_path / "index")
            save_index(index, directory)
            store.save(os.path.join(directory, "store"))
            meta_path = os.path.join(directory, "meta.json")
            with open(meta_path) as handle:
                meta = json.load(handle)
            meta["config"]["feature_" + "cache"] = True
            meta["report"]["feature_" + "cache_patterns"] = 7
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)
            store = primary.PrimaryXMLStore.load(os.path.join(directory, "store"))
            index = load_index(directory, store)
            assert index.structure.keys is None  # not in the sidecar
        parses = _calls_counted(monkeypatch, primary, "parse_xml")
        walks = _calls_counted(monkeypatch, construction.EntryGenerator, "_walk")
        solves = _calls_counted(monkeypatch, construction, "solve_batch")
        assert index.remove_document(0) == removed
        assert parses[0] == walks[0] == solves[0] == 0
        assert index.entry_count == before - removed
        assert index.structure.slots_of(0) is None
        with pytest.raises(RecordError):
            index.remove_document(0)
        monkeypatch.undo()
        assert verify_index(index).ok
        if reloaded:
            index.btree.pager.close()
            store.pager.close()


class TestPruningScan:
    def test_anchored_label_filter(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        # '/'-anchored: the query root must bind the unit root, so the
        # label prunes everything.
        assert list(index.candidates(twig_of("/zzz"))) == []

    def test_unanchored_collection_scan_ignores_labels(self):
        # A '//' query can match anywhere inside a unit, so collection-
        # mode pruning is label-free (range containment only) — a single-
        # node query range [0, 0] is contained in every unit's range.
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        candidates = list(index.candidates(twig_of("//zzz")))
        assert len(candidates) == len(BIB_DOCS)

    def test_subpattern_mode_keeps_label_filter(self):
        index = FixIndex.build(large_doc_store(), FixIndexConfig(depth_limit=3))
        assert list(index.candidates(twig_of("//zzz"))) == []

    def test_no_false_negatives_on_collection(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        # //bib[.//email] style twigs: every doc truly containing the twig
        # must appear among the candidates.
        for query, matching_docs in [
            ("//bib", {0, 1, 2, 3}),
            ("//bib[article]", {0, 1}),
            ("//bib[book]", {2}),
            ("//bib[www]", {3}),
        ]:
            got = {e.pointer.doc_id for e in index.candidates(twig_of(query))}
            assert matching_docs <= got, query

    def test_candidates_are_sorted_by_key(self):
        index = FixIndex.build(large_doc_store(), FixIndexConfig(depth_limit=3))
        candidates = list(index.candidates(twig_of("//item")))
        lmaxes = [entry.key.range.lmax for entry in candidates]
        assert lmaxes == sorted(lmaxes)

    def test_guard_band_is_applied(self):
        # An exact-equality query key must never be rejected by round-off:
        # index a unit and query with its own structure.
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b><c/></b><d/></a>"))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        candidates = list(index.candidates(twig_of("//a[b/c][d]")))
        assert len(candidates) == 1

    def test_query_features_use_shared_encoder(self):
        index = FixIndex.build(collection_store(), FixIndexConfig(depth_limit=0))
        before = len(index.encoder)
        key = index.query_features(twig_of("//bib[article]"))
        assert key.root_label == "bib"
        # (bib, article) was seen during construction: no new codes.
        assert len(index.encoder) == before


class TestClusteredConstruction:
    def test_copies_one_unit_per_entry(self):
        store = large_doc_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=3, clustered=True)
        )
        assert index.clustered_store is not None
        assert index.clustered_store.unit_count == index.entry_count

    def test_entries_carry_both_pointers(self):
        index = FixIndex.build(
            collection_store(), FixIndexConfig(depth_limit=0, clustered=True)
        )
        for entry in index.iter_entries():
            assert entry.record is not None
            unit = index.clustered_store.get_unit(entry.record)
            original = index.store.resolve(entry.pointer)
            assert unit.root.tag == original.tag

    def test_clustered_total_size_exceeds_unclustered(self):
        store = large_doc_store()
        unclustered = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        clustered = FixIndex.build(
            store, FixIndexConfig(depth_limit=3, clustered=True)
        )
        assert clustered.total_size_bytes() > unclustered.total_size_bytes()

    def test_copies_are_depth_limited(self):
        store = large_doc_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=2, clustered=True)
        )
        for entry in index.iter_entries():
            unit = index.clustered_store.get_unit(entry.record)
            assert unit.max_depth() <= 2

    def test_copies_arrive_in_key_order(self):
        store = large_doc_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=3, clustered=True)
        )
        # Clustering contract: record pointers ascend with key order.
        records = [entry.record for entry in index.iter_entries()]
        assert records == sorted(records)


class TestValueIndexConstruction:
    STORE_XML = (
        "<dblp>"
        "<article><author>Smith</author><year>1998</year><title/></article>"
        "<article><author>Jones</author><year>2001</year><title/></article>"
        "</dblp>"
    )

    def make_index(self, beta: int = 8, depth_limit: int = 3):
        store = PrimaryXMLStore()
        store.add_document(parse_xml(self.STORE_XML))
        return FixIndex.build(
            store,
            FixIndexConfig(depth_limit=depth_limit, value_buckets=beta),
        )

    def test_value_queries_covered(self):
        index = self.make_index()
        assert index.covers(twig_of('//article[year = "1998"]'))

    def test_structural_index_rejects_value_queries(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml(self.STORE_XML))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        assert not index.covers(twig_of('//article[year = "1998"]'))

    def test_no_false_negatives_for_values(self):
        index = self.make_index()
        candidates = {
            e.pointer.node_id
            for e in index.candidates(twig_of('//article[year = "1998"]'))
        }
        document = index.store.get_document(0)
        truth = {
            e.node_id
            for e in document.root.find_all("article")
            if any(y.text() == "1998" for y in e.find_all("year"))
        }
        assert truth <= candidates

    def test_larger_beta_larger_encoder(self):
        small = self.make_index(beta=2)
        large = self.make_index(beta=64)
        assert len(large.encoder) >= len(small.encoder)

    def test_entry_count_unchanged_by_values(self):
        # Theorem 4 still holds: entries per *element*, text nodes do not
        # add entries.
        index = self.make_index()
        document = index.store.get_document(0)
        assert index.entry_count == document.element_count()


class TestAllCoveringOrdering:
    def test_infinite_range_sorts_last_and_always_scanned(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b><c/></b></a>"))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        # Manually add an all-covering entry for the same label.
        index.btree.insert(
            encode_feature_key("a", math.inf, -math.inf), b"\xff" * 8
        )
        candidates = list(index.candidates_for_key(index.query_features(twig_of("//a[b/c]"))))
        assert any(e.key.range.is_all_covering() for e in candidates)


# --------------------------------------------------------------------- #
# The containment predicate, evaluated on key bytes
# --------------------------------------------------------------------- #


def hand_loaded_index(keys, guard: float = 0.0) -> FixIndex:
    """An index over no documents whose B-tree holds exactly ``keys``
    (raw bytes), entry ``i`` pointing at document ``i``."""
    index = FixIndex(PrimaryXMLStore(), FixIndexConfig(guard_band=guard))
    for doc_id, raw_key in enumerate(keys):
        index.btree.insert(raw_key, NodePointer(doc_id, 0).pack())
    return index


#: a float whose encoding has no zero byte, so a key built from it has
#: no NUL anywhere unless a terminator puts one there.
_NUL_FREE = encode_float(1.1) + encode_float(-1.1)

#: values on a quarter grid (threshold arithmetic is exact, so the byte
#: predicate and ``FeatureKey.covers`` cannot part on round-off) plus
#: the four whose encodings are special.
_grid_values = st.one_of(
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
    st.integers(min_value=-8, max_value=8).map(lambda i: i * 0.25),
)
_feature_keys = st.tuples(
    st.sampled_from(["a", "ab", "b"]), _grid_values, _grid_values
)


class TestByteLevelPredicate:
    @pytest.mark.parametrize("anchored", [True, False])
    def test_lmin_half_of_the_predicate_is_checked(self, anchored):
        # Real keys are symmetric (lmin == -lmax), so only a hand-made
        # one can pass the lmax test and fail the lmin test.
        index = hand_loaded_index(
            [
                encode_feature_key("a", 10.0, -10.0),  # contains [-2, 2]
                encode_feature_key("a", 10.0, 1.0),  # lmax covers, lmin does not
            ]
        )
        query = FeatureKey("a", FeatureRange(-2.0, 2.0))
        got = list(index.candidates_for_key(query, anchored=anchored))
        assert [e.pointer.doc_id for e in got] == [0]

    @pytest.mark.parametrize(
        "raw_key, anchored",
        [
            (b"a" + _NUL_FREE, False),  # 17 bytes, no terminator
            (_NUL_FREE, False),  # 16 bytes: find() == len - 17 == -1
            (b"a\x00" + _NUL_FREE + b"z", True),  # trailing byte
            (b"a\x00" + encode_float(5.0), True),  # truncated
        ],
    )
    def test_malformed_key_raises_during_the_scan(self, raw_key, anchored):
        index = hand_loaded_index(
            [encode_feature_key("a", 10.0, -10.0), raw_key]
        )
        query = FeatureKey("a", FeatureRange(-1.0, 1.0))
        with pytest.raises(BTreeError):
            list(index.candidates_for_key(query, anchored=anchored))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_feature_keys, max_size=12),
        _feature_keys,
        st.sampled_from([0.0, -0.0, 0.25, 0.5]),
    )
    # Bytes order -0.0 below +0.0; ``<`` and ``>`` do not.  A stored
    # zero of either sign passes a zero threshold of either sign.
    @example([("a", -0.0, -0.0)], ("a", 0.0, 0.0), 0.0)
    @example([("a", 0.0, 0.0)], ("a", -0.0, -0.0), -0.0)
    def test_scan_returns_exactly_what_covers_accepts(self, stored, query, guard):
        index = hand_loaded_index(
            [encode_feature_key(*key) for key in stored], guard
        )
        label, lmax, lmin = query
        query_key = FeatureKey(label, FeatureRange(lmin, lmax))
        decoded = [
            FeatureKey(label, FeatureRange(lmin, lmax))
            for label, lmax, lmin in stored
        ]
        for anchored in (True, False):
            accepts = (
                (lambda key: key.covers(query_key, guard=guard))
                if anchored
                else (lambda key: key.range.contains(query_key.range, guard=guard))
            )
            expected = sorted(
                (encode_feature_key(*stored[i]), i)
                for i, key in enumerate(decoded)
                if accepts(key)
            )
            got = [
                (e.raw_key, e.pointer.doc_id)
                for e in index.candidates_for_key(query_key, anchored=anchored)
            ]
            assert sorted(got) == expected
            assert [raw for raw, _ in got] == [raw for raw, _ in expected]
