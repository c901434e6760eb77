"""Tests for the epoch layer (snapshot isolation + scoped invalidation).

Covers the epoch manager's snapshot/latching semantics, label-scoped
plan retention across mutations, incremental histogram maintenance
(sound *and* tight after removals), the separation of
``build.incremental.*`` from the batch-build metrics, and — the
integration property everything else exists for — that a query racing a
mutation returns either the pre- or post-mutation answer, never a mix.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro.core import (
    EpochManager,
    FeatureHistogram,
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    ShardedFixIndex,
)
from repro.core.epoch import EpochSnapshot
from repro.obs import ObsConfig
from repro.query import twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml, serialize_fragment

BIB_DOCS = [
    "<bib><article><author/><title/></article></bib>",
    "<bib><book><author/><title/></book></bib>",
]
SITE_DOCS = [
    "<site><people><person/></people></site>",
]


def build_index(depth_limit: int = 3, **config_kwargs) -> FixIndex:
    store = PrimaryXMLStore()
    for source in BIB_DOCS + SITE_DOCS:
        store.add_document(parse_xml(source))
    return FixIndex.build(
        store, FixIndexConfig(depth_limit=depth_limit, **config_kwargs)
    )


def build_sharded(depth_limit: int = 3, **config_kwargs) -> ShardedFixIndex:
    store = PrimaryXMLStore()
    for source in BIB_DOCS + SITE_DOCS:
        store.add_document(parse_xml(source))
    config = FixIndexConfig(
        depth_limit=depth_limit, shards=2, **config_kwargs
    )
    return ShardedFixIndex.build(store, config)


# --------------------------------------------------------------------- #
# Snapshot semantics
# --------------------------------------------------------------------- #


class TestEpochSnapshot:
    def test_initial_snapshot_is_epoch_zero(self):
        snapshot = EpochSnapshot()
        assert snapshot.epoch == 0
        assert snapshot.label_epoch("anything") == 0
        assert snapshot.changed_labels_since(0) == []

    def test_scoped_advance_touches_only_its_labels(self):
        manager = EpochManager()
        with manager.mutation({"bib"}):
            pass
        snapshot = manager.current
        assert snapshot.epoch == 1
        assert snapshot.label_epoch("bib") == 1
        assert snapshot.label_epoch("site") == 0
        assert snapshot.changed_labels_since(0) == ["bib"]

    def test_max_epoch_over_is_per_label(self):
        manager = EpochManager()
        with manager.mutation({"bib"}):
            pass
        with manager.mutation({"site"}):
            pass
        snapshot = manager.current
        assert snapshot.max_epoch_over({"bib"}) == 1
        assert snapshot.max_epoch_over({"site"}) == 2
        assert snapshot.max_epoch_over({"bib", "site"}) == 2
        # Nothing can be proven untouched for an empty label set.
        assert snapshot.max_epoch_over(()) == snapshot.epoch

    def test_full_invalidation_moves_the_floor(self):
        manager = EpochManager()
        with manager.mutation({"bib"}):
            pass
        manager.rebuild()
        snapshot = manager.current
        assert snapshot.floor == snapshot.epoch == 2
        # A consumer cached before the floor must rebuild wholesale.
        assert snapshot.changed_labels_since(1) is None
        assert snapshot.label_epoch("never_touched") == snapshot.floor

    def test_mutation_publishes_even_when_the_body_raises(self):
        manager = EpochManager()
        with pytest.raises(RuntimeError):
            with manager.mutation({"bib"}):
                raise RuntimeError("half-applied")
        # The partial apply still invalidated downstream caches.
        assert manager.current.label_epoch("bib") == 1


class TestEpochLatching:
    def test_pinned_reader_blocks_apply_until_released(self):
        manager = EpochManager()
        applied = threading.Event()
        entered = threading.Event()

        def writer():
            entered.set()
            with manager.mutation({"bib"}):
                applied.set()

        with manager.pin() as snapshot:
            thread = threading.Thread(target=writer)
            thread.start()
            entered.wait(timeout=5)
            # The writer is waiting on our pin; give it a beat to
            # (incorrectly) apply if the latch were broken.
            assert not applied.wait(timeout=0.1)
            assert snapshot.epoch == 0
        thread.join(timeout=5)
        assert applied.is_set()
        assert manager.epoch == 1

    def test_readers_share_the_latch(self):
        manager = EpochManager()
        with manager.pin(), manager.pin():
            pass  # no deadlock, two concurrent pins
        assert manager.pins == 2

    def test_writer_not_starved_by_saturated_read_loop(self):
        # Regression: with reader preference, the unpin->re-pin gap of
        # a hot read loop is a few bytecodes and a waiting writer loses
        # the wakeup race indefinitely (observed as 1 mutation against
        # tens of thousands of queries).  Writer preference gates new
        # pins behind the waiting writer, so mutations make progress.
        manager = EpochManager()
        stop = threading.Event()
        finished = threading.Event()

        def reader():
            while not stop.is_set():
                with manager.pin():
                    time.sleep(0.001)

        def writer():
            for _ in range(5):
                with manager.mutation({"bib"}):
                    pass
            finished.set()

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        try:
            assert finished.wait(timeout=10), "mutations starved by readers"
        finally:
            stop.set()
            writer_thread.join(timeout=5)
            for thread in readers:
                thread.join(timeout=5)
        assert manager.epoch == 5


# --------------------------------------------------------------------- #
# Label-scoped plan retention
# --------------------------------------------------------------------- #


class TestScopedPlanRetention:
    def test_plans_over_untouched_labels_survive_mutations(self):
        index = build_index()
        processor = FixQueryProcessor(index)
        processor.query("//book/title")  # plan over {bib}
        index.add_document(parse_xml("<site><people><robot/></people></site>"))
        result = processor.query("//book/title")
        assert result.plan_cached  # untouched label: no re-plan
        assert processor.plan_cache.scoped_retained >= 1

    def test_plans_over_touched_labels_are_invalidated(self):
        index = build_index()
        processor = FixQueryProcessor(index)
        processor.query("//book/title")
        index.add_document(parse_xml("<bib><book><isbn/></book></bib>"))
        result = processor.query("//book/title")
        assert not result.plan_cached  # bib was touched: re-planned
        # ... and the fresh plan reflects the new entries.
        assert result.candidate_count >= 2

    def test_rebuild_invalidates_everything(self):
        index = build_index()
        processor = FixQueryProcessor(index)
        processor.query("//book/title")
        index.rebuild()
        assert not processor.query("//book/title").plan_cached


# --------------------------------------------------------------------- #
# Histogram maintenance (sound and tight)
# --------------------------------------------------------------------- #


class TestHistogramRefresh:
    def test_refresh_matches_a_from_scratch_rebuild(self):
        index = build_index()
        histogram = FeatureHistogram(index)
        pinned = index.epochs.current
        index.remove_document(1)  # a bib document
        stale = index.epochs.current.changed_labels_since(pinned.epoch)
        histogram.refresh(index, stale)
        fresh = FeatureHistogram(index)
        assert histogram._histograms.keys() == fresh._histograms.keys()
        for label in fresh._histograms:
            got, want = histogram._histograms[label], fresh._histograms[label]
            assert (got.lo, got.hi, got.counts, got.unbounded) == (
                want.lo,
                want.hi,
                want.counts,
                want.unbounded,
            ), label

    def test_removal_tightens_the_label_endpoints(self):
        # Removing entries can only shrink the recorded λ_max range, so
        # the may_contain skip test stays sound *and* gets tighter.
        index = build_index()
        histogram = FeatureHistogram(index)
        before = histogram._histograms["bib"]
        index.remove_document(1)
        histogram.refresh(index, ["bib"])
        after = histogram._histograms["bib"]
        assert after.hi <= before.hi
        assert after.lo >= before.lo
        assert sum(after.counts) + after.unbounded < sum(
            before.counts
        ) + before.unbounded

    def test_emptied_label_loses_its_slice(self):
        index = build_index()
        histogram = FeatureHistogram(index)
        assert "site" in histogram._histograms
        index.remove_document(2)  # the only site document
        histogram.refresh(index, ["site"])
        assert "site" not in histogram._histograms

    def test_processor_histogram_refreshes_per_label(self):
        # Collection-mode intersections consult the histogram; churn on
        # one label must not leave estimates stale for it.
        store = PrimaryXMLStore()
        for source in BIB_DOCS + SITE_DOCS:
            store.add_document(parse_xml(source))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        processor = FixQueryProcessor(index)
        key = index.query_features(twig_of("/site"))
        assert processor._estimate_candidates(key, True) == pytest.approx(1.0)
        index.remove_document(2)
        assert processor._estimate_candidates(key, True) == pytest.approx(0.0)

    def test_views_do_not_keep_their_index_in_a_cycle(self):
        # A cached view is handed its index per call.  One that stored
        # it would leave every dropped index (B-tree, pager, store) to
        # the cyclic collector instead of freeing it on last release.
        index = build_index()
        processor = FixQueryProcessor(index)
        processor.query("//book/title")
        index.spatial_view()  # cached on the index: must not point back
        released = weakref.ref(index)
        gc.disable()
        try:
            del index, processor
            assert released() is None
        finally:
            gc.enable()


# --------------------------------------------------------------------- #
# The spatial ablation view: rebuilt whenever the epoch has moved
# --------------------------------------------------------------------- #


class TestSpatialRefresh:
    def test_rtree_answers_track_mutations(self):
        index = build_index()
        view = index.spatial_view()
        assert index.spatial_view() is view  # the epoch stands: kept
        doc_id = index.add_document(
            parse_xml("<bib><thesis><title/></thesis></bib>")
        )
        key = index.query_features(twig_of("//thesis/title"))
        rebuilt = index.spatial_view()
        assert rebuilt is not view
        assert [e.pointer.doc_id for e in rebuilt.candidates_for_key(key)] == [
            doc_id
        ]
        index.remove_document(doc_id)
        assert list(index.spatial_view().candidates_for_key(key)) == []

    def test_emptied_label_drops_its_tree(self):
        index = build_index()
        view = index.spatial_view()
        assert "site" in view._trees
        index.remove_document(2)
        assert "site" not in index.spatial_view()._trees


# --------------------------------------------------------------------- #
# Metrics separation and the remove span
# --------------------------------------------------------------------- #


class TestIncrementalMetrics:
    def test_batch_build_counters_are_frozen_after_mutations(self):
        index = build_index()
        counters = index.obs.registry.snapshot()["counters"]
        batch_docs = counters["build.documents"]
        batch_entries = counters["build.entries"]
        index.add_document(parse_xml("<bib><misc/></bib>"))
        index.remove_document(0)
        counters = index.obs.registry.snapshot()["counters"]
        assert counters["build.documents"] == batch_docs
        assert counters["build.entries"] == batch_entries
        # Staging work: the add's; a removal generates nothing.
        assert counters["build.incremental.documents"] == 1
        assert counters["build.incremental.documents_removed"] == 1
        assert counters["build.incremental.entries_removed"] > 0

    def test_epoch_counters_publish(self):
        index = build_index()
        index.add_document(parse_xml("<bib><misc/></bib>"))
        processor = FixQueryProcessor(index)
        processor.query("//misc")
        counters = index.obs.registry.snapshot()["counters"]
        assert counters["epoch.mutations"] >= 1
        assert counters["epoch.pins"] >= 1


# --------------------------------------------------------------------- #
# Sharded coordinator epochs
# --------------------------------------------------------------------- #


class TestShardedEpochs:
    def test_mutation_bumps_only_the_owning_shards_epoch(self):
        index = build_sharded()
        before = index.epoch_vector()
        generation_before = index.generation
        doc_id = index.add_document(parse_xml("<bib><misc/></bib>"))
        after = index.epoch_vector()
        owner = index.shard_of(doc_id)
        changed = [
            shard_id
            for shard_id in range(index.shard_count)
            if after[shard_id].epoch != before[shard_id].epoch
        ]
        assert changed == [owner]
        # The coordinator epoch advanced by exactly one.
        assert index.generation == generation_before + 1

    def test_scatter_gather_answers_track_mutations(self):
        index = build_sharded()
        processor = FixQueryProcessor(index)
        doc_id = index.add_document(
            parse_xml("<bib><thesis><title/></thesis></bib>")
        )
        assert {
            p.doc_id for p in processor.query("//thesis/title").results
        } == {doc_id}
        index.remove_document(doc_id)
        assert processor.query("//thesis/title").results == []

    def test_histogram_cache_survives_mutations_to_other_shards(self):
        index = build_sharded()
        key = index.query_features(twig_of("//book"))
        list(index.candidates_for_key(key))  # populate per-shard histograms
        cached = [view.value for view in index._histograms]
        doc_id = index.add_document(parse_xml("<bib><misc/></bib>"))
        owner = index.shard_of(doc_id)
        list(index.candidates_for_key(key))
        for shard_id, view in enumerate(index._histograms):
            if shard_id != owner and cached[shard_id] is not None:
                # Untouched shard: the histogram object is reused.
                assert view.value is cached[shard_id]


# --------------------------------------------------------------------- #
# Concurrent mutation vs. query (the integration property)
# --------------------------------------------------------------------- #

CHURN_SOURCE = "<churn><part/><part/><part/></churn>"


def _churn_and_query(index, pushdown: bool = False):
    """Race a mutator (add+remove of a 4-entry document) against a
    querying thread; every observed answer must equal a quiesced state's
    answer — 0 or 3 parts — never a torn in-between."""
    processor = FixQueryProcessor(index, pushdown=pushdown)
    errors: list[BaseException] = []
    done = threading.Event()

    def mutate():
        try:
            for _ in range(12):
                doc_id = index.add_document(parse_xml(CHURN_SOURCE))
                index.remove_document(doc_id)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    observed: set[int] = set()
    thread = threading.Thread(target=mutate)
    thread.start()
    while not done.is_set():
        observed.add(len(processor.query("//part").results))
    thread.join(timeout=30)
    assert not errors, errors
    # Either snapshot's answer, never a mix of applied/unapplied entries.
    assert observed <= {0, 3}, observed
    # Quiesced rerun: all churn documents were removed again.
    assert processor.query("//part").results == []


class TestConcurrentMutation:
    def test_single_index_queries_see_whole_snapshots(self):
        _churn_and_query(build_index())

    def test_sharded_queries_see_whole_snapshots(self):
        _churn_and_query(build_sharded())

    def test_sharded_pushdown_queries_see_whole_snapshots(self):
        _churn_and_query(build_sharded(), pushdown=True)

    def test_concurrent_answers_match_quiesced_rerun(self):
        # Adds only (no removals), so the final state is deterministic:
        # every concurrent answer must be a prefix-consistent subset of
        # the quiesced answer, and the quiesced rerun must equal a
        # freshly built index over the same documents.
        index = build_index()
        processor = FixQueryProcessor(index)
        snapshots: list[frozenset[tuple[int, int]]] = []
        done = threading.Event()

        def mutate():
            try:
                for i in range(8):
                    index.add_document(parse_xml(CHURN_SOURCE))
            finally:
                done.set()

        thread = threading.Thread(target=mutate)
        thread.start()
        while not done.is_set():
            result = processor.query("//part")
            snapshots.append(
                frozenset((p.doc_id, p.node_id) for p in result.results)
            )
        thread.join(timeout=30)
        final = frozenset(
            (p.doc_id, p.node_id)
            for p in processor.query("//part").results
        )
        assert len(final) == 8 * 3
        for answer in snapshots:
            # Whole documents only: each answer is all-or-nothing per
            # churn document (3 parts each), and a subset of the final.
            assert answer <= final
            assert len(answer) % 3 == 0

    def test_quiesced_equivalence_to_rebuild(self):
        # After churn settles, the mutated index answers exactly like an
        # index built from scratch over the surviving documents.
        index = build_index()
        added = [
            index.add_document(parse_xml(CHURN_SOURCE)) for _ in range(3)
        ]
        index.remove_document(added[1])
        index.remove_document(0)

        store = PrimaryXMLStore()
        for doc_id in index.store.doc_ids():
            store.add_document(
                parse_xml(
                    serialize_fragment(
                        index.store.get_document(doc_id).root
                    )
                )
            )
        rebuilt = FixIndex.build(store, index.config)
        mutated_processor = FixQueryProcessor(index)
        for query in ("//part", "//book/title", "//person"):
            got = sorted(
                (p.doc_id, p.node_id)
                for p in mutated_processor.query(query).results
            )
            # Doc ids shift in the rebuilt store; compare by multiset of
            # node ids per matching document count instead.
            want = sorted(
                p.node_id
                for p in FixQueryProcessor(rebuilt).query(query).results
            )
            assert sorted(node_id for _, node_id in got) == want, query
