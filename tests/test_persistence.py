"""Tests for index persistence (save/load round-trips)."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import StorageError
from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    load_index,
    save_index,
)
from repro.query import twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml

SITE_XML = (
    "<site><regions><asia>"
    "<item><name/><mailbox><mail><to/></mail></mailbox></item>"
    "<item><payment/><quantity/></item>"
    "</asia></regions>"
    "<people><person><name/><phone/></person></people></site>"
)


def build_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    store.add_document(parse_xml(SITE_XML))
    store.add_document(parse_xml("<site><people><person><name/></person></people></site>"))
    return store


QUERIES = ["//item[name]/mailbox", "//person[phone]", "//item", "//missing"]


class TestUnclusteredRoundtrip:
    def test_results_identical_after_reload(self, tmp_path):
        store = build_store()
        original = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)

        reloaded = load_index(directory, store)
        assert reloaded.entry_count == original.entry_count
        for query in QUERIES:
            twig = twig_of(query)
            left = sorted(
                (e.pointer, e.key.range.lmax) for e in original.candidates(twig)
            )
            right = sorted(
                (e.pointer, e.key.range.lmax) for e in reloaded.candidates(twig)
            )
            assert left == right, query

    def test_full_pipeline_after_reload(self, tmp_path):
        store = build_store()
        original = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        for query in QUERIES:
            left = {p for p in FixQueryProcessor(original).query(query).results}
            right = {p for p in FixQueryProcessor(reloaded).query(query).results}
            assert left == right, query

    def test_encoder_restored(self, tmp_path):
        store = build_store()
        original = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        assert len(reloaded.encoder) == len(original.encoder)
        assert reloaded.encoder.lookup("item", "name") == original.encoder.lookup(
            "item", "name"
        )

    def test_config_restored(self, tmp_path):
        store = build_store()
        original = FixIndex.build(
            store, FixIndexConfig(depth_limit=5, value_buckets=7)
        )
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        assert reloaded.config == original.config
        assert reloaded.value_hasher is not None
        assert reloaded.value_hasher.buckets == 7

    def test_report_numbers_survive(self, tmp_path):
        store = build_store()
        original = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        assert reloaded.report.seconds == original.report.seconds
        assert reloaded.report.stats.entries == original.report.stats.entries
        # The saved section is the report's own dict, restored whole,
        # and the registry is told at load.
        assert reloaded.report.as_dict() == original.report.as_dict()
        counters = reloaded.obs.registry.snapshot()["counters"]
        assert counters["build.phase_seconds.eigen"] == original.report.timings.eigen
        assert counters["build.cache.hits"] == original.report.stats.cache_hits

        # A report section as the first format wrote it, with a phase no
        # version times any more: the additive fields read as zero.
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["report"] = {
            "seconds": 1.5, "entries": 3, "oversized_patterns": 0,
            "phases": {"eigen": 0.25, "copy": 9.0},
        }
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        old = load_index(directory, store)
        assert old.report.seconds == 1.5 and old.report.stats.cache_hits == 0
        assert old.report.timings == type(old.report.timings)(eigen=0.25)


class TestClusteredRoundtrip:
    def test_clustered_units_readable_after_reload(self, tmp_path):
        store = build_store()
        original = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=True)
        )
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        assert reloaded.clustered_store is not None
        assert reloaded.clustered_store.unit_count == original.clustered_store.unit_count
        for entry in reloaded.iter_entries():
            unit = reloaded.clustered_store.get_unit(entry.record)
            assert unit.root.tag == entry.key.root_label

    def test_clustered_queries_after_reload(self, tmp_path):
        store = build_store()
        original = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=True)
        )
        directory = os.fspath(tmp_path / "idx")
        save_index(original, directory)
        reloaded = load_index(directory, store)
        for query in QUERIES:
            left = {p for p in FixQueryProcessor(original).query(query).results}
            right = {p for p in FixQueryProcessor(reloaded).query(query).results}
            assert left == right, query


class TestPersistenceErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            load_index(os.fspath(tmp_path / "nothing"), build_store())

    def test_corrupt_metadata(self, tmp_path):
        directory = tmp_path / "idx"
        directory.mkdir()
        (directory / "meta.json").write_text("{ not json")
        with pytest.raises(StorageError):
            load_index(os.fspath(directory), build_store())

    def test_version_mismatch(self, tmp_path):
        store = build_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        directory = os.fspath(tmp_path / "idx")
        save_index(index, directory)
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["format_version"] = 99
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(StorageError):
            load_index(directory, store)

    def test_clustered_missing_pages(self, tmp_path):
        store = build_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4, clustered=True))
        directory = os.fspath(tmp_path / "idx")
        save_index(index, directory)
        os.remove(os.path.join(directory, "clustered.pages"))
        with pytest.raises(StorageError):
            load_index(directory, store)
