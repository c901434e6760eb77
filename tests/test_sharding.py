"""Sharded-index tests: scatter-gather answers must be pointer-identical
to the single-index answers for every shard count x worker count x
affinity, incremental maintenance and persistence included; damage in
one shard must surface as a typed :class:`ShardError` naming it.

The parallel-build contract is stricter than answer identity: for any
``shard_workers`` the staged entries AND the saved on-disk bytes must be
identical to the serial build, and refinement push-down must return the
same pointers as scatter-gather."""

from __future__ import annotations

import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    ShardedFixIndex,
)
from repro.errors import PageError, ShardError, StorageError
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml
from tests.test_structure_refine import index_scan_forced

_ROOTS = ["book", "article", "journal", "report"]

_QUERIES = [
    "/book/sec/p",
    "/article//year",
    "//sec/title",
    "//meta",
    "//sec[title]/p",
    "//nosuchlabel",
]


def _source(kind: int, sections: int, tag: int) -> str:
    root = _ROOTS[kind % len(_ROOTS)]
    body = "".join(
        f"<sec><title>t{tag}</title><p>x{i}</p></sec>"
        for i in range(sections)
    )
    return f"<{root}><meta><year>19{tag % 90 + 10}</year></meta>{body}</{root}>"


def _corpus(count: int = 36) -> list[str]:
    return [_source(i, i % 4 + 1, i * 7) for i in range(count)]


def _store(sources: list[str]) -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in sources:
        store.add_source(source)
    return store


def _answers(index, workers: int = 1) -> dict[str, list]:
    processor = FixQueryProcessor(index, workers=workers)
    return {query: processor.query(query).results for query in _QUERIES}


@pytest.fixture(scope="module")
def single_answers():
    index = FixIndex.build(_store(_corpus()), FixIndexConfig(depth_limit=0))
    return _answers(index)


class TestPointerIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_grid(self, shards, workers, single_answers):
        config = FixIndexConfig(depth_limit=0, shards=shards)
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        assert _answers(sharded, workers=workers) == single_answers

    @pytest.mark.parametrize("shards", [2, 5])
    def test_root_label_affinity(self, shards, single_answers):
        config = FixIndexConfig(
            depth_limit=0, shards=shards, shard_affinity="root-label"
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        assert _answers(sharded) == single_answers

    def test_depth_limited_mode(self):
        sources = _corpus(20)
        config = FixIndexConfig(depth_limit=3)
        single = FixIndex.build(_store(sources), config)
        sharded = ShardedFixIndex.build(
            _store(sources),
            FixIndexConfig(depth_limit=3, shards=4),
        )
        for query in ["/sec/title", "//sec/p", "/meta/year"]:
            expected = FixQueryProcessor(single).query(query).results
            got = FixQueryProcessor(sharded).query(query).results
            assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(
        kinds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=12,
        ),
        shards=st.integers(min_value=1, max_value=6),
        workers=st.sampled_from([1, 3]),
        shard_workers=st.sampled_from([1, 3]),
        affinity=st.sampled_from(["hash", "root-label"]),
    )
    def test_property(self, kinds, shards, workers, shard_workers, affinity):
        sources = [_source(*kind) for kind in kinds]
        single = FixIndex.build(
            _store(sources), FixIndexConfig(depth_limit=0)
        )
        sharded = ShardedFixIndex.build(
            _store(sources),
            FixIndexConfig(
                depth_limit=0,
                shards=shards,
                shard_affinity=affinity,
                shard_workers=shard_workers,
            ),
        )
        assert _answers(sharded, workers=workers) == _answers(single)


class TestParallelBuild:
    @pytest.mark.parametrize("shard_workers", [2, 4])
    def test_worker_grid_matches_single(self, shard_workers, single_answers):
        config = FixIndexConfig(
            depth_limit=0, shards=4, shard_workers=shard_workers
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        assert _answers(sharded) == single_answers

    def test_entries_identical_to_serial(self):
        sources = _corpus(20)
        builds = [
            ShardedFixIndex.build_from_sources(
                sources,
                FixIndexConfig(depth_limit=0, shards=3, shard_workers=w),
            )
            for w in (1, 3)
        ]
        serial, parallel = builds
        for a, b in zip(serial.shards, parallel.shards):
            assert [(e.key, e.pointer) for e in a.iter_entries()] == [
                (e.key, e.pointer) for e in b.iter_entries()
            ]

    def test_on_disk_bytes_identical_to_serial(self, tmp_path):
        sources = _corpus(20)
        saved = {}
        for workers in (1, 4):
            config = FixIndexConfig(
                depth_limit=0,
                shards=3,
                shard_affinity="root-label",
                shard_workers=workers,
                spill_dir=os.fspath(tmp_path / f"spill-{workers}"),
            )
            sharded = ShardedFixIndex.build_from_sources(sources, config)
            out = os.fspath(tmp_path / f"out-{workers}")
            sharded.save(out)
            pages = {}
            for dirpath, _, names in os.walk(out):
                for name in names:
                    if name.endswith(".pages"):
                        path = os.path.join(dirpath, name)
                        with open(path, "rb") as handle:
                            pages[os.path.relpath(path, out)] = handle.read()
            saved[workers] = pages
        assert sorted(saved[1]) == sorted(saved[4])
        assert saved[1] == saved[4]

    def test_value_extended_parallel_build(self):
        sources = _corpus(16)
        builds = [
            ShardedFixIndex.build_from_sources(
                sources,
                FixIndexConfig(
                    depth_limit=0,
                    shards=3,
                    value_buckets=8,
                    shard_workers=w,
                ),
            )
            for w in (1, 2)
        ]
        assert _answers(builds[0]) == _answers(builds[1])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            FixIndexConfig(shard_workers=0)

    def test_worker_failure_names_shard(self, tmp_path, monkeypatch):
        # Damage one spilled shard store after routing but before the
        # build fan-out: the worker's reattach must fail, and the
        # coordinator must surface a ShardError naming that shard
        # instead of a raw pool traceback.
        victim_holder = []
        original = ShardedFixIndex._build_all

        def sabotage(self):
            victim = next(
                shard_id
                for shard_id, shard in enumerate(self.shards)
                if shard.store.document_count
            )
            victim_holder.append(victim)
            pager = self.shards[victim].store.pager
            pager.flush()
            with open(pager.path, "ab") as handle:
                handle.write(b"\x00" * 7)  # no longer whole pages
            original(self)

        monkeypatch.setattr(ShardedFixIndex, "_build_all", sabotage)
        config = FixIndexConfig(
            depth_limit=0,
            shards=3,
            shard_workers=2,
            spill_dir=os.fspath(tmp_path / "spill"),
        )
        with pytest.raises(ShardError) as excinfo:
            ShardedFixIndex.build_from_sources(_corpus(12), config)
        assert excinfo.value.shard == victim_holder[0]
        assert f"shard {victim_holder[0]}" in str(excinfo.value)
        assert "build failed" in str(excinfo.value)


class TestPushdown:
    def test_matches_single(self, single_answers):
        config = FixIndexConfig(
            depth_limit=0,
            shards=4,
            shard_affinity="root-label",
            shard_workers=2,
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        processor = FixQueryProcessor(sharded, pushdown=True)
        got = {}
        for query in _QUERIES:
            result = processor.query(query)
            got[query] = result.results
            assert result.pushdown
        assert got == single_answers

    def test_structural_join_refiner(self, single_answers):
        from repro.engine.structural_join import StructuralJoinEngine

        sharded = ShardedFixIndex.build(
            _store(_corpus()), FixIndexConfig(depth_limit=0, shards=3)
        )
        processor = FixQueryProcessor(
            sharded, StructuralJoinEngine(sharded.store), pushdown=True
        )
        got = {q: processor.query(q).results for q in _QUERIES}
        assert got == single_answers

    def test_plain_index_ignores_pushdown(self, single_answers):
        index = FixIndex.build(
            _store(_corpus()), FixIndexConfig(depth_limit=0)
        )
        processor = FixQueryProcessor(index, pushdown=True)
        result = processor.query("//sec/title")
        assert not result.pushdown
        assert result.results == single_answers["//sec/title"]

    def test_skips_shards_and_counts(self):
        config = FixIndexConfig(
            depth_limit=0, shards=4, shard_affinity="root-label"
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        FixQueryProcessor(sharded, pushdown=True).query("/book/sec/p")
        counters = sharded.obs.registry.snapshot()["counters"]
        assert counters.get("shards.skipped", 0) > 0
        assert counters.get("shards.visited", 0) >= 1


class TestScatterOrdering:
    def test_concurrent_scatter_matches_serial(self, single_answers):
        builds = [
            ShardedFixIndex.build(
                _store(_corpus()),
                FixIndexConfig(depth_limit=0, shards=4, shard_workers=w),
            )
            for w in (1, 4)
        ]
        serial, concurrent = builds
        assert _answers(concurrent) == single_answers
        counters = concurrent.obs.registry.snapshot()["counters"]
        assert counters.get("shards.visited", 0) > 0

    def test_anchored_query_skips_unrelated_shards(self):
        config = FixIndexConfig(
            depth_limit=0, shards=4, shard_affinity="root-label"
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        FixQueryProcessor(sharded).query("/book/sec/p")
        counters = sharded.obs.registry.snapshot()["counters"]
        assert counters.get("shards.skipped", 0) > 0
        assert counters.get("shards.visited", 0) >= 1

    def test_skipping_never_loses_answers(self, single_answers):
        config = FixIndexConfig(
            depth_limit=0, shards=8, shard_affinity="root-label"
        )
        sharded = ShardedFixIndex.build(_store(_corpus()), config)
        assert _answers(sharded) == single_answers


class TestIncrementalParity:
    def test_add_and_remove_match_single(self):
        sources = _corpus(24)
        extra = [_source(1, 2, 99), _source(3, 1, 77)]
        single = FixIndex.build(
            _store(sources), FixIndexConfig(depth_limit=0)
        )
        sharded = ShardedFixIndex.build(
            _store(sources), FixIndexConfig(depth_limit=0, shards=3)
        )
        for source in extra:
            assert sharded.add_document(parse_xml(source)) == (
                single.add_document(parse_xml(source))
            )
        assert single.remove_document(5) == sharded.remove_document(5)
        assert _answers(sharded, workers=2) == _answers(single)
        with pytest.raises(Exception):
            sharded.shard_of(5)  # removed -> unroutable

    def test_rebuild_equals_incremental(self):
        sources = _corpus(18)
        incremental = ShardedFixIndex.build_from_sources(
            sources[:12], FixIndexConfig(depth_limit=0, shards=4)
        )
        for source in sources[12:]:
            incremental.add_document(parse_xml(source))
        rebuilt = ShardedFixIndex.build_from_sources(
            sources, FixIndexConfig(depth_limit=0, shards=4)
        )
        assert _answers(incremental) == _answers(rebuilt)


    def test_concurrent_adds_reserve_distinct_ids(self):
        """Two threads adding at once: every add gets its own document
        id (reserved before staging), every routed id resolves in the
        shard the table names, and the index answers as one built from
        the same documents in id order."""
        config = FixIndexConfig(depth_limit=0, shards=3)
        initial = _corpus(4)
        index = ShardedFixIndex.build_from_sources(initial, config)
        extra = [_source(i, i % 3 + 1, i * 11) for i in range(56)]
        added: dict[int, str] = {}
        errors: list[BaseException] = []

        def adder(sources: list[str]) -> None:
            try:
                for source in sources:
                    added[index.add_document(parse_xml(source))] = source
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=adder, args=(extra[k::2],)) for k in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(added) == list(range(4, 60))
        assert len(index.routing) == 60
        for doc_id in added:
            shard = index.shard_for_document(doc_id)
            assert shard.store.get_document(doc_id).doc_id == doc_id
            assert shard.structure.slots_of(doc_id) is not None
        fresh = ShardedFixIndex.build_from_sources(
            initial + [added[doc_id] for doc_id in sorted(added)], config
        )
        assert _answers(index) == _answers(fresh)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, single_answers):
        sharded = ShardedFixIndex.build(
            _store(_corpus()), FixIndexConfig(depth_limit=0, shards=4)
        )
        directory = os.fspath(tmp_path / "idx")
        sharded.save(directory)
        loaded = ShardedFixIndex.load(directory)
        assert loaded.shard_count == 4
        assert _answers(loaded, workers=4) == single_answers
        loaded.add_document(parse_xml(_source(0, 2, 5)))

    def test_spill_build_under_tight_pool(self, tmp_path):
        # Documents large enough that each shard's store outgrows the
        # 4-page buffer pool, forcing real evictions during the build.
        sources = [_source(i, 120, i) for i in range(24)]
        single = FixIndex.build(
            _store(sources), FixIndexConfig(depth_limit=0)
        )
        config = FixIndexConfig(
            depth_limit=0,
            shards=4,
            spill_dir=os.fspath(tmp_path / "spill"),
            page_cache_pages=4,
            btree_node_cache=4,
        )
        sharded = ShardedFixIndex.build(_store(sources), config)
        assert _answers(sharded) == _answers(single)
        assert sharded.pager_stats().evictions > 0

    def test_shard_workers_roundtrip_and_override(self, tmp_path):
        sharded = ShardedFixIndex.build(
            _store(_corpus(12)),
            FixIndexConfig(depth_limit=0, shards=2, shard_workers=3),
        )
        directory = os.fspath(tmp_path / "idx")
        sharded.save(directory)
        assert ShardedFixIndex.load(directory).config.shard_workers == 3
        override = ShardedFixIndex.load(directory, shard_workers=1)
        assert override.config.shard_workers == 1

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedFixIndex.load(os.fspath(tmp_path / "nothing"))

    def test_clustered_is_rejected(self):
        with pytest.raises(ValueError):
            FixIndexConfig(depth_limit=0, shards=2, clustered=True)


class TestShardDamage:
    @pytest.mark.parametrize("pushdown", [False, True])
    @pytest.mark.parametrize("shard_workers", [1, 2])
    def test_corrupted_shard_page_names_the_shard(
        self, tmp_path, pushdown, shard_workers
    ):
        sharded = ShardedFixIndex.build(
            _store(_corpus()), FixIndexConfig(depth_limit=0, shards=4)
        )
        directory = os.fspath(tmp_path / "idx")
        sharded.save(directory)
        victim = sharded.shard_of(0)
        pages = os.path.join(directory, f"shard-{victim}", "btree.pages")
        size = os.path.getsize(pages)
        with open(pages, "wb") as handle:  # every page becomes garbage
            handle.write(b"\xff" * size)
        loaded = ShardedFixIndex.load(directory, shard_workers=shard_workers)
        processor = FixQueryProcessor(loaded, pushdown=pushdown)
        # A structure scan reads no B-tree page; the index scan does.
        intact = FixQueryProcessor(sharded).query("//meta").results
        assert processor.query("//meta").results == intact
        with index_scan_forced(), pytest.raises(ShardError) as excinfo:
            processor.query("//meta")
        assert excinfo.value.shard == victim
        assert f"shard {victim}" in str(excinfo.value)
        assert isinstance(excinfo.value, PageError)  # typed page damage

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_dispatcher_names_the_failing_shard(self, concurrency):
        sharded = ShardedFixIndex.build(
            _store(_corpus(8)), FixIndexConfig(depth_limit=0, shards=3)
        )

        def per_shard(shard_id):
            if shard_id == 1:
                raise PageError("torn page")
            return shard_id

        visited = sharded.obs.registry.counter("shards.visited")
        before = visited.value
        results = sharded.dispatch_shards(
            [2, 1, 0], per_shard, "probe", concurrency
        )
        assert next(results) == 2  # dispatch order, not shard order
        with pytest.raises(ShardError) as excinfo:
            next(results)
        assert excinfo.value.shard == 1
        assert "shard 1: probe failed: torn page" in str(excinfo.value)
        # A visit is counted at dispatch: threads dispatch every shard
        # up front, the serial loop stops at the failure.
        assert visited.value - before == (3 if concurrency > 1 else 2)

    def test_missing_shard_directory_fails_load(self, tmp_path):
        sharded = ShardedFixIndex.build(
            _store(_corpus(8)), FixIndexConfig(depth_limit=0, shards=2)
        )
        directory = os.fspath(tmp_path / "idx")
        sharded.save(directory)
        import shutil

        shutil.rmtree(os.path.join(directory, "shard-1"))
        with pytest.raises(ShardError) as excinfo:
            ShardedFixIndex.load(directory)
        assert excinfo.value.shard == 1


class TestShardedCLI:
    def test_build_query_stats(self, tmp_path, capsys):
        directory = os.fspath(tmp_path / "idx")
        xml = os.fspath(tmp_path / "doc%d.xml")
        files = []
        for i, source in enumerate(_corpus(10)):
            path = xml % i
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(source)
            files.append(path)
        assert main(
            ["build", "--xml", *files, "--out", directory,
             "--shards", "3", "--shard-workers", "2",
             "--page-cache-pages", "64"]
        ) == 0
        assert main(["query", directory, "//sec/title", "--workers", "2"]) == 0
        assert main(
            ["query", directory, "//sec/title", "--pushdown",
             "--shard-workers", "2"]
        ) == 0
        assert main(["stats", directory]) == 0
        output = capsys.readouterr().out
        assert "shards:         3" in output
        assert "pushdown" in output
        assert "balance:" in output
        assert "buffer pool" in output
        assert main(["verify", directory, "--fast"]) == 0

    def test_stats_warns_on_empty_shards(self, tmp_path, capsys):
        directory = os.fspath(tmp_path / "idx")
        path = os.fspath(tmp_path / "doc.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_source(0, 2, 1))  # one root label only
        assert main(
            ["build", "--xml", path, "--out", directory,
             "--shards", "3", "--shard-affinity", "root-label"]
        ) == 0
        assert main(["stats", directory]) == 0
        output = capsys.readouterr().out
        assert "hold no entries" in output
        assert "root-label affinity" in output


class TestShardBalance:
    def test_balanced(self):
        from repro.core.stats import shard_balance

        sharded = ShardedFixIndex.build(
            _store(_corpus()), FixIndexConfig(depth_limit=0, shards=4)
        )
        balance = shard_balance(sharded)
        assert sum(balance["documents"]) == 36
        assert sum(balance["entries"]) == sharded.entry_count
        assert balance["empty_shards"] == []
        assert balance["skew"] >= 1.0

    def test_empty_shards_give_infinite_skew(self):
        import math

        from repro.core.stats import shard_balance

        # One distinct root label cannot populate 4 root-label shards.
        sources = [_source(0, 2, i) for i in range(8)]
        sharded = ShardedFixIndex.build_from_sources(
            sources,
            FixIndexConfig(
                depth_limit=0, shards=4, shard_affinity="root-label"
            ),
        )
        balance = shard_balance(sharded)
        assert len(balance["empty_shards"]) == 3
        assert math.isinf(balance["skew"])
        gauges = sharded.obs.registry.snapshot()["gauges"]
        assert gauges.get("shards.empty") == 3
