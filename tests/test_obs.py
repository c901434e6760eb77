"""Tests for the unified tracing + metrics layer (``repro.obs``).

The contracts under test (DESIGN.md §10):

* spans nest correctly, including when the traced body raises;
* worker-pool traces merge deterministically, and tracing never
  perturbs the build's byte-identity or the query pipeline's
  pointer-ordered results;
* disabled mode emits nothing (the no-op span is a cached singleton)
  while returning identical answers;
* the counter blocks (``PhaseTimings``, ``PagerStats``, ...) share one
  snapshot / delta / merge / publish, and a build's and a query's
  registry carries a fixed set of names;
* a flushed JSONL trace round-trips through the ``repro trace``
  aggregation, reproducing the build report's phase totals.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    PruningMetrics,
)
from repro.btree.tree import BTreeStats
from repro.core.construction import BUILD_PHASES, PhaseTimings
from repro.engine import EngineStats, NavigationalEngine
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    Obs,
    ObsConfig,
    Tracer,
    read_trace,
    scan_trace,
)
from repro.obs.report import format_trace_report, summarize_trace_file
from repro.storage import PrimaryXMLStore
from repro.storage.pager import PagerStats
from repro.xmltree import parse_xml

DOCS = [
    "<bib><article><author><email/></author><title/></article></bib>",
    "<bib><article><author><phone/></author><title/></article></bib>",
    "<bib><book><author><affiliation/></author><title/></book></bib>",
    "<site><regions><item><name/><mailbox><mail/></mailbox></item>"
    "<item><name/></item></regions></site>",
    "<bib><www><title/></www></bib>",
]

QUERIES = ["//article[author]", "//author", "//item/name", "/bib/book"]


def corpus() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in DOCS:
        store.add_document(parse_xml(source))
    return store


def items_of(index: FixIndex) -> list[tuple[bytes, bytes]]:
    return [(bytes(key), bytes(value)) for key, value in index.btree.items()]


def span_events(tracer: Tracer) -> list[dict]:
    return [e for e in tracer.events if e["type"] == "span"]


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(7)
        registry.sketch("s").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7
        assert snap["sketches"]["s"]["count"] == 1
        # The sketch is the only distribution instrument.
        assert sorted(snap) == ["counters", "gauges", "sketches"]
        assert not hasattr(registry, "histogram")

    def test_counter_is_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_sync_counter_is_idempotent(self):
        registry = MetricsRegistry()
        registry.sync_counter("total", 10)
        registry.sync_counter("total", 10)
        registry.sync_counter("total", 13)
        assert registry.counter("total").value == 13

    def test_sync_counter_clamps_backwards_totals(self):
        registry = MetricsRegistry()
        registry.sync_counter("total", 10)
        registry.sync_counter("total", 4)  # the source was reset
        assert registry.counter("total").value == 10
        registry.sync_counter("total", 12)
        assert registry.counter("total").value == 12

    def test_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        a.gauge("size").set(1)
        a.sketch("s").observe(0.5)
        b.counter("n").inc(3)
        b.gauge("size").set(9)
        b.sketch("s").observe(2.0)
        incoming = b.snapshot()
        # A section this version has no instrument for (a trace written
        # when there were fixed-bucket histograms) is skipped.
        incoming["histograms"] = {
            "h": {"bounds": [1.0], "counts": [1, 1], "count": 2, "sum": 2.5}
        }
        a.merge_snapshot(incoming)
        snap = a.snapshot()
        assert snap["counters"]["n"] == 5
        assert snap["gauges"]["size"] == 9  # last write wins
        assert snap["sketches"]["s"]["count"] == 2
        assert snap["sketches"]["s"]["sum"] == pytest.approx(2.5)
        assert "histograms" not in snap


# --------------------------------------------------------------------- #
# Tracer and spans
# --------------------------------------------------------------------- #


class TestSpans:
    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        names = [e["name"] for e in span_events(tracer)]
        assert names == ["inner", "sibling", "outer"]  # close order
        assert span_events(tracer)[-1]["parent"] is None

    def test_exception_closes_span_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("dying"):
                    raise RuntimeError("boom")
        events = {e["name"]: e for e in span_events(tracer)}
        assert events["dying"]["error"] == "RuntimeError"
        assert events["outer"]["error"] == "RuntimeError"
        assert tracer.current_id is None  # stack fully unwound

    def test_sibling_after_crashed_child_is_not_orphaned(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with pytest.raises(ValueError):
                with tracer.span("crashed"):
                    raise ValueError()
            with tracer.span("survivor") as survivor:
                assert survivor.parent_id == outer.span_id

    def test_disabled_tracer_returns_cached_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", big_attr=list(range(100)))
        assert span is NOOP_SPAN
        assert tracer.span("other") is NOOP_SPAN
        with span as s:
            s.set(x=1)
        assert tracer.events == []

    def test_absorb_remaps_and_reparents(self):
        worker = Tracer(proc="worker-0")
        with worker.span("build.doc"):
            with worker.span("build.eigen.batch"):
                pass
        coordinator = Tracer()
        with coordinator.span("build.stage") as stage:
            coordinator.absorb(
                list(worker.events), parent_id=coordinator.current_id
            )
            stage_id = stage.span_id
        merged = {e["name"]: e for e in span_events(coordinator)}
        assert merged["build.doc"]["parent"] == stage_id
        assert merged["build.eigen.batch"]["parent"] == merged["build.doc"]["id"]
        assert merged["build.doc"]["proc"] == "worker-0"
        assert merged["build.doc"]["run"] == coordinator.run

    def test_absorb_concatenated_multiworker_events(self):
        # Both call sites (parallel_stage, parallel_refine) ship the
        # concatenation of ALL workers' event lists in one absorb()
        # call, and every worker numbers its spans from 1 — the remap
        # must not collide across workers.
        workers = []
        for worker_id in range(3):
            worker = Tracer(proc=f"worker-{worker_id}")
            with worker.span("build.doc", doc=worker_id):
                with worker.span("build.eigen.batch"):
                    pass
            workers.append(worker)
        combined = [e for w in workers for e in w.events]

        coordinator = Tracer()
        with coordinator.span("build.stage") as stage:
            coordinator.absorb(combined, parent_id=coordinator.current_id)
            stage_id = stage.span_id
        with coordinator.span("build.insert"):
            pass

        events = span_events(coordinator)
        ids = [e["id"] for e in events]
        assert len(ids) == len(set(ids)), "span ids collided in the merge"
        for worker_id in range(3):
            by_name = {
                e["name"]: e
                for e in events
                if e["proc"] == f"worker-{worker_id}"
            }
            assert by_name["build.doc"]["parent"] == stage_id
            assert (
                by_name["build.eigen.batch"]["parent"]
                == by_name["build.doc"]["id"]
            )
            assert by_name["build.eigen.batch"]["id"] != (
                by_name["build.eigen.batch"]["parent"]
            )


# --------------------------------------------------------------------- #
# Counter blocks
# --------------------------------------------------------------------- #


class TestPhaseTimingsView:
    def test_merge_accumulates(self):
        a = PhaseTimings(parse=1.0)
        b = PhaseTimings(parse=0.5, insert=2.0)
        a.merge(b)
        assert a.parse == 1.5
        assert a.insert == 2.0
        assert set(a.as_dict()) == set(BUILD_PHASES)


@pytest.mark.parametrize(
    "block_type", [PagerStats, BTreeStats, EngineStats, PhaseTimings]
)
def test_counter_block_carries_every_field(block_type):
    """snapshot -> mutate -> delta, combine and publish reach every
    field of the dataclass: one added to a block and not carried by the
    shared base fails here."""
    names = [f.name for f in dataclasses.fields(block_type)]
    block = block_type(**{name: i + 1 for i, name in enumerate(names)})

    before = block.snapshot()
    assert before == block and before is not block
    for i, name in enumerate(names):
        setattr(block, name, getattr(block, name) + 10 * (i + 1))
    assert block.delta(before) == block_type(
        **{name: 10 * (i + 1) for i, name in enumerate(names)}
    )
    assert before == block_type(**{name: i + 1 for i, name in enumerate(names)})

    total = block_type.combine([block, before, before])
    for name in names:
        assert getattr(total, name) == getattr(block, name) + 2 * getattr(before, name)
    assert block_type.combine([]) == block_type()

    registry = MetricsRegistry()
    block.publish(registry)
    once = registry.snapshot()
    block.publish(registry)  # idempotent: a total, synced by delta
    assert registry.snapshot() == once
    for name in names:
        assert once["counters"][block_type.PREFIX + name] == getattr(block, name)
    block.publish(registry, prefix="other.")
    assert registry.snapshot()["counters"]["other." + names[0]] == getattr(
        block, names[0]
    )


#: the instruments of one build + a few queries, as the commit before
#: the registry became the only sink published them (its two
#: fixed-bucket histograms were a separate section).
BUILD_AND_QUERY_COUNTERS = [
    "btree.deletes", "btree.inserts", "btree.leaf_scans",
    "btree.node_evictions", "btree.node_visits", "btree.splits",
    "build.bisim_vertices", "build.cache.hits", "build.cache.misses",
    "build.documents", "build.eigen.batch_size.1", "build.eigen.batch_size.2",
    "build.eigen.batches", "build.eigen.computations", "build.entries",
    "build.oversized_patterns", "build.phase_seconds.bisim",
    "build.phase_seconds.eigen", "build.phase_seconds.encode",
    "build.phase_seconds.insert", "build.phase_seconds.matrix",
    "build.phase_seconds.parse", "build.phase_seconds.unfold",
    "epoch.invalidations.full", "epoch.invalidations.scoped",
    "epoch.mutations", "epoch.pins", "epoch.plans_retained",
    "pager.allocations", "pager.cache_hits", "pager.evictions",
    "pager.logical_reads", "pager.logical_writes", "pager.physical_reads",
    "pager.physical_writes", "plan_cache.hits", "plan_cache.misses",
    "plan_cache.scoped_retained", "query.access_path.structure_scan",
    "query.candidates", "query.count",
    "query.documents_fetched", "query.phase_seconds.plan",
    "query.phase_seconds.prune", "query.phase_seconds.refine",
    "query.plan_cache.misses", "query.refine.dag_reused",
    "query.refine.dag_verdicts", "query.refine.fetches_avoided",
    "query.results",
]
BUILD_AND_QUERY_GAUGES = [
    "epoch.current", "index.btree_bytes", "index.entries",
    "index.generation", "pager.hit_rate", "plan_cache.plans",
    "query.workers",
]
BUILD_AND_QUERY_SKETCHES = [
    "build.doc_entries", "build.doc_seconds", "query.plan_seconds",
    "query.prune_seconds", "query.refine_seconds", "query.seconds",
]


class TestRegistryIsTheOnlySink:
    def run(self, workers: int):
        index = FixIndex.build(
            corpus(), FixIndexConfig(depth_limit=4, workers=workers)
        )
        processor = FixQueryProcessor(index)
        for query in QUERIES:
            processor.query(query)
        return index, index.obs.registry.snapshot()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_names_and_report_agreement(self, workers):
        index, snapshot = self.run(workers)
        assert sorted(snapshot["counters"]) == BUILD_AND_QUERY_COUNTERS
        assert sorted(snapshot["gauges"]) == BUILD_AND_QUERY_GAUGES
        assert sorted(snapshot["sketches"]) == BUILD_AND_QUERY_SKETCHES
        counters, stats = snapshot["counters"], index.report.stats
        assert counters["build.entries"] == stats.entries
        assert counters["build.eigen.computations"] == stats.eigen_computations
        assert counters["build.cache.hits"] == stats.cache_hits
        assert counters["query.count"] == len(QUERIES)
        # Phase seconds are plain floats, published once the build ends.
        assert {
            phase: counters["build.phase_seconds." + phase]
            for phase in BUILD_PHASES
        } == index.report.timings.as_dict()

    def test_worker_count_does_not_change_the_counts(self):
        # Eigensolves and cache hits depend on how documents fall into
        # worker-local caches; what is indexed and answered does not.
        (_, serial), (_, fanned) = self.run(1), self.run(2)
        for name in (
            "build.entries", "build.documents", "build.bisim_vertices",
            "query.candidates", "query.results", "query.refine.dag_verdicts",
        ):
            assert serial["counters"][name] == fanned["counters"][name], name

    def test_timings_cross_a_process_boundary_as_seven_floats(self):
        # A worker's StagedBuild pickles its phase seconds, not the
        # registry (sketches and all) they are published into.
        index, _ = self.run(1)
        timings = index.report.timings
        shipped = pickle.loads(pickle.dumps(timings))
        assert shipped == timings
        assert vars(shipped) == timings.as_dict()


# --------------------------------------------------------------------- #
# Satellite: division-guard consistency
# --------------------------------------------------------------------- #


class TestPruningMetricsGuards:
    def test_zero_over_zero_stays_zero(self):
        metrics = PruningMetrics(ent=0, cdt=0, rst=0)
        assert metrics.sel == 0.0
        assert metrics.pp == 0.0
        assert metrics.fpr == 0.0

    def test_nonzero_numerator_over_zero_is_nan(self):
        assert math.isnan(PruningMetrics(ent=0, cdt=3, rst=0).pp)
        assert math.isnan(PruningMetrics(ent=0, cdt=0, rst=2).sel)
        assert math.isnan(PruningMetrics(ent=10, cdt=0, rst=2).fpr)

    def test_normal_cases_unchanged(self):
        metrics = PruningMetrics(ent=10, cdt=4, rst=2)
        assert metrics.sel == pytest.approx(1 - 2 / 10)
        assert metrics.pp == pytest.approx(1 - 4 / 10)
        assert metrics.fpr == pytest.approx(1 - 2 / 4)


# --------------------------------------------------------------------- #
# Pipeline integration
# --------------------------------------------------------------------- #


class TestDisabledMode:
    def test_emits_nothing_and_answers_match(self, tmp_path):
        store = corpus()
        traced = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, obs=ObsConfig(trace=True))
        )
        silent = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        assert silent.obs.tracer.events == []
        assert traced.obs.tracer.events != []
        assert items_of(silent) == items_of(traced)
        for query in QUERIES:
            assert (
                FixQueryProcessor(silent).query(query).results
                == FixQueryProcessor(traced).query(query).results
            )
        # No path + tracing off -> flush writes no file, reports 0 lines.
        assert silent.obs.flush(str(tmp_path / "unused.jsonl")) == 0
        assert not (tmp_path / "unused.jsonl").exists()


class TestWorkerTraceMerge:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_build_trace_covers_every_document(self, workers):
        index = FixIndex.build(
            corpus(),
            FixIndexConfig(
                depth_limit=4, workers=workers, obs=ObsConfig(trace=True)
            ),
        )
        events = span_events(index.obs.tracer)
        docs = [e for e in events if e["name"] == "build.doc"]
        assert len(docs) == len(DOCS)
        # Chunk-ordered absorption: doc spans appear in doc_id order.
        assert [e["attrs"]["doc"] for e in docs] == sorted(
            e["attrs"]["doc"] for e in docs
        )
        build = next(e for e in events if e["name"] == "build")
        assert build["parent"] is None

    def test_parallel_and_serial_traces_agree_structurally(self):
        def doc_procs(workers: int) -> list[str]:
            index = FixIndex.build(
                corpus(),
                FixIndexConfig(
                    depth_limit=4, workers=workers, obs=ObsConfig(trace=True)
                ),
            )
            return [
                e["proc"]
                for e in span_events(index.obs.tracer)
                if e["name"] == "build.doc"
            ]

        assert doc_procs(1) == ["main"] * len(DOCS)
        parallel = doc_procs(4)
        assert len(parallel) == len(DOCS)
        assert all(proc.startswith("worker-") for proc in parallel)
        # Chunk order is deterministic: same assignment every run.
        assert parallel == doc_procs(4)

    def test_traced_parallel_build_is_byte_identical(self):
        store = corpus()
        baseline = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        traced = FixIndex.build(
            store,
            FixIndexConfig(
                depth_limit=4, workers=3, obs=ObsConfig(trace=True)
            ),
        )
        assert items_of(baseline) == items_of(traced)

    def test_traced_parallel_refine_matches_serial(self):
        index = FixIndex.build(corpus(), FixIndexConfig(depth_limit=4))
        obs = Obs(trace=True)
        # An explicit refiner: the tree path is the one that fans out.
        parallel = FixQueryProcessor(
            index, refiner=NavigationalEngine(index.store), workers=2, obs=obs
        )
        serial = FixQueryProcessor(index)
        for query in QUERIES:
            assert parallel.query(query).results == serial.query(query).results
        chunk_spans = [
            e
            for e in span_events(obs.tracer)
            if e["name"] == "query.refine.chunk"
        ]
        assert chunk_spans, "worker refine spans were not absorbed"
        assert all(
            e["proc"].startswith("refine-") or e["proc"].startswith("worker-")
            for e in chunk_spans
        )


class TestTraceRoundTrip:
    def test_flush_summarize_reproduces_phase_totals(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        index = FixIndex.build(
            corpus(),
            FixIndexConfig(
                depth_limit=4, obs=ObsConfig(trace=True, trace_path=path)
            ),
        )
        assert index.obs.flush() > 0
        obs = Obs(trace=True)
        processor = FixQueryProcessor(index, obs=obs)
        for query in QUERIES:
            processor.query(query)
        assert obs.flush(path, append=True) > 0

        summary = summarize_trace_file(path)
        reported = index.report.timings.as_dict()
        recovered = summary.phase_seconds()
        for phase, seconds in reported.items():
            assert recovered[phase] == pytest.approx(seconds, rel=0.01)
        assert len(summary.queries) == len(QUERIES)
        assert summary.orphan_spans == 0
        sources = {q["source"] for q in summary.queries}
        assert sources == set(QUERIES)
        report = format_trace_report(summary)
        assert "build phases" in report
        assert "slowest" in report

    def test_repeated_flush_emits_deltas_not_full_snapshots(self, tmp_path):
        # The registry keeps accumulating across flushes; each flush
        # must only carry the delta, or summarize's merge_snapshot
        # double-counts every counter.
        path = str(tmp_path / "trace.jsonl")
        obs = Obs(trace=True)
        obs.registry.counter("c").inc(5)
        obs.registry.sketch("s").observe(0.5)
        obs.registry.gauge("g").set(3)
        assert obs.flush(path) > 0
        obs.registry.counter("c").inc(2)
        obs.registry.sketch("s").observe(2.0)
        obs.registry.gauge("g").set(4)
        assert obs.flush(path, append=True) > 0

        merged = summarize_trace_file(path).registry.snapshot()
        assert merged["counters"]["c"] == 7
        assert merged["gauges"]["g"] == 4
        assert merged["sketches"]["s"]["count"] == 2
        assert merged["sketches"]["s"]["sum"] == pytest.approx(2.5)

    def test_reader_skips_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"span"}\nnot json\n[1, 2]\n{"type":"metrics"}\n')
        records, skipped = scan_trace(str(path))
        assert [r["type"] for r in records] == ["span", "metrics"]
        assert skipped == 2
        err = capsys.readouterr().err
        assert "skipped 2 malformed trace record(s)" in err
        assert "bad.jsonl:2" in err

        # strict mode preserves the old fail-fast contract.
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path), strict=True)

    def test_reader_tolerates_empty_and_truncated_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert read_trace(str(empty)) == []

        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text('{"type":"span","name":"q"}\n{"type":"met')
        records, skipped = scan_trace(str(truncated), warn=False)
        assert [r["type"] for r in records] == ["span"]
        assert skipped == 1

    def test_summary_counts_skipped_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            'garbage\n'
            '{"type":"span","name":"plan","run":"r","id":1,"ts":0.0,"dur":0.1}\n'
        )
        summary = summarize_trace_file(str(path))
        assert summary.skipped_records == 1
        assert summary.registry.snapshot()["counters"]["trace.skipped_records"] == 1
