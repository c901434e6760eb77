"""Tests for the serving-grade telemetry layer (DESIGN.md §13):
quantile sketches, rolling windows, exposition, slow-query exemplars,
resource gauges, and the ``repro top`` dashboard.

The load-bearing properties:

* the sketch's reported ``rank_error_bound()`` is *sound* — every
  quantile it returns has true rank within that bound of the target;
* merging is deterministic, and replay-exact below the compaction
  threshold, which makes registry sketch states **byte-identical**
  across build worker counts and shard-worker counts;
* rolling windows expire purely by injected-clock arithmetic.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AccessPath, FixIndex, FixIndexConfig
from repro.core.sharding import ShardedFixIndex
from repro.obs import MetricsRegistry, QuantileSketch, RollingWindow, SlowQueryLog
from repro.obs.expo import render_json, render_prometheus
from repro.obs.resources import ResourceSampler, cpu_seconds, rss_bytes
from repro.obs.sketch import DEFAULT_SKETCH_K
from repro.obs.top import TopDashboard, TraceTail, run_top
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml

DOCS = [
    "<bib><article><author><email/></author><title/></article></bib>",
    "<bib><article><author><phone/></author><title/></article></bib>",
    "<bib><book><author><affiliation/></author><title/></book></bib>",
    "<site><regions><item><name/><mailbox><mail/></mailbox></item>"
    "<item><name/></item></regions></site>",
    "<bib><www><title/></www></bib>",
]


def _store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in DOCS:
        store.add_document(parse_xml(source))
    return store


def _exact_rank_window(data: list[float], value: float) -> tuple[int, int]:
    """[min rank, max rank] (1-based) a value occupies in sorted data."""
    ordered = sorted(data)
    lo = 1 + sum(1 for v in ordered if v < value)
    hi = sum(1 for v in ordered if v <= value)
    return lo, max(lo, hi)


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestSketchAccuracy:
    @given(st.lists(finite_floats, min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_lossless_below_k(self, values):
        """n <= k: zero error bound and exactly correct quantiles."""
        sketch = QuantileSketch("t", k=512)
        for v in values:
            sketch.observe(v)
        assert sketch.rank_error_bound() == 0.0
        ordered = sorted(values)
        n = len(values)
        for q in (0.25, 0.5, 0.9, 0.99):
            target = q * n
            expect = ordered[max(0, math.ceil(target) - 1)]
            assert sketch.quantile(q) == expect
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)

    @given(
        st.lists(finite_floats, min_size=50, max_size=1200),
        st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_error_bound_is_sound(self, values, k):
        """Every reported quantile's true rank is within
        n * rank_error_bound() of the target rank — the documented
        contract, at aggressive compaction (tiny k)."""
        sketch = QuantileSketch("t", k=k)
        for v in values:
            sketch.observe(v)
        n = len(values)
        slack = n * sketch.rank_error_bound() + 1  # +1: rank discretization
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            got = sketch.quantile(q)
            lo, hi = _exact_rank_window(values, got)
            target = q * n
            assert lo - slack <= target <= hi + slack

    @given(st.lists(finite_floats, min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_exact_moments(self, values):
        """count/sum/min/max are tracked exactly regardless of k."""
        sketch = QuantileSketch("t", k=8)
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        if values:
            assert sketch.sum == pytest.approx(math.fsum(values), rel=1e-9)
            assert sketch.min == min(values)
            assert sketch.max == max(values)

    def test_quantile_domain_errors(self):
        sketch = QuantileSketch("t")
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)
        assert math.isnan(sketch.quantile(0.5))  # empty

    def test_k_floor(self):
        with pytest.raises(ValueError):
            QuantileSketch("t", k=4)


class TestSketchMerge:
    @given(
        st.lists(finite_floats, min_size=1, max_size=400),
        st.integers(min_value=1, max_value=7),
    )
    # Cancelling summands: the two sums differ by 1.3e-12 of their
    # value, by 1.2e-17 of what was added up.
    @example(values=[0.0, 999475454.0, -999494178.0, 0.9], chunks=2)
    @settings(max_examples=50, deadline=None)
    def test_chunked_merge_replays_serial_exactly(self, values, chunks):
        """Below k, merging per-chunk sketches in stream order replays
        serial observation exactly — the property the multi-worker
        absorb path (PR 1/7) relies on.  ``sum`` accumulates chunk
        subtotals (float addition is not associative), so it is only
        approx-equal for arbitrary floats, within a bound set by the
        summands' magnitude (a sum that cancels keeps their round-off);
        it is bit-exact for integer-valued streams like
        ``build.doc_entries``."""
        serial = QuantileSketch("t", k=512)
        for v in values:
            serial.observe(v)
        merged = QuantileSketch("t", k=512)
        size = max(1, len(values) // chunks)
        for i in range(0, len(values), size):
            part = QuantileSketch("t", k=512)
            for v in values[i : i + size]:
                part.observe(v)
            merged.merge(part)
        a, b = merged.as_dict(), serial.as_dict()
        assert a.pop("sum") == pytest.approx(
            b.pop("sum"), abs=1e-12 * sum(map(abs, values))
        )
        assert a == b

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=400),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_merge_byte_identical_for_integer_streams(
        self, values, chunks
    ):
        """Integer-valued streams (the byte-identity acceptance series)
        merge to the bit-exact serial state, ``sum`` included."""
        serial = QuantileSketch("t", k=512)
        for v in values:
            serial.observe(float(v))
        merged = QuantileSketch("t", k=512)
        size = max(1, len(values) // chunks)
        for i in range(0, len(values), size):
            part = QuantileSketch("t", k=512)
            for v in values[i : i + size]:
                part.observe(float(v))
            merged.merge(part)
        assert merged.as_dict() == serial.as_dict()

    @given(
        st.lists(st.lists(finite_floats, min_size=1, max_size=120),
                 min_size=2, max_size=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_moments_order_independent(self, parts, rng):
        """count/sum/min/max are exact under ANY merge order, and the
        error bound stays sound."""
        sketches = []
        for part in parts:
            s = QuantileSketch("t", k=16)
            for v in part:
                s.observe(v)
            sketches.append(s)
        order = list(range(len(sketches)))
        rng.shuffle(order)
        merged = QuantileSketch("t", k=16)
        for i in order:
            merged.merge(sketches[i])
        flat = [v for part in parts for v in part]
        assert merged.count == len(flat)
        assert merged.sum == pytest.approx(math.fsum(flat), rel=1e-9)
        assert merged.min == min(flat)
        assert merged.max == max(flat)
        n = len(flat)
        slack = n * merged.rank_error_bound() + 1
        got = merged.quantile(0.5)
        lo, hi = _exact_rank_window(flat, got)
        assert lo - slack <= 0.5 * n <= hi + slack

    @given(st.lists(finite_floats, min_size=1, max_size=600))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_is_byte_identical(self, values):
        sketch = QuantileSketch("t", k=32)
        for v in values:
            sketch.observe(v)
        state = sketch.as_dict()
        clone = QuantileSketch.from_dict("t", state)
        assert clone.as_dict() == state
        assert json.dumps(clone.as_dict(), sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    def test_merge_rejects_mismatched_k(self):
        a = QuantileSketch("t", k=16)
        b = QuantileSketch("t", k=32)
        b.observe(1.0)
        with pytest.raises(ValueError, match="k=16"):
            a.merge(b)

    def test_merge_empty_is_noop(self):
        a = QuantileSketch("t", k=16)
        a.observe(2.0)
        before = a.as_dict()
        a.merge(QuantileSketch("t", k=64))  # empty: k mismatch ignored
        assert a.as_dict() == before


class TestRegistryByteIdentity:
    """The acceptance contract: registry sketch states are
    byte-identical across worker counts and shard layouts."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_build_sketches_identical_across_worker_counts(self, workers):
        serial = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        parallel = FixIndex.build(
            _store(), FixIndexConfig(depth_limit=4, workers=workers)
        )
        name = "build.doc_entries"
        a = serial.obs.registry.snapshot()["sketches"][name]
        b = parallel.obs.registry.snapshot()["sketches"][name]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_doc_seconds_structure_matches_across_workers(self):
        """Timing values are nondeterministic but the sketch *shape*
        (count, level occupancy) is not."""
        serial = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        parallel = FixIndex.build(
            _store(), FixIndexConfig(depth_limit=4, workers=3)
        )
        a = serial.obs.registry.snapshot()["sketches"]["build.doc_seconds"]
        b = parallel.obs.registry.snapshot()["sketches"]["build.doc_seconds"]
        assert a["count"] == b["count"] == len(DOCS)
        assert [len(lvl) for lvl in a["levels"]] == [
            len(lvl) for lvl in b["levels"]
        ]

    @pytest.mark.parametrize("shard_workers", [1, 2])
    def test_sharded_coordinator_sketches_ignore_shard_workers(
        self, shard_workers
    ):
        """Coordinator build sketches depend only on the shard layout
        (merge happens in shard order), never on scan concurrency."""
        reference = ShardedFixIndex.build(
            _store(), FixIndexConfig(depth_limit=0, shards=3)
        )
        other = ShardedFixIndex.build(
            _store(),
            FixIndexConfig(
                depth_limit=0, shards=3, shard_workers=shard_workers
            ),
        )
        name = "build.doc_entries"
        a = reference.obs.registry.snapshot()["sketches"][name]
        b = other.obs.registry.snapshot()["sketches"][name]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_mutation_latency_sketches_populated(self):
        index = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        index.add_document(parse_xml(DOCS[0]))
        registry = index.obs.registry
        assert registry.sketch("mutation.stage_seconds").count == 1
        assert registry.sketch("mutation.apply_seconds").count == 1

    def test_query_sketches_populated(self):
        index = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        from repro.core.processor import FixQueryProcessor

        processor = FixQueryProcessor(index)
        processor.query("//article[title]")
        registry = index.obs.registry
        for name in (
            "query.seconds",
            "query.plan_seconds",
            "query.prune_seconds",
            "query.refine_seconds",
        ):
            assert registry.sketch(name).count == 1, name


class TestRollingWindow:
    def test_expiry_under_injected_clock(self):
        window = RollingWindow(width=60.0, buckets=12)
        window.observe("lat", 1.0, now=0.0)
        window.observe("lat", 3.0, now=10.0)
        # Both alive at t=30.
        assert window.count("lat", now=30.0) == 2
        assert window.quantile("lat", 1.0, now=30.0) == 3.0
        # t=62: the t=0 bucket fell out, the t=10 one survives.
        assert window.count("lat", now=62.0) == 1
        assert window.quantile("lat", 0.5, now=62.0) == 3.0
        # t=200: everything expired.
        assert window.count("lat", now=200.0) == 0
        assert math.isnan(window.quantile("lat", 0.5, now=200.0))

    def test_bucket_reuse_resets_stale_epoch(self):
        window = RollingWindow(width=10.0, buckets=2)
        window.observe("lat", 1.0, now=0.0)
        # Same ring slot, much later epoch: slot must reset, not mix.
        window.observe("lat", 9.0, now=100.0)
        assert window.count("lat", now=100.0) == 1
        assert window.quantile("lat", 0.5, now=100.0) == 9.0

    def test_counters_and_rates(self):
        window = RollingWindow(width=30.0, buckets=6)
        for t in (0.0, 1.0, 2.0, 29.0):
            window.inc("queries", now=t)
        assert window.count("queries", now=29.0) == 4
        assert window.rate("queries", now=29.0) == pytest.approx(4 / 30.0)

    def test_injected_clock_callable(self):
        now = {"t": 5.0}
        window = RollingWindow(width=10.0, buckets=5, clock=lambda: now["t"])
        window.observe("lat", 2.0)
        assert window.count("lat") == 1
        now["t"] = 100.0
        assert window.count("lat") == 0

    def test_snapshot_shape(self):
        window = RollingWindow(width=60.0, buckets=6)
        window.observe("lat", 0.25, now=1.0)
        window.inc("queries", now=1.0)
        snap = window.snapshot(now=2.0)
        assert snap["width_seconds"] == 60.0
        assert snap["series"]["lat"]["count"] == 1
        assert snap["series"]["lat"]["p99"] == 0.25
        assert snap["series"]["queries"]["count"] == 1

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=300, allow_nan=False),
                finite_floats,
            ),
            min_size=1,
            max_size=80,
        ),
        st.floats(min_value=0, max_value=400, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_matches_bucket_arithmetic(self, samples, now):
        """Windowed count equals a direct recomputation over bucket
        epochs — expiry is pure arithmetic, monotonic clock or not."""
        width, buckets = 60.0, 12
        span = width / buckets
        window = RollingWindow(width=width, buckets=buckets)
        # Each ring slot holds exactly one epoch — the one last written
        # (with a monotonic clock that is also the newest); replicate.
        slots: dict[int, dict[int, int]] = {}
        for t, v in samples:
            window.observe("s", v, now=t)
            epoch = int(t // span)
            slot = slots.setdefault(epoch % buckets, {})
            if epoch not in slot:
                slot.clear()
                slot[epoch] = 0
            slot[epoch] += 1
        newest = int(now // span)
        oldest = newest - buckets + 1
        expect = sum(
            count
            for slot in slots.values()
            for epoch, count in slot.items()
            if oldest <= epoch <= newest
        )
        assert window.count("s", now=now) == expect


class TestExposition:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("query.count").inc(3)
        registry.gauge("process.rss_bytes").set(1024.0)
        sketch = registry.sketch("query.seconds")
        for v in (0.1, 0.2, 0.3, 0.4):
            sketch.observe(v)
        return registry

    def test_prometheus_text_shape(self):
        text = render_prometheus(self._registry().snapshot())
        assert "# TYPE repro_query_count_total counter" in text
        assert "repro_query_count_total 3" in text
        assert "# TYPE repro_process_rss_bytes gauge" in text
        assert "# TYPE repro_query_seconds summary" in text
        assert 'repro_query_seconds{quantile="0.5"} 0.2' in text
        assert "repro_query_seconds_count 4" in text
        assert text.endswith("\n")

    def test_prometheus_names_are_legal(self):
        text = render_prometheus(self._registry().snapshot())
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert "." not in name and name.startswith("repro_")

    def test_json_exposition_derives_sketches(self):
        payload = json.loads(render_json(self._registry().snapshot()))
        assert payload["counters"]["query.count"] == 3
        derived = payload["sketches"]["query.seconds"]
        assert derived["count"] == 4
        assert derived["rank_error_bound"] == 0.0
        assert derived["quantiles"]["0.5"] == 0.2
        assert derived["max"] == 0.4
        assert "levels" not in derived  # derived numbers, not raw state

    def test_empty_snapshot_renders(self):
        assert render_prometheus({}) == "\n"
        assert json.loads(render_json({})) == {
            "counters": {},
            "gauges": {},
            "sketches": {},
        }

    def test_one_type_family_per_name(self, tmp_path, capsys):
        """A traced build + 3 queries declares each metric family once
        (the text format allows one ``# TYPE`` per name), and a trace
        line still carrying the retired ``"histograms"`` section is
        read past by ``repro metrics`` and ``repro trace``."""
        from repro.cli import main
        from repro.core import FixQueryProcessor
        from repro.obs import ObsConfig

        path = str(tmp_path / "trace.jsonl")
        index = FixIndex.build(
            _store(),
            FixIndexConfig(depth_limit=4, obs=ObsConfig(trace=True, trace_path=path)),
        )
        processor = FixQueryProcessor(index)
        for query in ("//article[author]", "//author", "//item/name"):
            processor.query(query)
        families = [
            line.split()[2]
            for line in render_prometheus(index.obs.registry.snapshot()).splitlines()
            if line.startswith("# TYPE")
        ]
        assert "repro_query_seconds" in families
        assert len(families) == len(set(families))

        assert index.obs.flush() > 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "type": "metrics", "run": "old", "proc": "main",
                        "snapshot": {
                            "counters": {"query.count": 2.0},
                            "gauges": {},
                            "histograms": {
                                "query.seconds": {
                                    "bounds": [0.001, 1.0], "counts": [1, 1, 0],
                                    "count": 2, "sum": 0.5,
                                }
                            },
                            "sketches": {},
                        },
                    }
                )
                + "\n"
            )
        assert main(["metrics", path]) == 0
        text = capsys.readouterr().out
        assert "repro_query_count_total 5" in text
        assert "# TYPE repro_query_seconds summary" in text
        assert "histogram" not in text and "_bucket" not in text
        assert main(["metrics", path, "--format", "json"]) == 0
        assert "histograms" not in json.loads(capsys.readouterr().out)
        assert main(["trace", path]) == 0
        assert "build phases" in capsys.readouterr().out


class _FakeResult:
    access_path = AccessPath.INDEX_SCAN
    plan_seconds = 0.001
    prune_seconds = 0.002
    refine_seconds = 0.017
    plan_cached = False
    candidate_count = 10
    result_count = 2
    documents_fetched = 3
    workers = 1
    pushdown = False


class TestSlowQueryLog:
    def test_fixed_threshold(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path=path, threshold=0.01)
        assert not log.is_slow(0.005)
        assert log.is_slow(0.02)
        entry = log.record(_FakeResult(), "//a[b]", epoch={"epoch": 3})
        assert entry["type"] == "slow_query"
        assert entry["seconds"] == pytest.approx(0.02)
        assert entry["epoch"] == {"epoch": 3}
        on_disk = [json.loads(line) for line in open(path)]
        assert len(on_disk) == 1 and on_disk[0]["source"] == "//a[b]"
        assert log.considered == 2 and log.captured == 1

    def test_derived_threshold_activates_after_min_count(self):
        registry = MetricsRegistry()
        log = SlowQueryLog(registry=registry, min_count=10, quantile=0.9)
        sketch = registry.sketch("query.seconds")
        assert log.current_threshold() is None
        assert not log.is_slow(100.0)  # inactive: nothing is slow yet
        for i in range(10):
            sketch.observe(0.001 * (i + 1))
        assert log.current_threshold() == pytest.approx(0.009)
        assert log.is_slow(0.05)
        assert not log.is_slow(0.005)

    def test_ring_compaction_bounds_file(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = SlowQueryLog(path=path, threshold=0.0, capacity=5)
        for _ in range(23):
            log.record(_FakeResult(), "//a")
        lines = [line for line in open(path) if line.strip()]
        assert len(lines) <= 2 * 5
        reopened = SlowQueryLog(path=path, threshold=0.0, capacity=5)
        assert reopened._file_records == len(lines)

    def test_publish_counters(self):
        registry = MetricsRegistry()
        log = SlowQueryLog(threshold=0.01)
        log.is_slow(0.5)
        log.record(_FakeResult(), "//a")
        log.publish(registry)
        snap = registry.snapshot()
        assert snap["counters"]["slowlog.considered"] == 1
        assert snap["counters"]["slowlog.captured"] == 1
        assert snap["gauges"]["slowlog.threshold_seconds"] == 0.01

    def test_capture_end_to_end_via_processor(self):
        from repro.core.processor import FixQueryProcessor

        index = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        log = SlowQueryLog(threshold=0.0)  # everything is slow
        processor = FixQueryProcessor(index, slow_log=log)
        processor.query("//article[title]")
        assert log.captured == 1
        entry = log.entries[-1]
        assert entry["source"] == "//article[title]"
        assert entry["epoch"].get("epoch", -1) >= 0  # pinned snapshot
        assert entry["path"] == "structure-scan"


class TestResourceSampler:
    def test_sample_once_publishes_gauges(self):
        index = FixIndex.build(_store(), FixIndexConfig(depth_limit=4))
        sampler = ResourceSampler(index.obs.registry, index=index)
        sampler.sample_once()
        gauges = index.obs.registry.snapshot()["gauges"]
        assert gauges["process.rss_bytes"] > 0
        assert gauges["process.cpu_seconds"] >= 0
        assert gauges["epoch.readers_pinned"] == 0
        counters = index.obs.registry.snapshot()["counters"]
        assert counters["resources.samples"] == 1

    def test_primitives(self):
        assert rss_bytes() > 0
        assert cpu_seconds() >= 0

    def test_ticker_context_manager(self):
        registry = MetricsRegistry()
        with ResourceSampler(registry, interval=30.0) as sampler:
            pass  # stop() takes a final sample
        assert sampler.samples >= 1


class TestTopDashboard:
    def _write_events(self, path, events, mode="a"):
        with open(path, mode, encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def test_tail_only_consumes_whole_lines(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type":"span","name":"query","start":1.0,"dur":0.1}\n')
            handle.write('{"type":"span","na')  # a writer mid-append
        tail = TraceTail(path)
        assert len(tail.poll()) == 1
        with open(path, "a") as handle:
            handle.write('me":"query","start":2.0,"dur":0.2}\n')
        assert len(tail.poll()) == 1
        assert tail.skipped == 0

    def test_tail_skips_malformed_and_resets_on_truncate(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write_events(path, [{"type": "span"}], mode="w")
        with open(path, "a") as handle:
            handle.write("garbage\n")
        tail = TraceTail(path)
        assert len(tail.poll()) == 1
        assert tail.skipped == 1
        # Truncate/rotate to a smaller file: offset resets and the new
        # content is re-read from the start (size-based detection).
        self._write_events(path, [{"type": "x"}], mode="w")
        assert len(tail.poll()) == 1

    def test_dashboard_windows_and_slow_ring(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        events = [
            {"type": "span", "name": "query", "run": "r", "id": 1,
             "start": 100.0, "dur": 0.010},
            {"type": "span", "name": "query.refine", "run": "r", "id": 2,
             "parent": 1, "start": 100.0, "dur": 0.008},
            {"type": "span", "name": "query", "run": "r", "id": 3,
             "start": 130.0, "dur": 0.050, "error": "boom"},
            {"type": "slow_query", "ts": 130.1, "seconds": 0.050,
             "plan_s": 0.001, "prune_s": 0.002, "refine_s": 0.047,
             "source": "//a[b]"},
            {"type": "metrics", "run": "r", "snapshot": {
                "counters": {"query.plan_cache.hits": 3,
                             "query.plan_cache.misses": 1},
                "gauges": {"epoch.current": 2},
                "histograms": {},
                "sketches": {},
            }},
        ]
        self._write_events(path, events, mode="w")
        dash = TopDashboard(path, window_seconds=60.0)
        assert dash.poll() == 5
        assert dash.total_queries == 2
        frame = dash.render()
        assert "2 lifetime" in frame
        assert "1 errors" in frame
        assert "query.seconds" in frame
        assert "plan 75.0%" in frame
        assert "epoch 2" in frame
        assert "//a[b]" in frame
        # Window pinned past the first query: only the second remains.
        assert dash.window.count("queries", now=185.0) == 1

    def test_dashboard_merges_last_sketch_state_per_run(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        s1 = QuantileSketch("query.seconds")
        s1.observe(0.1)
        state1 = s1.as_dict()
        s1.observe(0.2)
        state2 = s1.as_dict()
        events = [
            {"type": "metrics", "run": "r", "snapshot": {
                "counters": {}, "gauges": {}, "histograms": {},
                "sketches": {"query.seconds": state1}}},
            {"type": "metrics", "run": "r", "snapshot": {
                "counters": {}, "gauges": {}, "histograms": {},
                "sketches": {"query.seconds": state2}}},
        ]
        self._write_events(path, events, mode="w")
        dash = TopDashboard(path)
        dash.poll()
        merged = dash.lifetime_sketches()
        # Second flush supersedes the first — 2 observations, not 3.
        assert merged.sketch("query.seconds").count == 2

    def test_run_top_once_renders_real_trace(self, tmp_path):
        index_obs = FixIndex.build(
            _store(), FixIndexConfig(depth_limit=4)
        ).obs
        from repro.core.processor import FixQueryProcessor

        index_obs.tracer.enabled = True
        path = str(tmp_path / "trace.jsonl")
        index_obs.flush(path)
        out = io.StringIO()
        assert run_top(path, once=True, out=out) == 0
        frame = out.getvalue()
        assert "repro top" in frame
        assert "\x1b" not in frame  # --once is escape-free (CI mode)

    def test_run_top_bounded_iterations(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write_events(
            path,
            [{"type": "span", "name": "query", "run": "r", "id": 1,
              "start": 1.0, "dur": 0.01}],
            mode="w",
        )
        out = io.StringIO()
        assert run_top(path, once=False, interval=0.0, out=out,
                       iterations=2) == 0
        assert out.getvalue().count("repro top") == 2
