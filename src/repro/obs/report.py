"""Trace aggregation: turn a JSONL trace into the per-phase /
per-query breakdown the ``repro trace`` subcommand prints.

The input is the artifact ``Obs.flush`` writes — span events plus one
``metrics`` snapshot per flush.  Aggregation merges every snapshot into
one registry (build and query invocations append to the same file), and
walks the spans to reconstruct each query's plan/prune/refine split.

The phase totals reported here are *the same counters*
``BuildReport.timings`` reads (``build.phase_seconds.*``), which is what
makes the round-trip guarantee cheap to state: a trace of a build
reproduces Table 1's phase breakdown exactly, not within sampling error.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import scan_trace

__all__ = ["TraceSummary", "summarize_trace", "summarize_trace_file",
           "format_trace_report", "format_slow_queries"]

#: build.phase_seconds.<phase> counter prefix (written by PhaseTimings).
PHASE_PREFIX = "build.phase_seconds."
#: build.eigen.batch_size.<n> counter prefix (batch-size histogram).
BATCH_SIZE_PREFIX = "build.eigen.batch_size."

#: Table 1's phase order; phases outside this list sort after, by name.
_PHASE_ORDER = ("parse", "encode", "bisim", "unfold", "matrix", "eigen", "insert")


class TraceSummary:
    """Aggregated view of one trace file."""

    def __init__(self) -> None:
        #: merged metrics across every flush in the file.
        self.registry = MetricsRegistry()
        #: span name -> {"count", "total_s", "max_s"}.
        self.span_stats: dict[str, dict] = {}
        #: one dict per ``query`` root span (see ``_finish_query``).
        self.queries: list[dict] = []
        #: span events whose parent id never appears (diagnostic).
        self.orphan_spans = 0
        #: malformed trace lines skipped by the lenient reader.
        self.skipped_records = 0
        #: slow-query exemplar events (``{"type": "slow_query", ...}``)
        #: embedded in the trace, newest last.
        self.slow_queries: list[dict] = []

    # -- derived views ------------------------------------------------- #

    @property
    def counters(self) -> dict[str, float]:
        return self.registry.snapshot()["counters"]

    def phase_seconds(self) -> dict[str, float]:
        """Table 1's per-phase build breakdown, from the merged metrics."""
        phases = {
            name[len(PHASE_PREFIX):]: value
            for name, value in self.counters.items()
            if name.startswith(PHASE_PREFIX)
        }
        rank = {phase: i for i, phase in enumerate(_PHASE_ORDER)}
        return {
            phase: phases[phase]
            for phase in sorted(
                phases, key=lambda p: (rank.get(p, len(rank)), p)
            )
        }

    def batch_size_histogram(self) -> dict[int, int]:
        """Eigen batch size -> number of stacked solves."""
        return {
            int(name[len(BATCH_SIZE_PREFIX):]): int(value)
            for name, value in self.counters.items()
            if name.startswith(BATCH_SIZE_PREFIX)
        }

    def cache_rates(self) -> dict[str, float]:
        """Hit rates of the spectral feature cache and the plan cache."""
        counters = self.counters
        rates: dict[str, float] = {}
        for cache, hits_name, misses_name in (
            ("spectral_cache", "build.cache.hits", "build.cache.misses"),
            ("plan_cache", "query.plan_cache.hits", "query.plan_cache.misses"),
        ):
            hits = counters.get(hits_name, 0.0)
            misses = counters.get(misses_name, 0.0)
            total = hits + misses
            rates[f"{cache}_hits"] = hits
            rates[f"{cache}_misses"] = misses
            rates[f"{cache}_hit_rate"] = hits / total if total else 0.0
        return rates

    def slowest_queries(self, top: int = 10) -> list[dict]:
        return sorted(self.queries, key=lambda q: -q["total_s"])[:top]

    def epoch_counters(self) -> dict[str, float]:
        """The ``epoch.*`` mutation-path counters (PR 8), when present:
        pins, mutations, scoped vs full invalidations — plus the
        current epoch gauge."""
        counters = {
            name: value
            for name, value in self.counters.items()
            if name.startswith("epoch.")
        }
        gauges = self.registry.snapshot()["gauges"]
        if "epoch.current" in gauges:
            counters["epoch.current"] = gauges["epoch.current"]
        return counters

    def latency_quantiles(self) -> dict[str, dict]:
        """Per-series quantiles from the merged ``query.*``/``build.*``
        /``mutation.*`` sketches (empty when the trace predates them)."""
        out: dict[str, dict] = {}
        for name in sorted(self.registry.sketch_names()):
            sketch = self.registry.sketch(name)
            if not sketch.count:
                continue
            p50, p95, p99 = sketch.quantiles((0.5, 0.95, 0.99))
            out[name] = {
                "count": sketch.count,
                "p50": p50,
                "p95": p95,
                "p99": p99,
                "max": sketch.max,
                "rank_error_bound": sketch.rank_error_bound(),
            }
        return out

    def as_dict(self, top: int = 10) -> dict:
        """JSON-friendly dump (what ``repro trace --json`` emits)."""
        return {
            "phases": self.phase_seconds(),
            "cache": self.cache_rates(),
            "eigen_batch_sizes": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram().items())
            },
            "spans": self.span_stats,
            "queries": len(self.queries),
            "slowest_queries": self.slowest_queries(top),
            "latency_quantiles": self.latency_quantiles(),
            "epochs": self.epoch_counters(),
            "slow_query_exemplars": len(self.slow_queries),
            "orphan_spans": self.orphan_spans,
            "skipped_records": self.skipped_records,
            "counters": self.counters,
        }


def summarize_trace(events: list[dict]) -> TraceSummary:
    """Aggregate raw trace events into a :class:`TraceSummary`."""
    summary = TraceSummary()
    # Spans reference parents by (run, id); queries own their phase
    # children, so index the query spans first.
    span_events = [e for e in events if e.get("type") == "span"]
    known_ids = {(e.get("run"), e["id"]) for e in span_events}
    query_spans: dict[tuple, dict] = {}
    for event in span_events:
        stats = summary.span_stats.setdefault(
            event["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stats["count"] += 1
        stats["total_s"] += event["dur"]
        stats["max_s"] = max(stats["max_s"], event["dur"])
        parent = event.get("parent")
        if parent is not None and (event.get("run"), parent) not in known_ids:
            summary.orphan_spans += 1
        if event["name"] == "query":
            attrs = event.get("attrs", {})
            query_spans[(event.get("run"), event["id"])] = {
                "source": attrs.get("source", "<twig>"),
                "total_s": event["dur"],
                "plan_s": 0.0,
                "prune_s": 0.0,
                "refine_s": 0.0,
                "candidates": attrs.get("candidates", 0),
                "results": attrs.get("results", 0),
                "plan_cached": attrs.get("plan_cached", False),
                "error": event.get("error"),
            }
    for event in span_events:
        parent = (event.get("run"), event.get("parent"))
        query = query_spans.get(parent)
        if query is None:
            continue
        if event["name"] == "query.plan":
            query["plan_s"] += event["dur"]
        elif event["name"] == "query.prune":
            query["prune_s"] += event["dur"]
        elif event["name"] == "query.refine":
            query["refine_s"] += event["dur"]
    summary.queries = list(query_spans.values())
    # Metrics merging: counters and gauges are flushed as deltas,
    # so every snapshot folds in.  Sketches cannot be delta-encoded (the
    # state is lossy), so each flush carries the *full* state and only
    # the LAST state per (run, name) counts — then runs merge, in
    # first-appearance order of the run tag (deterministic: the file
    # order is the flush order).
    run_order: list[str] = []
    last_sketches: dict[tuple[str, str], dict] = {}
    for event in events:
        if event.get("type") == "metrics":
            snapshot = dict(event.get("snapshot", {}))
            sketches = snapshot.pop("sketches", {})
            run = str(event.get("run"))
            if run not in run_order:
                run_order.append(run)
            for name, state in sketches.items():
                last_sketches[(run, name)] = state
            summary.registry.merge_snapshot(snapshot)
        elif event.get("type") == "slow_query":
            summary.slow_queries.append(event)
    for run in run_order:
        for (state_run, name) in sorted(last_sketches):
            if state_run == run:
                state = last_sketches[(state_run, name)]
                summary.registry.sketch(name, k=int(state["k"])).merge(state)
    return summary


def summarize_trace_file(path: str, strict: bool = False) -> TraceSummary:
    events, skipped = scan_trace(path, strict=strict)
    summary = summarize_trace(events)
    summary.skipped_records = skipped
    summary.registry.sync_counter("trace.skipped_records", skipped)
    return summary


def format_trace_report(summary: TraceSummary, top: int = 10) -> str:
    """The human-readable breakdown ``repro trace`` prints."""
    lines: list[str] = []
    phases = summary.phase_seconds()
    if phases:
        total = sum(phases.values())
        lines.append("build phases (aggregate CPU-seconds):")
        for phase, seconds in phases.items():
            share = seconds / total if total else 0.0
            lines.append(f"  {phase:8s} {seconds:10.4f}s  {share:6.1%}")
        lines.append(f"  {'total':8s} {total:10.4f}s")
    batches = summary.batch_size_histogram()
    if batches:
        histogram = " ".join(
            f"{size}x{count}" for size, count in sorted(batches.items())
        )
        lines.append(f"eigen batch sizes (matrices x stacked solves): {histogram}")
    cache = summary.cache_rates()
    lines.append(
        "caches: spectral "
        f"{cache['spectral_cache_hits']:.0f}/"
        f"{cache['spectral_cache_hits'] + cache['spectral_cache_misses']:.0f} "
        f"hits ({cache['spectral_cache_hit_rate']:.1%}), plan "
        f"{cache['plan_cache_hits']:.0f}/"
        f"{cache['plan_cache_hits'] + cache['plan_cache_misses']:.0f} "
        f"hits ({cache['plan_cache_hit_rate']:.1%})"
    )
    if summary.queries:
        lines.append(
            f"queries: {len(summary.queries)} traced; "
            f"top {min(top, len(summary.queries))} slowest:"
        )
        lines.append(
            f"  {'total':>9s} {'plan':>9s} {'prune':>9s} {'refine':>9s} "
            f"{'cdt':>6s} {'rst':>6s}  source"
        )
        for query in summary.slowest_queries(top):
            cached = "+" if query["plan_cached"] else " "
            lines.append(
                f"  {query['total_s'] * 1e3:8.2f}ms {query['plan_s'] * 1e3:7.2f}ms{cached} "
                f"{query['prune_s'] * 1e3:7.2f}ms {query['refine_s'] * 1e3:7.2f}ms "
                f"{query['candidates']:6d} {query['results']:6d}  {query['source']}"
            )
    quantiles = {
        # The table renders milliseconds; non-time sketches (e.g. the
        # per-doc entry-count distribution) stay in the JSON dump only.
        name: stats
        for name, stats in summary.latency_quantiles().items()
        if name.endswith("seconds")
    }
    if quantiles:
        lines.append("latency quantiles (from merged sketches):")
        lines.append(
            f"  {'series':<24s} {'p50 ms':>9s} {'p95 ms':>9s} "
            f"{'p99 ms':>9s} {'max ms':>9s} {'n':>7s}  err"
        )
        for name, stats in quantiles.items():
            lines.append(
                f"  {name:<24s} {stats['p50'] * 1e3:9.3f} "
                f"{stats['p95'] * 1e3:9.3f} {stats['p99'] * 1e3:9.3f} "
                f"{stats['max'] * 1e3:9.3f} {stats['count']:7d}  "
                f"±{stats['rank_error_bound']:.4f}"
            )
    epochs = summary.epoch_counters()
    if epochs:
        parts = [
            f"{name[len('epoch.'):]} {value:.0f}"
            for name, value in sorted(epochs.items())
        ]
        lines.append("epochs: " + ", ".join(parts))
    if summary.slow_queries:
        lines.append(
            f"slow-query exemplars: {len(summary.slow_queries)} captured "
            "(repro trace --slow for details)"
        )
    if summary.span_stats:
        lines.append("spans:")
        for name, stats in sorted(summary.span_stats.items()):
            lines.append(
                f"  {name:24s} x{stats['count']:<6d} "
                f"total {stats['total_s']:.4f}s  max {stats['max_s']:.4f}s"
            )
    if summary.orphan_spans:
        lines.append(f"warning: {summary.orphan_spans} orphan span(s) in trace")
    if summary.skipped_records:
        lines.append(
            f"warning: {summary.skipped_records} malformed record(s) skipped"
        )
    return "\n".join(lines)


def format_slow_queries(summary: TraceSummary, top: int = 10) -> str:
    """The ``repro trace --slow`` view: captured exemplars with their
    phase split, epoch pin, and span-subtree size."""
    if not summary.slow_queries:
        return "no slow-query exemplars captured"
    lines = [f"slow-query exemplars ({len(summary.slow_queries)} captured):"]
    ordered = sorted(
        summary.slow_queries, key=lambda e: -e.get("seconds", 0.0)
    )[:top]
    for entry in ordered:
        epoch = entry.get("epoch") or {}
        epoch_bit = (
            f"epoch {epoch.get('epoch')}" if "epoch" in epoch else
            f"epochs {epoch.get('vector')}" if "vector" in epoch else "epoch ?"
        )
        threshold = entry.get("threshold_s")
        lines.append(
            f"  {entry.get('seconds', 0.0) * 1e3:8.2f}ms "
            f"(plan {entry.get('plan_s', 0.0) * 1e3:.2f} / "
            f"prune {entry.get('prune_s', 0.0) * 1e3:.2f} / "
            f"refine {entry.get('refine_s', 0.0) * 1e3:.2f}) "
            f"cdt {entry.get('candidates', 0)} rst {entry.get('results', 0)}  "
            f"{entry.get('source', '<twig>')}"
        )
        lines.append(
            f"      {entry.get('path', 'index-scan')}, "
            f"{epoch_bit}, {len(entry.get('spans', []))} span(s), "
            + (
                f"threshold {threshold * 1e3:.2f}ms"
                if threshold is not None else "fixed capture"
            )
        )
    return "\n".join(lines)
