"""Per-layer metrics — the traced run (``--trace 1``).

Layer = module name under ``src/repro``.  Every number is a time summed
over the workload's inputs, taken from a span recorded here around a
call into that layer's public functions, or an exact count read from one
of the program's public stats objects.  The same probes run on every
workload's own corpora and queries, so a layer number can be read next
to the end-to-end metric it should move (``perf/README.md`` has the
table).  End-to-end metrics never come from this run.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

from repro import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    NavigationalEngine,
    Obs,
    PrimaryXMLStore,
    decompose,
    load_index,
    parse_query,
    parse_xml,
    save_index,
    twig_of,
)
from repro.bisim import bisim_graph_of_document, depth_limited_graph
from repro.btree import BPlusTree, encode_feature_key
from repro.core.plan import build_plan
from repro.core.sharding import ShardedFixIndex
from repro.errors import PatternTooLargeError
from repro.query.ast import Axis
from repro.spectral import EdgeLabelEncoder, pattern_matrix, solve_batch

from corpora import Corpus
from oracle import AnswerCheck, expected_answers, pointers
from trace import Recorder, ratio
from workloads import (
    SRC,
    cache_quarter,
    close_index,
    documents_by_id,
    run_cli,
    write_files,
)

#: vertices per corpus the unfold/matrix/eigensolve probes sample.
PATTERN_SAMPLE = 2000
SAMPLE_SEED = 11
#: plain pass / stage-by-stage pass / tracing-on pass, alternated this
#: many times, so that drift of the host hits all three alike.
QUERY_ROUNDS = 3
BUILD_PHASES = ("parse", "encode", "bisim", "unfold", "matrix", "eigen", "insert")


@dataclass
class Probe:
    """What the probes of one run share."""

    rec: Recorder
    counts: Counter = field(default_factory=Counter)
    check: AnswerCheck = field(default_factory=AnswerCheck)
    #: per-query latencies of the plain passes, ms.
    latencies: list[float] = field(default_factory=list)


def run_traced(corpus_list: list[Corpus], scratch: str, recorder: Recorder):
    """Probe every layer on every corpus.  Returns ``(metrics, check)``."""
    probe = Probe(recorder)
    for number, corpus in enumerate(corpus_list):
        directory = os.path.join(scratch, f"layers-{number}")
        os.makedirs(directory)
        probe_corpus(probe, corpus, directory)
    probe_startup(recorder)
    metrics = assemble(recorder, probe.counts, probe.latencies)
    metrics["core.missed_answer_ratio"] = probe.check.missed_answer_ratio
    return metrics, probe.check


def probe_corpus(probe: Probe, corpus: Corpus, directory: str) -> None:
    rec, counts = probe.rec, probe.counts
    counts["source_bytes"] += corpus.source_bytes
    documents = probe_build_layers(probe, corpus)

    # The program's own build, in memory, for its phase report.
    store = PrimaryXMLStore(
        cache_documents=len(documents) + len(corpus.pool_sources)
    )
    for document in documents:
        store.add_document(document)
    with rec.span("core.build"):
        index = FixIndex.build(store, FixIndexConfig(depth_limit=corpus.depth_limit))
    report = index.report
    for phase, seconds in report.timings.as_dict().items():
        counts["phase." + phase] += seconds
    counts["build_seconds"] += report.seconds
    counts["cache_hits"] += report.stats.cache_hits
    counts["cache_lookups"] += report.stats.cache_hits + report.stats.cache_misses
    counts["eigen_computations"] += report.stats.eigen_computations
    probe_btree_writes(rec, index)

    # Saved, then reopened with quarter-size caches: one paged pass.
    paged_store, paged_index = probe_paged_pass(probe, corpus, store, index, directory)

    # The index the workload's own loop runs against.
    if corpus.file_backed:
        work_store, work_index = paged_store, paged_index
    else:
        work_store, work_index = store, index
    plain, plans = probe_queries(probe, corpus, work_store, work_index)
    probe_scans(probe, plans, work_store, work_index)
    probe_sharding(probe, corpus, plain, directory)
    close_index(paged_store, paged_index)
    probe_mutations(probe, corpus, store, index)
    probe_cli(probe, corpus, directory)


# --------------------------------------------------------------------- #
# Build side
# --------------------------------------------------------------------- #


def probe_build_layers(probe: Probe, corpus: Corpus) -> list:
    """xmltree -> bisim -> unfold -> matrix -> eigensolve, each through
    its own public function.  Returns the parsed documents."""
    rec, counts = probe.rec, probe.counts
    with rec.span("xmltree.parse"):
        documents = [parse_xml(source) for source in corpus.sources]
    with rec.span("bisim.build"):
        graphs = [bisim_graph_of_document(document) for document in documents]
    counts["elements"] += sum(document.element_count() for document in documents)
    counts["bisim_vertices"] += sum(graph.vertex_count() for graph in graphs)

    # The units the build extracts features for: every vertex of a
    # depth-limited index, every document root of a collection index.
    if corpus.depth_limit > 0:
        units = [vertex for graph in graphs for vertex in graph.vertices]
    else:
        units = [graph.root for graph in graphs]
    sample = random.Random(SAMPLE_SEED).sample(units, min(len(units), PATTERN_SAMPLE))
    patterns = []
    with rec.span("bisim.unfold"):
        for vertex in sample:
            try:
                patterns.append(depth_limited_graph(vertex, corpus.depth_limit, 20000))
            except PatternTooLargeError:
                counts["oversized"] += 1
    encoder = EdgeLabelEncoder()
    matrices = []
    with rec.span("spectral.matrix"):
        for pattern in patterns:
            try:
                matrices.append(pattern_matrix(pattern, encoder, max_vertices=800))
            except PatternTooLargeError:
                counts["oversized"] += 1
    with rec.span("spectral.eigen"):
        solve_batch(matrices)
    return documents


def probe_btree_writes(rec: Recorder, index: FixIndex) -> None:
    """Bulk load and one-by-one insert of the built index's entries."""
    pairs = [
        (
            encode_feature_key(e.key.root_label, e.key.range.lmax, e.key.range.lmin),
            e.pointer.pack(),
        )
        for e in index.iter_entries()
    ]
    with rec.span("btree.bulk_load"):
        BPlusTree.bulk_load(pairs)
    with rec.span("btree.insert"):
        tree = BPlusTree()
        for key, value in pairs:
            tree.insert(key, value)


def probe_paged_pass(probe: Probe, corpus: Corpus, store, index, directory: str):
    """Save, reopen file-backed with caches a quarter of the corpus, run
    the queries once: the pager's counters over that pass repeat exactly."""
    rec, counts = probe.rec, probe.counts
    saved = os.path.join(directory, "saved")
    with rec.span("core.save"):
        save_index(index, saved)
        store.save(os.path.join(saved, "store"))
    cache_documents, cache_pages = cache_quarter(corpus, store)
    with rec.span("core.load"):
        paged_store = PrimaryXMLStore.load(
            os.path.join(saved, "store"),
            cache_documents=cache_documents,
            page_cache_pages=cache_pages,
        )
        paged_index = load_index(saved, paged_store, page_cache_pages=cache_pages)
    counts["stored_bytes"] += paged_index.size_bytes() + paged_store.size_bytes()
    processor = FixQueryProcessor(paged_index)
    before = paged_index.pager_stats()
    for text in corpus.queries:
        processor.query(text)
    pager = paged_index.pager_stats().delta(before)
    counts["pager_logical_reads"] += pager.logical_reads
    counts["pager_physical_reads"] += pager.physical_reads
    counts["pager_evictions"] += pager.evictions
    return paged_store, paged_index


# --------------------------------------------------------------------- #
# Query side
# --------------------------------------------------------------------- #


def probe_queries(probe: Probe, corpus: Corpus, store, index):
    """Cold planning, then ``QUERY_ROUNDS`` x (plain pass, the same pass
    stage by stage, the same pass with the program's tracing on).
    Returns ``query -> answer`` of the plain pass, and the cold plans."""
    rec, counts, check = probe.rec, probe.counts, probe.check
    queries = corpus.queries
    with rec.span("query.parse"):
        for text in queries:
            parse_query(text)
            decompose(twig_of(text))
    with rec.span("core.plan_cold"):
        plans = [build_plan(index, text) for text in queries]

    with rec.span("perf.oracle"):
        by_id = documents_by_id(corpus)
        truths = {
            text: expected_answers(text, by_id, corpus.depth_limit)
            for text in queries
        }

    processor = FixQueryProcessor(index)
    traced = FixQueryProcessor(index, obs=Obs(trace=True))
    engine = NavigationalEngine(store)
    for text in queries:
        processor.query(text)
        traced.query(text)
    qid_base = counts["queries"]
    counts["queries"] += len(queries)
    plain: dict = {}
    replayed: dict = {}
    # Everything alive by now (trees, index, the probes' leftovers) stays
    # alive through the passes; keeping the collector off it makes the
    # three kinds of pass pay the same for their own garbage.
    gc.collect()
    gc.freeze()
    try:
        for round_number in range(QUERY_ROUNDS):
            for text in queries:
                with rec.span("perf.plain_query") as span:
                    result = processor.query(text)
                probe.latencies.append((span.end - span.start) * 1e3)
                plain[text] = pointers(result.results)
            for number, text in enumerate(queries):
                with rec.span("query", qid=qid_base + number):
                    entries, survivors = replay_query(
                        rec, processor, engine, store, text
                    )
                replayed[text] = survivors
                if round_number == 0:
                    candidates = {
                        (e.pointer.doc_id, e.pointer.node_id) for e in entries
                    }
                    counts["entries_offered"] += index.entry_count
                    counts["candidates"] += len(candidates)
                    counts["true_candidates"] += len(truths[text] & candidates)
                    counts["results"] += len(survivors)
            for text in queries:
                with rec.span("obs.traced_query"):
                    traced.query(text)
    finally:
        gc.unfreeze()
    for text in sorted(queries):
        check.answer(text, replayed[text], truths[text])
        check.operation(
            replayed[text] == plain[text],
            f"{text}: stage-by-stage replay differs from processor.query",
        )
    return plain, plans


def replay_query(rec, processor, engine, store, text):
    """``processor.query`` taken apart: plan -> prune -> group by
    document -> fetch each touched document -> refine its candidates ->
    sort.  Returns the candidate entries and the surviving pointers."""
    with rec.span("core.plan"):
        plan = processor.plan_for(text)
    with rec.span("core.prune"):
        entries = processor.prune(text)
    with rec.span("core.merge"):
        groups: dict[int, list] = {}
        for entry in entries:
            groups.setdefault(entry.pointer.doc_id, []).append(entry.pointer)
        order = sorted(groups)
    twig = plan.refined
    survivors = []
    for doc_id in order:
        members = groups[doc_id]
        with rec.span("storage.fetch"):
            document = store.get_document(doc_id)
        with rec.span("engine.refine"):
            if twig.leading_axis is Axis.CHILD:
                flags = engine.refine_group(
                    twig, document, [pointer.node_id for pointer in members]
                )
                survivors.extend(p for p, ok in zip(members, flags) if ok)
            elif engine.evaluate_document(twig, document):
                survivors.extend(members)
    with rec.span("core.merge"):
        survivors.sort()
    return entries, pointers(survivors)


def probe_scans(probe: Probe, plans: list, store, index) -> None:
    """Each plan fragment's range scan on the B-tree and on the R-tree
    view, and a raw record read of every document."""
    rec, counts = probe.rec, probe.counts
    fragments = [
        (key, anchored)
        for plan in plans
        for key, anchored in zip(plan.feature_keys, plan.anchored)
    ]
    before = index.btree.stats.snapshot()
    with rec.span("btree.scan"):
        for key, anchored in fragments:
            for _ in index.candidates_for_key(key, anchored=anchored):
                pass
    tree = index.btree.stats.delta(before)
    counts["scans"] += len(fragments)
    counts["leaf_scans"] += tree.leaf_scans
    counts["node_visits"] += tree.node_visits
    with rec.span("spatial.rtree_build"):
        view = index.spatial_view()
    with rec.span("spatial.rtree_scan"):
        for key, anchored in fragments:
            for _ in view.candidates_for_key(key, anchored=anchored):
                pass
    with rec.span("storage.record_read"):
        for doc_id in store.doc_ids():
            store.get_source(doc_id)


def probe_sharding(probe: Probe, corpus: Corpus, plain: dict, directory: str):
    """The same corpus and one pass of the same queries against a
    4-shard spilled index, scatter-gather and push-down."""
    rec, counts, check = probe.rec, probe.counts, probe.check
    config = FixIndexConfig(
        depth_limit=corpus.depth_limit,
        shards=4,
        spill_dir=os.path.join(directory, "shards"),
        page_cache_pages=16,
    )
    sharded = ShardedFixIndex.build_from_sources(corpus.sources, config)
    for pushdown, name in ((False, "scatter"), (True, "pushdown")):
        processor = FixQueryProcessor(sharded, pushdown=pushdown)
        for text in corpus.queries:
            with rec.span(f"core.sharding.{name}_query"):
                result = processor.query(text)
            check.operation(
                pointers(result.results) == plain[text],
                f"{text}: sharded ({name}) answer differs",
            )
    registry = sharded.obs.registry
    counts["shards_skipped"] += registry.counter("shards.skipped").value
    counts["shards_visited"] += registry.counter("shards.visited").value
    for shard in sharded.shards:
        close_index(shard.store, shard)


# --------------------------------------------------------------------- #
# Mutations and the CLI
# --------------------------------------------------------------------- #


def probe_mutations(probe: Probe, corpus: Corpus, store, index) -> None:
    """Stage and apply an add, then a removal, of up to ten pool
    documents on the in-memory index, with two queries after every
    mutation as in ``churn_mix``: the plan cache's hit ratio over those
    queries is what label-scoped invalidation keeps."""
    rec, counts = probe.rec, probe.counts
    queries = corpus.queries
    entries_before = index.entry_count
    processor = FixQueryProcessor(index)
    for text in queries:
        processor.query(text)
    warm = processor.plan_cache.stats_dict()
    asked = 0

    def two_queries() -> None:
        nonlocal asked
        for _ in range(2):
            processor.query(queries[asked % len(queries)])
            asked += 1

    added = []
    for source in corpus.pool_sources[:10]:
        document = parse_xml(source)
        doc_id = store.add_document(document)
        with rec.span("core.stage_add"):
            staged = index.stage_document(doc_id, document)
        with rec.span("core.apply_add"):
            index.apply_staged_add(staged)
        added.append(doc_id)
        two_queries()
    for doc_id in added:
        with rec.span("core.stage_remove"):
            staged = index.stage_removal(doc_id)
        with rec.span("core.apply_remove"):
            index.apply_staged_removal(staged)
        two_queries()
    probe.check.operation(
        index.entry_count == entries_before, "add + remove changed the index"
    )
    counts["plan_hits"] += processor.plan_cache.stats_dict()["hits"] - warm["hits"]
    counts["plan_lookups"] += asked


def probe_cli(probe: Probe, corpus: Corpus, directory: str) -> None:
    """The cold CLI on this corpus: one build, two queries, one stats."""
    files = write_files(corpus, os.path.join(directory, "xml"))
    index_dir = os.path.join(directory, "cli-index")
    depth_limit = str(corpus.depth_limit)
    invocations = [
        ("cli.build", ("build", "--xml", *files, "--depth-limit", depth_limit,
                       "--out", index_dir)),
        ("cli.query", ("query", index_dir, corpus.queries[0])),
        ("cli.query", ("query", index_dir, corpus.queries[-1])),
        ("cli.stats", ("stats", index_dir)),
    ]
    for name, arguments in invocations:
        with probe.rec.span(name):
            done = run_cli(*arguments)
        probe.check.operation(
            done.returncode == 0, f"repro {arguments[0]}: exit {done.returncode}"
        )


def probe_startup(rec: Recorder) -> None:
    """What every CLI invocation pays before it does anything."""
    for name, code in (
        ("cli.interpreter", "pass"),
        ("cli.numpy_import", "import numpy"),
        ("cli.import", "import repro"),
    ):
        for _ in range(3):
            with rec.span(name):
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=dict(os.environ, PYTHONPATH=SRC),
                    check=True,
                )


# --------------------------------------------------------------------- #
# Spans and counts -> the per-layer metrics of BENCHMARK.json
# --------------------------------------------------------------------- #


def assemble(rec: Recorder, counts: Counter, latencies: list[float]) -> dict:
    totals = rec.totals()

    def total(name: str) -> float:
        return totals.get(name, 0.0)

    per_round = 1.0 / QUERY_ROUNDS
    stages = (
        total("core.plan")
        + total("core.prune")
        + total("core.merge")
        + total("storage.fetch")
        + total("engine.refine")
    )
    plain = total("perf.plain_query")
    ordered = sorted(latencies)
    metrics = {
        "xmltree.parse_s": total("xmltree.parse"),
        "xmltree.parse_mb_per_s": ratio(
            counts["source_bytes"] / 1e6, total("xmltree.parse")
        ),
        "bisim.build_s": total("bisim.build"),
        "bisim.vertices_per_element": ratio(
            counts["bisim_vertices"], counts["elements"]
        ),
        "bisim.unfold_s": total("bisim.unfold"),
        "spectral.matrix_s": total("spectral.matrix"),
        "spectral.eigen_s": total("spectral.eigen"),
        "spectral.cache_hit_ratio": ratio(
            counts["cache_hits"], counts["cache_lookups"]
        ),
        "spectral.eigen_computations": counts["eigen_computations"],
        "core.build_phase_sum_ratio": ratio(
            sum(counts["phase." + phase] for phase in BUILD_PHASES),
            counts["build_seconds"],
        ),
        "btree.bulk_load_s": total("btree.bulk_load"),
        "btree.insert_s": total("btree.insert"),
        "btree.scan_s": total("btree.scan"),
        "btree.leaf_scans_per_scan": ratio(counts["leaf_scans"], counts["scans"]),
        "btree.node_visits_per_scan": ratio(counts["node_visits"], counts["scans"]),
        "spatial.rtree_build_s": total("spatial.rtree_build"),
        "spatial.rtree_scan_s": total("spatial.rtree_scan"),
        "storage.fetch_s": total("storage.fetch") * per_round,
        "storage.record_read_s": total("storage.record_read"),
        "storage.pager_hit_ratio": ratio(
            counts["pager_logical_reads"] - counts["pager_physical_reads"],
            counts["pager_logical_reads"],
        ),
        "storage.pager_evictions": counts["pager_evictions"],
        "storage.pager_physical_reads": counts["pager_physical_reads"],
        "storage.bytes_per_source_byte": ratio(
            counts["stored_bytes"], counts["source_bytes"]
        ),
        "query.parse_s": total("query.parse"),
        "query.p50_ms": statistics.median(ordered),
        "query.p95_ms": ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))],
        "core.plan_cold_s": total("core.plan_cold"),
        "core.plan_cache_hit_ratio": ratio(
            counts["plan_hits"], counts["plan_lookups"]
        ),
        "core.prune_s": total("core.prune") * per_round,
        "core.merge_s": total("core.merge") * per_round,
        "core.candidates_per_result": ratio(counts["candidates"], counts["results"]),
        "core.pruning_power": 1.0
        - ratio(counts["candidates"], counts["entries_offered"]),
        "core.false_positive_ratio": 1.0
        - ratio(counts["true_candidates"], counts["candidates"]),
        "engine.refine_s": total("engine.refine") * per_round,
        "engine.refine_us_per_candidate": ratio(
            total("engine.refine") * per_round * 1e6, counts["candidates"]
        ),
        "core.stage_sum_ratio": ratio(stages, plain),
        "core.stage_add_s": total("core.stage_add"),
        "core.apply_add_s": total("core.apply_add"),
        "core.stage_remove_s": total("core.stage_remove"),
        "core.apply_remove_s": total("core.apply_remove"),
        "core.save_s": total("core.save"),
        "core.load_s": total("core.load"),
        "core.sharding.scatter_query_s": total("core.sharding.scatter_query"),
        "core.sharding.pushdown_query_s": total("core.sharding.pushdown_query"),
        "core.sharding.shards_skipped_ratio": ratio(
            counts["shards_skipped"],
            counts["shards_skipped"] + counts["shards_visited"],
        ),
        "cli.interpreter_s": median_of(rec, "cli.interpreter"),
        "cli.numpy_import_s": median_of(rec, "cli.numpy_import"),
        "cli.import_s": median_of(rec, "cli.import"),
        "cli.build_s": total("cli.build"),
        "cli.query_s": total("cli.query"),
        "cli.stats_s": total("cli.stats"),
        "obs.tracing_on_ratio": ratio(total("obs.traced_query"), plain),
        "perf.trace_overhead_ratio": ratio(total("query"), plain),
    }
    for phase in BUILD_PHASES:
        metrics[f"core.build_phase.{phase}_s"] = counts["phase." + phase]
    return metrics


def median_of(rec: Recorder, name: str) -> float:
    return statistics.median(s.end - s.start for s in rec.spans if s.name == name)
