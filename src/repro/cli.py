"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``build``  — load XML files (or generate a named data set) into a
  primary store, build a FIX index, and save both to a directory.
* ``query``  — run a path expression against a saved index; prints the
  matched units and the phase breakdown.
* ``add``    — incrementally index new XML files into a saved index
  (label-scoped invalidation; no rebuild).
* ``remove`` — remove documents (and their entries) from a saved index.
* ``stats``  — summarize a saved index (entries, sizes, labels, caches).
* ``datasets`` — list the built-in synthetic data sets.
* ``bench``  — regenerate one of the paper's tables/figures.
* ``trace``  — aggregate a JSONL trace (``--trace`` on build/query)
  into the per-phase / per-query breakdown (``--slow`` lists captured
  slow-query exemplars).
* ``metrics`` — render the metrics of a trace file or a saved index as
  Prometheus text or JSON (DESIGN.md §13).
* ``top``    — live terminal dashboard tailing a trace file
  (``--once`` renders a single plain frame, for CI and saved traces).

Examples::

    python -m repro build --dataset xmark --scale 0.3 --out /tmp/idx \\
        --depth-limit 6 --trace /tmp/idx/trace.jsonl
    python -m repro query /tmp/idx "//item[name]/mailbox" \\
        --trace /tmp/idx/trace.jsonl
    python -m repro trace /tmp/idx/trace.jsonl
    python -m repro metrics /tmp/idx/trace.jsonl --format prometheus
    python -m repro top /tmp/idx/trace.jsonl --once
    python -m repro stats /tmp/idx
    python -m repro bench table2 --scale 0.3

Each command imports what it runs, when it runs: a structural query or
``stats`` on a saved index loads neither numpy nor the builder's
eigensolver (DESIGN.md §14, "Cold start").
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.errors import ReproError


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1, so an
    out-of-range value is a usage error rather than a config
    ``ValueError`` later."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FIX: feature-based XML indexing (paper reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and save a FIX index")
    source = build.add_mutually_exclusive_group(required=True)
    source.add_argument("--xml", nargs="+", metavar="FILE", help="XML input files")
    source.add_argument(
        "--dataset", choices=["xbench", "dblp", "xmark", "treebank"],
        help="generate a built-in synthetic data set instead",
    )
    build.add_argument("--scale", type=float, default=0.3, help="data-set scale")
    build.add_argument("--seed", type=int, default=42, help="data-set seed")
    build.add_argument("--out", required=True, metavar="DIR", help="output directory")
    build.add_argument(
        "--depth-limit", type=int, default=None,
        help="pattern depth limit L (default: data set's suggested value, "
        "or 0 for XML files)",
    )
    build.add_argument("--clustered", action="store_true", help="clustered variant")
    build.add_argument(
        "--beta", type=int, default=None, metavar="B",
        help="enable the value extension with B hash buckets",
    )
    build.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="build worker processes (N>1 fans documents out across N "
        "processes; results are byte-identical to the serial build)",
    )
    build.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a JSONL span trace of the build to PATH "
        "(overwrites; inspect with 'repro trace PATH')",
    )
    build.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="partition documents into N independent shards (N>1 saves "
        "a sharded index; query answers are pointer-identical to the "
        "single-index build)",
    )
    build.add_argument(
        "--shard-affinity", choices=["hash", "root-label"], default="hash",
        help="shard routing: stable document hash (default) or root "
        "label (clusters look-alike documents, enabling shard skipping "
        "on anchored queries)",
    )
    build.add_argument(
        "--shard-workers", type=_positive_int, default=1, metavar="N",
        help="shard build worker processes: each shard's staging runs in "
        "the pool, N shards at a time (on-disk bytes identical to the "
        "serial build); also the saved scan-concurrency bound",
    )
    build.add_argument(
        "--page-cache-pages", type=_positive_int, default=None, metavar="P",
        help="buffer-pool bound, in pages, for every file-backed pager "
        "(default 256; only file-backed pagers evict)",
    )
    build.add_argument(
        "--spill-dir", metavar="DIR", default=None,
        help="build out-of-core: shard stores and B-trees go straight "
        "to files under DIR instead of memory (sharded builds only)",
    )

    query = commands.add_parser("query", help="query a saved index")
    query.add_argument("index_dir", metavar="DIR")
    query.add_argument("expression", metavar="QUERY")
    query.add_argument(
        "--metrics", action="store_true",
        help="also compute sel/pp/fpr against the brute-force ground truth",
    )
    query.add_argument(
        "--limit", type=int, default=20, help="max result pointers to print"
    )
    query.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="refinement worker processes (N>1 fans document groups out "
        "across N processes; results are identical to serial)",
    )
    query.add_argument(
        "--no-plan-cache", action="store_true",
        help="plan every repetition afresh: parse and decompose, plus the "
        "feature keys (coverage check and eigensolve) when the query takes "
        "the index scan",
    )
    query.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="run the query K times (repetitions after the first hit "
        "the plan cache); timings are reported per run",
    )
    query.add_argument(
        "--trace", metavar="PATH", default=None,
        help="append a JSONL span trace of the run to PATH (build and "
        "query traces can share one file)",
    )
    query.add_argument(
        "--page-cache-pages", type=_positive_int, default=None, metavar="P",
        help="override the saved buffer-pool bound for this session",
    )
    query.add_argument(
        "--shard-workers", type=_positive_int, default=None, metavar="N",
        help="override the saved shard scan-concurrency bound for this "
        "session (sharded indexes only)",
    )
    query.add_argument(
        "--pushdown", action="store_true",
        help="sharded indexes: run prune+refine inside each shard that "
        "can hold a candidate and merge only verified matches (answers "
        "identical to the scatter-gather path)",
    )
    query.add_argument(
        "--slow-log", metavar="PATH", default=None,
        help="capture slow-query exemplars to a bounded JSONL ring at "
        "PATH (threshold p99-derived unless --slow-threshold-ms)",
    )
    query.add_argument(
        "--slow-threshold-ms", type=float, default=None, metavar="MS",
        help="fixed slow-query threshold in milliseconds (enables "
        "capture even without --slow-log; exemplars then ride the "
        "trace only)",
    )

    add = commands.add_parser(
        "add", help="add documents to a saved index incrementally"
    )
    add.add_argument("index_dir", metavar="DIR")
    add.add_argument(
        "--xml", nargs="+", required=True, metavar="FILE",
        help="XML files to store and index",
    )

    remove = commands.add_parser(
        "remove", help="remove documents from a saved index"
    )
    remove.add_argument("index_dir", metavar="DIR")
    remove.add_argument(
        "doc_ids", nargs="+", type=int, metavar="DOC_ID",
        help="document ids to remove (see 'repro query' output)",
    )

    stats = commands.add_parser("stats", help="summarize a saved index")
    stats.add_argument("index_dir", metavar="DIR")

    trace = commands.add_parser(
        "trace", help="aggregate a JSONL trace into a breakdown"
    )
    trace.add_argument("trace_file", metavar="TRACE")
    trace.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="slowest queries to list (default 10)",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON"
    )
    trace.add_argument(
        "--slow", action="store_true",
        help="list captured slow-query exemplars instead of the "
        "aggregate breakdown (reads trace files and slow-log rings)",
    )
    trace.add_argument(
        "--strict", action="store_true",
        help="fail on malformed trace lines instead of skipping them",
    )

    metrics = commands.add_parser(
        "metrics", help="render metrics as Prometheus text or JSON"
    )
    metrics.add_argument(
        "source", metavar="SOURCE",
        help="a JSONL trace file, or a saved index directory",
    )
    metrics.add_argument(
        "--format", dest="format", choices=["prometheus", "json"],
        default="prometheus", help="exposition format (default prometheus)",
    )

    top = commands.add_parser(
        "top", help="live terminal dashboard over a JSONL trace file"
    )
    top.add_argument("trace_file", metavar="TRACE")
    top.add_argument(
        "--once", action="store_true",
        help="render one plain frame and exit (CI / saved traces; "
        "'now' is the newest event timestamp in the file)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in seconds (default 1.0)",
    )
    top.add_argument(
        "--window", type=float, default=60.0, metavar="S",
        help="rolling-statistics window in seconds (default 60)",
    )

    verify = commands.add_parser("verify", help="consistency-check a saved index")
    verify.add_argument("index_dir", metavar="DIR")
    verify.add_argument(
        "--fast", action="store_true",
        help="skip feature-key recomputation (structural checks only)",
    )

    commands.add_parser("datasets", help="list built-in data sets")

    bench = commands.add_parser("bench", help="regenerate a paper exhibit")
    bench.add_argument(
        "exhibit",
        choices=["table1", "table2", "figure5", "figure6", "figure7",
                 "ablation-features", "ablation-beta"],
    )
    bench.add_argument("--scale", type=float, default=0.3)
    bench.add_argument("--seed", type=int, default=42)
    return parser


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.index import FixIndex, FixIndexConfig
    from repro.core.persistence import save_index
    from repro.core.sharding import ShardedFixIndex
    from repro.obs import ObsConfig
    from repro.storage import PrimaryXMLStore
    from repro.xmltree import parse_xml_file

    store = PrimaryXMLStore()
    depth_limit = args.depth_limit
    if args.dataset:
        from repro.datasets import load_dataset

        bundle = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        for document in bundle.documents:
            store.add_document(document)
        if depth_limit is None:
            depth_limit = bundle.depth_limit
        print(f"generated {bundle.description}")
    else:
        for path in args.xml:
            store.add_document(parse_xml_file(path))
            print(f"loaded {path}")
        if depth_limit is None:
            depth_limit = 0
    overrides = {}
    if args.page_cache_pages is not None:
        overrides["page_cache_pages"] = args.page_cache_pages
    config = FixIndexConfig(
        depth_limit=depth_limit,
        clustered=args.clustered,
        value_buckets=args.beta,
        workers=args.workers,
        shards=args.shards,
        shard_affinity=args.shard_affinity,
        shard_workers=args.shard_workers,
        spill_dir=args.spill_dir,
        obs=ObsConfig(trace=bool(args.trace), trace_path=args.trace),
        **overrides,
    )
    started = time.perf_counter()
    if args.shards > 1:
        index = ShardedFixIndex.build(store, config)
        seconds = time.perf_counter() - started
        index.save(args.out)
        print(
            f"built {index!r} in {seconds:.2f}s -> {args.out} "
            f"({index.size_bytes() / 1e6:.2f} MB B-trees and structure)"
        )
        entries = " ".join(
            f"shard{shard_id}={shard.entry_count}"
            for shard_id, shard in enumerate(index.shards)
        )
        print(f"  entries: {entries}")
        pager = index.pager_stats()
        print(
            f"  pager: {pager.logical_reads} reads, "
            f"{pager.hit_rate:.1%} cache hit rate, "
            f"{pager.evictions} evictions"
        )
    else:
        index = FixIndex.build(store, config)
        seconds = time.perf_counter() - started
        store.save(os.path.join(args.out, "store"))
        save_index(index, args.out)
        print(
            f"built {index!r} in {seconds:.2f}s -> {args.out} "
            f"({index.size_bytes() / 1e6:.2f} MB B-tree and structure)"
        )
        stats = index.report.stats
        phases = " ".join(
            f"{phase}={seconds:.2f}s"
            for phase, seconds in index.report.timings.as_dict().items()
        )
        print(f"  phases: {phases}")
        print(
            f"  eigen: {stats.eigen_computations} solved, "
            f"{stats.cache_hits} cache hits, "
            f"{stats.oversized_patterns} oversized"
        )
        if stats.eigen_batches:
            sizes = sorted(stats.eigen_batch_sizes.items())
            histogram = " ".join(f"{size}x{count}" for size, count in sizes)
            print(
                f"  eigen batches: {stats.eigen_batches} stacked solves "
                f"(size x calls: {histogram})"
            )
    if args.trace:
        written = index.obs.flush(args.trace)
        print(f"  trace: {written} event(s) -> {args.trace}")
    return 0


def _open(
    index_dir: str,
    page_cache_pages: int | None = None,
    shard_workers: int | None = None,
):
    """Reattach to a saved index — sharded (``sharded.json`` manifest)
    or single — returning ``(store, index)``.  ``page_cache_pages``
    (else the saved bound) caps every pager opened: the B-tree's and
    the store's."""
    from repro.core.persistence import load_index, saved_config
    from repro.core.sharding import ShardedFixIndex
    from repro.storage import PrimaryXMLStore

    if ShardedFixIndex.is_sharded(index_dir):
        index = ShardedFixIndex.load(
            index_dir,
            page_cache_pages=page_cache_pages,
            shard_workers=shard_workers,
        )
        return index.store, index
    store = PrimaryXMLStore.load(
        os.path.join(index_dir, "store"),
        page_cache_pages=(
            page_cache_pages
            if page_cache_pages is not None
            else saved_config(index_dir).page_cache_pages
        ),
    )
    return store, load_index(
        index_dir, store, page_cache_pages=page_cache_pages
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.processor import FixQueryProcessor
    from repro.obs import Obs
    from repro.query import twig_of

    store, index = _open(
        args.index_dir, args.page_cache_pages, args.shard_workers
    )
    obs = Obs(trace=bool(args.trace))
    slow_log = None
    if args.slow_log or args.slow_threshold_ms is not None:
        from repro.obs import SlowQueryLog

        slow_log = SlowQueryLog(
            path=args.slow_log,
            threshold=(
                args.slow_threshold_ms / 1000.0
                if args.slow_threshold_ms is not None
                else None
            ),
        )
    processor = FixQueryProcessor(
        index,
        workers=args.workers,
        plan_cache=not args.no_plan_cache,
        pushdown=args.pushdown,
        slow_log=slow_log,
        obs=obs,
    )
    twig = twig_of(args.expression)
    for _ in range(max(1, args.repeat)):
        result = processor.query(twig)
    cached = " (plan cached)" if result.plan_cached else ""
    print(
        f"candidates={result.candidate_count} results={result.result_count} "
        f"path={result.access_path.value} "
        f"plan={result.plan_seconds * 1000:.2f}ms{cached} "
        f"prune={result.prune_seconds * 1000:.2f}ms "
        f"refine={result.refine_seconds * 1000:.2f}ms "
        f"[workers={result.workers} "
        f"docs_fetched={result.documents_fetched}"
        f"{' pushdown' if result.pushdown else ''}]"
    )
    if args.repeat > 1:
        counters = obs.registry.snapshot()["counters"]
        runs = counters["query.count"]
        print(
            f"  over {runs:.0f} runs: "
            f"plan={counters['query.phase_seconds.plan'] * 1000:.2f}ms "
            f"prune={counters['query.phase_seconds.prune'] * 1000:.2f}ms "
            f"refine={counters['query.phase_seconds.refine'] * 1000:.2f}ms "
            f"plan_cache_hit_rate="
            f"{counters.get('query.plan_cache.hits', 0.0) / runs:.0%}"
        )
    for pointer in result.results[: args.limit]:
        element = store.resolve(pointer)
        print(f"  doc {pointer.doc_id} node {pointer.node_id} <{element.tag}>")
    if result.result_count > args.limit:
        print(f"  ... and {result.result_count - args.limit} more")
    if args.metrics:
        from repro.core.metrics import evaluate_pruning

        metrics = evaluate_pruning(index, twig, processor=processor)
        print(
            f"sel={metrics.sel:.2%} pp={metrics.pp:.2%} fpr={metrics.fpr:.2%} "
            f"false_negatives={metrics.false_negatives}"
        )
    if slow_log is not None:
        where = f" -> {slow_log.path}" if slow_log.path else ""
        print(
            f"slow log: {slow_log.captured}/{slow_log.considered} "
            f"captured{where}"
        )
    if args.trace:
        written = obs.flush(args.trace, append=True)
        print(f"trace: appended {written} event(s) -> {args.trace}")
    return 0


def _save_mutated(index, store, index_dir: str) -> None:
    """Persist an index mutated in place by ``add``/``remove``."""
    from repro.core.persistence import save_index
    from repro.core.sharding import ShardedFixIndex

    if isinstance(index, ShardedFixIndex):
        index.save(index_dir)
    else:
        store.save(os.path.join(index_dir, "store"))
        save_index(index, index_dir)


def _cmd_add(args: argparse.Namespace) -> int:
    from repro.xmltree import parse_xml_file

    store, index = _open(args.index_dir)
    for path in args.xml:
        started = time.perf_counter()
        doc_id = index.add_document(parse_xml_file(path))
        seconds = time.perf_counter() - started
        print(
            f"added {path} as doc {doc_id} in {seconds * 1000:.1f}ms "
            f"(epoch {index.generation})"
        )
    _save_mutated(index, store, args.index_dir)
    print(f"saved -> {args.index_dir} ({index.entry_count} entries)")
    return 0


def _cmd_remove(args: argparse.Namespace) -> int:
    store, index = _open(args.index_dir)
    for doc_id in args.doc_ids:
        started = time.perf_counter()
        removed = index.remove_document(doc_id)
        seconds = time.perf_counter() - started
        print(
            f"removed doc {doc_id} ({removed} entries) in "
            f"{seconds * 1000:.1f}ms (epoch {index.generation})"
        )
    _save_mutated(index, store, args.index_dir)
    print(f"saved -> {args.index_dir} ({index.entry_count} entries)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.sharding import ShardedFixIndex

    _, index = _open(args.index_dir)
    config = index.config
    sharded = isinstance(index, ShardedFixIndex)
    print(f"{index!r}")
    print(f"  entries:        {index.entry_count}")
    if sharded:
        heights = "/".join(
            str(shard.btree.height()) for shard in index.shards
        )
        print(f"  shards:         {index.shard_count} "
              f"(affinity {config.shard_affinity}, "
              f"{config.shard_workers} worker(s))")
        btree_bytes = sum(shard.btree.size_bytes() for shard in index.shards)
        print(f"  B-trees:        {btree_bytes / 1e6:.2f} MB, "
              f"heights {heights}")
        for shard_id, shard in enumerate(index.shards):
            print(f"    shard {shard_id}: {shard.entry_count} entries, "
                  f"{shard.store.document_count} documents")
        balance = index.balance()
        skew = balance["skew"]
        skew_text = "inf" if skew == float("inf") else f"{skew:.2f}"
        print(f"  balance:        skew {skew_text} "
              f"(max/min shard entries)")
        if balance["empty_shards"] and any(balance["entries"]):
            empty = ", ".join(str(s) for s in balance["empty_shards"])
            if config.shard_affinity == "root-label":
                why = ("root-label affinity cannot fill more shards than "
                       "the corpus has distinct root labels; consider "
                       "fewer shards or 'hash' affinity")
            else:
                why = "consider fewer shards"
            print(f"  warning: shard(s) {empty} hold no entries — {why}")
    else:
        print(f"  B-tree:         {index.btree.size_bytes() / 1e6:.2f} MB, "
              f"height {index.btree.height()}")
    if index.clustered_store is not None:
        print(f"  clustered copy: {index.clustered_store.size_bytes() / 1e6:.2f} MB, "
              f"{index.clustered_store.unit_count} units")
    structures = [
        shard.structure for shard in (index.shards if sharded else [index])
    ]
    print(
        f"  structure:      "
        f"{sum(s.vertex_count for s in structures)} vertices, "
        f"{sum(s.edge_count for s in structures)} edges, "
        f"{sum(s.size_bytes() for s in structures)} bytes "
        f"({sum(s.document_count for s in structures)} documents)"
    )
    print(f"  depth limit:    {config.depth_limit}")
    print(f"  value buckets:  {config.value_buckets}")
    print(f"  edge labels:    {len(index.encoder)}")
    pager = index.pager_stats()
    print(
        f"  buffer pool:    {config.page_cache_pages} pages per pager, "
        f"{pager.hit_rate:.1%} hit rate "
        f"({pager.cache_hits}/{pager.logical_reads} reads), "
        f"{pager.evictions} evictions this process"
    )
    built = [shard.report.stats for shard in (index.shards if sharded else [index])]
    hits = sum(stats.cache_hits for stats in built)
    lookups = hits + sum(stats.cache_misses for stats in built)
    print(
        f"  spectral cache: {hits}/{lookups} classes already keyed "
        f"({hits / lookups if lookups else 0.0:.1%})"
    )
    index.epochs.publish(index.obs.registry)
    snapshot = index.obs.registry.snapshot()
    counters = snapshot["counters"]
    plan_hits = counters.get("query.plan_cache.hits", 0.0)
    plan_lookups = plan_hits + counters.get("query.plan_cache.misses", 0.0)
    print(
        f"  plan cache:     {plan_hits:.0f}/{plan_lookups:.0f} hits "
        f"({plan_hits / plan_lookups if plan_lookups else 0.0:.1%} "
        "this process)"
    )
    print(
        f"  epochs:         current {snapshot['gauges'].get('epoch.current', 0):.0f}, "
        f"{counters.get('epoch.pins', 0):.0f} pins, "
        f"{counters.get('epoch.mutations', 0):.0f} mutations, "
        f"invalidations {counters.get('epoch.invalidations.scoped', 0):.0f} "
        f"scoped / {counters.get('epoch.invalidations.full', 0):.0f} full"
    )
    registry = index.obs.registry
    for name in registry.sketch_names():
        sketch = registry.sketch(name)
        if not sketch.count:
            continue
        p50, p99 = sketch.quantiles((0.5, 0.99))
        print(
            f"  {name:14s}: p50 {p50 * 1e3:.2f}ms  p99 {p99 * 1e3:.2f}ms "
            f"(n={sketch.count}, ±{sketch.rank_error_bound():.3f} rank)"
        )
    labels: dict[str, int] = {}
    for entry in index.iter_entries():
        label = entry.key.root_label
        labels[label] = labels.get(label, 0) + 1
    top = sorted(labels.items(), key=lambda kv: -kv[1])[:10]
    print("  top root labels:")
    for label, count in top:
        print(f"    {label:24s} {count}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import (
        format_slow_queries,
        format_trace_report,
        summarize_trace_file,
    )

    try:
        summary = summarize_trace_file(args.trace_file, strict=args.strict)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.slow:
        if args.json:
            print(json.dumps(summary.slow_queries, indent=2, sort_keys=True))
        else:
            print(format_slow_queries(summary, top=args.top))
    elif args.json:
        print(json.dumps(summary.as_dict(args.top), indent=2, sort_keys=True))
    else:
        print(format_trace_report(summary, top=args.top))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.expo import (
        render_json,
        render_prometheus,
        snapshot_from_trace,
    )

    if os.path.isdir(args.source):
        # A saved index: open it, take one resource sample so the
        # process/pager/epoch gauges are fresh, and render its registry.
        from repro.obs import ResourceSampler

        _, index = _open(args.source)
        ResourceSampler(index.obs.registry, index=index).sample_once()
        snapshot = index.obs.registry.snapshot()
    else:
        try:
            snapshot = snapshot_from_trace(args.source)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    text = (
        render_prometheus(snapshot)
        if args.format == "prometheus"
        else render_json(snapshot) + "\n"
    )
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    if not os.path.exists(args.trace_file):
        print(f"error: no such trace file: {args.trace_file}", file=sys.stderr)
        return 1
    return run_top(
        args.trace_file,
        once=args.once,
        interval=args.interval,
        window_seconds=args.window,
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.sharding import ShardedFixIndex
    from repro.core.verify import verify_index

    _, index = _open(args.index_dir)
    if isinstance(index, ShardedFixIndex):
        ok = True
        for shard_id, shard in enumerate(index.shards):
            report = verify_index(shard, recompute_keys=not args.fast)
            print(f"shard {shard_id}: {report.summary()}")
            for problem in report.problems:
                print(f"  {problem}")
            ok = ok and report.ok
        return 0 if ok else 1
    report = verify_index(index, recompute_keys=not args.fast)
    print(report.summary())
    for problem in report.problems:
        print(f"  {problem}")
    return 0 if report.ok else 1


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.datasets import dataset_names, load_dataset

    for name in dataset_names():
        bundle = load_dataset(name, scale=0.05)
        print(f"{name:9s} L={bundle.depth_limit}  {bundle.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        run_beta_sweep,
        run_feature_ablation,
        run_figure5,
        run_figure6,
        run_figure7,
        run_table1,
        run_table2,
    )
    from repro.bench.ablation import print_beta_sweep, print_feature_ablation
    from repro.bench.figure5 import print_figure5
    from repro.bench.figure6 import print_figure6
    from repro.bench.figure7 import print_figure7
    from repro.bench.table1 import print_table1
    from repro.bench.table2 import print_table2

    scale, seed = args.scale, args.seed
    if args.exhibit == "table1":
        print_table1(run_table1(scale=scale, seed=seed))
    elif args.exhibit == "table2":
        print_table2(run_table2(scale=scale, seed=seed))
    elif args.exhibit == "figure5":
        print_figure5(run_figure5(scale=scale, seed=seed, queries=60))
    elif args.exhibit == "figure6":
        print_figure6(run_figure6(scale=scale, seed=seed))
    elif args.exhibit == "figure7":
        print_figure7(run_figure7(scale=scale, seed=seed))
    elif args.exhibit == "ablation-features":
        print_feature_ablation(run_feature_ablation(scale=scale, seed=seed))
    elif args.exhibit == "ablation-beta":
        print_beta_sweep(run_beta_sweep(scale=scale, seed=seed))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "query": _cmd_query,
        "add": _cmd_add,
        "remove": _cmd_remove,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "verify": _cmd_verify,
        "datasets": _cmd_datasets,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # A downstream reader hanging up (`repro trace | head`) is a
        # normal end, not an error; detach stdout so the interpreter's
        # shutdown flush doesn't trip over the dead pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
