"""Parallel document fan-out for index construction and query
refinement (DESIGN.md §7 and §8).

``FixIndex.build`` stages one ``(encoded key, doc_id, node_id)`` triple
per index entry before loading the B-tree; this module produces the same
staged list using a pool of ``multiprocessing`` workers, one chunk of
documents per worker, with a **byte-identical guarantee**: the staged
list — and therefore the bulk-loaded B-tree's exact ``items()`` sequence
— is the same as the serial build's, for any worker count.

:func:`parallel_refine` applies the same pattern to Algorithm 2's
refinement phase: the query processor groups candidates by the document
(or clustered copy unit) they refine against, and the groups are fanned
out across workers.  Each candidate's verdict is a pure function of
(query, its unit's tree), so the surviving set — and the final
pointer-ordered result list — is identical for any worker count.

The guarantee rests on three invariants:

1. **Encoder pre-seeding.**  The coordinator registers every edge-label
   pair of every document with the shared encoder *before* fan-out
   (:func:`~repro.core.construction.seed_encoder`, walked in ``doc_id``
   /document order).  Each worker receives a snapshot of this complete
   encoder, so every feature is computed under identical edge weights
   regardless of which worker sees which document first.  On collection
   the worker encoders are merged back and any drift — a pair a worker
   assigned that the coordinator didn't know, or a conflicting code —
   fails loudly (:meth:`EdgeLabelEncoder.merge`).
2. **Deterministic generation.**  Entry generation itself is
   deterministic per document (vid-ordered traversals throughout), so a
   document's entry list does not depend on the worker that produced it.
   A worker's private structure DAG — the memo of the classes it has
   keyed — changes *whether* an eigenproblem is solved again, never its
   result.
3. **Order-preserving collection.**  Documents are partitioned into
   contiguous chunks in ``doc_id`` order and results are concatenated in
   chunk order, reproducing the serial staging order exactly (the
   B-tree's duplicate-key order is the staging order, because the
   loader's sort is stable).

Workers ship documents as serialized XML (re-parsed in the worker) so the
fan-out does not depend on tree objects being picklable; the re-parse is
charged to the worker's ``parse`` phase.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.construction import (
    ConstructionStats,
    GeneratorSettings,
    PhaseTimings,
    StagedEntry,
)
from repro.core.structure import StructureDag
from repro.engine import refine_candidates
from repro.errors import ShardError
from repro.obs import MetricsRegistry, Obs
from repro.spectral import EdgeLabelEncoder
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml


@dataclass
class StagedBuild:
    """Everything a staging pass (serial or parallel) produces."""

    entries: list[StagedEntry] = field(default_factory=list)
    stats: ConstructionStats = field(default_factory=ConstructionStats)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: a worker's final encoder state, returned for the drift check.
    encoder_state: dict[str, int] | None = None
    #: closed span events from the worker tracers (empty unless the
    #: coordinator asked for tracing), concatenated in chunk order so
    #: the merged trace is deterministic for any worker count.
    trace_events: list[dict] = field(default_factory=list)
    #: the worker's quantile-sketch states (``build.doc_seconds``,
    #: ``build.doc_entries``), shipped whole and merged by the
    #: coordinator in chunk order.  A worker's stream is a pure
    #: arrival-order log below the sketch capacity, so the chunk-order
    #: merge replays the serial observation order exactly (see
    #: :class:`~repro.obs.sketch.QuantileSketch`).
    sketches: dict = field(default_factory=dict)
    #: the staged documents' structure (DESIGN.md §14), for the index
    #: to absorb — in chunk order, so vertex numbering is the serial
    #: build's.
    structure: StructureDag = field(default_factory=StructureDag)


@dataclass(frozen=True, slots=True)
class ShardStoreRef:
    """How a build worker reattaches to a spilled shard store: the
    flushed pages file plus the live record directory.  Shipping this
    instead of the sources keeps the task pickle O(documents), not
    O(corpus bytes) — the out-of-core property survives the fan-out."""

    pages_path: str
    page_size: int
    page_cache_pages: int
    #: (doc_id, page_id, slot) in doc_id order
    #: (:meth:`~repro.storage.PrimaryXMLStore.record_locations`).
    records: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class StageTask:
    """Pickled staging payload — one chunk of the document fan-out, or
    one whole shard.  Exactly one of ``documents`` (inline sources) and
    ``store_ref`` (spilled shard: reattach and read) is set."""

    settings: GeneratorSettings
    #: snapshot of the coordinator's fully seeded encoder.
    encoder: dict[str, int]
    #: capture spans in the worker (the coordinator's tracing state).
    trace: bool
    #: the ``proc`` tag of the worker's spans (``worker-<chunk>`` /
    #: ``shard-<id>``).
    proc: str
    #: (doc_id, serialized XML) in doc_id order.
    documents: tuple[tuple[int, str], ...] | None = None
    store_ref: ShardStoreRef | None = None


def _stage_task(task: StageTask) -> StagedBuild:
    """Stage one task's documents under a fresh generator (runs in a
    worker process, or inline when there is nothing to fan out)."""
    obs = Obs(trace=task.trace, proc=task.proc)
    generator = task.settings.generator(
        EdgeLabelEncoder.from_dict(task.encoder), obs=obs, structure=StructureDag()
    )
    store = None
    if task.store_ref is not None:
        ref = task.store_ref
        store = PrimaryXMLStore.attach(
            ref.pages_path,
            ref.page_size,
            ref.records,
            page_cache_pages=ref.page_cache_pages,
        )
        doc_ids = [doc_id for doc_id, _, _ in ref.records]
        source_of = store.get_source
    else:
        sources = dict(task.documents)
        doc_ids = list(sources)
        source_of = sources.__getitem__
    try:
        entries = generator.stage(
            doc_ids, lambda doc_id: parse_xml(source_of(doc_id), doc_id=doc_id)
        )
    finally:
        if store is not None:
            store.pager.close()
    # Returning the worker's encoder lets the coordinator verify the
    # no-drift invariant; a complete pre-seed makes this a no-op merge.
    return StagedBuild(
        entries,
        generator.stats,
        generator.timings,
        generator.encoder.to_dict(),
        trace_events=obs.tracer.events,
        sketches=obs.registry.snapshot()["sketches"],
        structure=generator.structure,
    )


def parallel_stage(
    store: PrimaryXMLStore,
    encoder: EdgeLabelEncoder,
    settings: GeneratorSettings,
    workers: int,
    doc_ids: list[int] | None = None,
    trace: bool = False,
) -> StagedBuild:
    """Stage every document of ``store`` across ``workers`` processes.

    ``encoder`` must already be fully seeded over the documents (the
    coordinator's pre-pass); workers receive snapshots of it and their
    end states are merged back, so conflicting assignments raise
    :class:`~repro.errors.FeatureError` instead of corrupting keys.

    Returns a :class:`StagedBuild` whose entry list is identical to the
    serial staging order (doc_id order, generation order within a doc).
    """
    ids = list(store.doc_ids()) if doc_ids is None else list(doc_ids)
    workers = max(1, min(workers, len(ids)))
    chunk_size = (len(ids) + workers - 1) // workers
    serialize_started = time.perf_counter()
    tasks = [
        StageTask(
            settings,
            encoder.to_dict(),
            trace,
            proc=f"worker-{worker_id}",
            documents=tuple(
                (doc_id, store.get_source(doc_id))
                for doc_id in ids[start : start + chunk_size]
            ),
        )
        for worker_id, start in enumerate(range(0, len(ids), chunk_size))
    ]
    serialize_seconds = time.perf_counter() - serialize_started

    if len(tasks) == 1:
        results = [_stage_task(tasks[0])]
    else:
        results = process_pool(len(tasks)).map(_stage_task, tasks)

    merged = StagedBuild()
    merged.timings.parse += serialize_seconds
    sketch_registry = MetricsRegistry()
    for result in results:
        merged.entries.extend(result.entries)
        merged.stats.merge(result.stats)
        merged.timings.merge(result.timings)
        merged.trace_events.extend(result.trace_events)
        merged.structure.absorb(result.structure)
        # Chunk order — the same order the entries concatenate in — is
        # what makes the merged sketch state deterministic (and, for
        # short worker streams, identical to the serial build's).
        sketch_registry.merge_sketch_states(result.sketches)
        if result.encoder_state is not None:
            encoder.merge(EdgeLabelEncoder.from_dict(result.encoder_state))
    merged.sketches = sketch_registry.snapshot()["sketches"]
    return merged


# --------------------------------------------------------------------- #
# Per-shard build fan-out (DESIGN.md §11)
# --------------------------------------------------------------------- #


def _shard_stage_worker(task: StageTask) -> tuple[StagedBuild | None, str | None]:
    """Stage one whole shard (runs in a worker process, or in-process
    for ``shard_workers=1``).

    Never raises: a failure comes back as a ``(None, "ExcType:
    message")`` marker so the coordinator can raise a typed
    :class:`~repro.errors.ShardError` naming the shard instead of a raw
    pool traceback crossing the process boundary.
    """
    try:
        return _stage_task(task), None
    except Exception as exc:  # noqa: BLE001 - marshalled to a ShardError
        return None, f"{type(exc).__name__}: {exc}"


def parallel_shard_stage(tasks: "dict[int, StageTask]", workers: int):
    """Stage every shard of ``tasks`` (shard id → task) across
    ``workers`` processes, yielding ``(shard_id, StagedBuild)`` strictly
    in task order.

    Ordered streaming (``imap``): the coordinator bulk-loads shard *k*'s
    B-tree while later shards are still staging, and absorbs stats and
    span events in shard order — so traces and reports are identical
    for any worker count.  ``shard_workers=1`` routes through the same
    worker function in-process, keeping every code path (and therefore
    every stat) identical to the pooled one.

    Raises:
        ShardError: a worker failed; names the shard.
    """
    workers = max(1, min(workers, len(tasks)))
    if workers == 1:
        results = map(_shard_stage_worker, tasks.values())
    else:
        results = process_pool(workers).imap(_shard_stage_worker, tasks.values())
    for shard_id, (staged, error) in zip(tasks, results):
        if error is not None:
            raise ShardError(
                f"shard {shard_id}: build failed: {error}", shard=shard_id
            )
        yield shard_id, staged


# --------------------------------------------------------------------- #
# The two worker-pool caches
# --------------------------------------------------------------------- #

# Every process fan-out — document staging, shard staging, query
# refinement — draws on one cache of pools keyed by size, kept alive
# across calls (one spawn cost per process lifetime, not per build or
# per query; refinement is latency-sensitive).  Workers are stateless:
# every task ships its own settings, encoder snapshot, query and
# serialized trees or store reference, so reuse cannot leak state
# between builds, queries or indexes.
_PROCESS_POOLS: dict[int, "multiprocessing.pool.Pool"] = {}


def process_pool(processes: int) -> "multiprocessing.pool.Pool":
    """The shared worker-process pool of ``processes`` processes."""
    pool = _PROCESS_POOLS.get(processes)
    if pool is None:
        pool = multiprocessing.get_context().Pool(processes=processes)
        _PROCESS_POOLS[processes] = pool
    return pool


@atexit.register
def _shutdown_process_pools() -> None:
    while _PROCESS_POOLS:
        _, pool = _PROCESS_POOLS.popitem()
        pool.terminate()
        pool.join()


# Concurrent scatter-gather runs per-shard scans on threads, not
# processes: a scan is pager I/O plus key decoding over the shard's own
# B-tree/pager/store objects (disjoint per shard, so no locking), and
# the results must come back as live IndexEntry objects.  Executors are
# keyed by worker count and reused across queries.
_SCAN_EXECUTORS: dict[int, "ThreadPoolExecutor"] = {}


def scan_executor(workers: int) -> "ThreadPoolExecutor":
    """The shared scatter-gather thread pool for ``workers`` threads."""
    executor = _SCAN_EXECUTORS.get(workers)
    if executor is None:
        executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-scan"
        )
        _SCAN_EXECUTORS[workers] = executor
    return executor


@atexit.register
def _shutdown_scan_executors() -> None:
    while _SCAN_EXECUTORS:
        _, executor = _SCAN_EXECUTORS.popitem()
        executor.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------- #
# Query refinement fan-out (DESIGN.md §8)
# --------------------------------------------------------------------- #

#: One refinement unit: the serialized tree (a primary document, or a
#: clustered unit copy whose single candidate is its root, node id 0)
#: and the candidates sharing it, each an opaque sequence number paired
#: with its node id.
RefineGroup = tuple[str, tuple[tuple[int, int], ...]]


@dataclass(frozen=True, slots=True)
class _RefineTask:
    """Pickled per-worker refinement payload."""

    twig: object  # TwigQuery (already leading-axis-rewritten)
    refiner: str  # "navigational" | "structural_join"
    groups: tuple[RefineGroup, ...]
    #: capture a span per worker chunk (the coordinator's tracing state).
    trace: bool = False
    #: the worker's position in the chunk sequence (its ``proc`` tag).
    worker_id: int = 0


def _make_refiner(kind: str):
    from repro.engine.navigational import NavigationalEngine
    from repro.engine.structural_join import StructuralJoinEngine
    from repro.storage.primary import PrimaryXMLStore

    # Refinement never touches the store (it works on parsed trees), so
    # workers get an empty placeholder.
    if kind == "structural_join":
        return StructuralJoinEngine(PrimaryXMLStore())
    return NavigationalEngine(PrimaryXMLStore())


def refine_groups(
    refiner, twig, groups: "list[RefineGroup] | tuple[RefineGroup, ...]"
) -> list[int]:
    """Refine ``groups`` with ``refiner`` (runs in a worker process);
    returns surviving sequence numbers."""
    surviving: list[int] = []
    for source, candidates in groups:
        flags = refine_candidates(
            refiner,
            twig,
            parse_xml(source),
            [node_id for _, node_id in candidates],
        )
        surviving.extend(seq for (seq, _), ok in zip(candidates, flags) if ok)
    return surviving


def _refine_worker(task: _RefineTask) -> tuple[list[int], list[dict]]:
    """Refine one chunk of groups (runs in a worker process).

    Returns the surviving sequence numbers plus the worker's closed
    span events (empty unless the coordinator traces).
    """
    obs = Obs(trace=task.trace, proc=f"worker-{task.worker_id}")
    with obs.span("query.refine.chunk", groups=len(task.groups)) as span:
        surviving = refine_groups(
            _make_refiner(task.refiner), task.twig, task.groups
        )
        span.set(survivors=len(surviving))
    return surviving, obs.tracer.events


def parallel_refine(
    groups: list[RefineGroup],
    twig,
    refiner_kind: str,
    workers: int,
    trace: bool = False,
) -> tuple[list[int], list[dict]]:
    """Refine ``groups`` across ``workers`` processes.

    Groups are partitioned into contiguous chunks (they arrive in
    copy-then-doc_id order from the processor); the surviving sequence
    numbers — and, when ``trace`` is set, the workers' span events —
    are concatenated in chunk order, so both outputs are independent of
    the worker count.
    """
    workers = max(1, min(workers, len(groups)))
    chunk_size = (len(groups) + workers - 1) // workers
    tasks = [
        _RefineTask(
            twig,
            refiner_kind,
            tuple(groups[i : i + chunk_size]),
            trace=trace,
            worker_id=worker_id,
        )
        for worker_id, i in enumerate(range(0, len(groups), chunk_size))
    ]
    if len(tasks) == 1:
        results = [_refine_worker(tasks[0])]
    else:
        results = process_pool(len(tasks)).map(_refine_worker, tasks)
    surviving: list[int] = []
    trace_events: list[dict] = []
    for chunk_surviving, chunk_events in results:
        surviving.extend(chunk_surviving)
        trace_events.extend(chunk_events)
    return surviving, trace_events
