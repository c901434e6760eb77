"""The FIX index (Section 4).

A :class:`FixIndex` ties together every substrate: the primary store the
documents live in, the shared edge-label encoder, the entry generator of
Algorithm 1, the B-tree the feature keys go into, and — for the
clustered variant — the key-ordered copy store of Figure 4.

Key format in the B-tree: ``encode_feature_key(label, λ_max, λ_min)``
(:mod:`repro.btree.keys`); λ_max is the secondary sort component, which
makes the pruning scan of Algorithm 2 a single contiguous range per
label.  Values:

* unclustered — the 8-byte packed :class:`NodePointer` into primary
  storage;
* clustered  — the 8-byte packed :class:`RecordPointer` into the copy
  store, followed by the packed ``NodePointer`` (the primary pointer is
  retained so queries that outgrow the copy's depth horizon — decomposed
  ``//`` fragments — can still refine against the original document).
"""

from __future__ import annotations

import dataclasses
import struct
import time
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.btree import BPlusTree, encode_float, label_upper_bound
from repro.btree.keys import decode_feature_key, encode_label, label_terminator
from repro.core.construction import (
    BUILD_PHASES,
    ConstructionStats,
    GeneratorSettings,
    PhaseTimings,
    seed_encoder,
)
from repro.core.epoch import EpochManager
from repro.core.structure import StructureDag
from repro.errors import (
    IndexCoverageError,
    PatternTooLargeError,
    RecordError,
    StorageError,
    UnsupportedQueryError,
)
from repro.obs import Obs, ObsConfig
from repro.query.ast import Axis
from repro.query.twig import TwigQuery
from repro.spectral import (
    DEFAULT_GUARD_BAND,
    EdgeLabelEncoder,
    FeatureKey,
    FeatureRange,
    pattern_features,
)
from repro.storage import (
    ClusteredStore,
    NodePointer,
    PrimaryXMLStore,
    RecordPointer,
)

#: an unclustered entry's value: the packed ``NodePointer`` (doc id,
#: node id), written without building one.
_POINTER = struct.Struct("<II")


@dataclass(frozen=True, slots=True)
class FixIndexConfig:
    """Construction-time parameters.

    Attributes:
        depth_limit: the ``L`` of Algorithm 1.  ``0`` indexes each
            document as one unit (the collection scenario); ``k > 0``
            enumerates depth-``k`` subpatterns of deeper documents
            (the single-large-document scenario; the paper uses 6).
        clustered: build the Figure 4 clustered variant.
        value_buckets: ``β`` of Section 4.6; ``None`` for the pure
            structural index.
        max_pattern_vertices: eigen-decomposition size cap; larger
            patterns fall back to the all-covering range (the paper's
            ~3000-edge fallback).
        guard_band: numerical slack for the containment predicate.
        workers: processes for the build's document fan-out.  ``1``
            builds in-process; ``k > 1`` stages documents across ``k``
            workers with a byte-identical-to-serial guarantee
            (DESIGN.md §7).
        obs: observability settings (:class:`~repro.obs.ObsConfig`,
            DESIGN.md §10).  ``None`` means the metrics registry is
            live but span tracing is off; with ``ObsConfig(trace=True)``
            the build and every query over the index capture
            hierarchical spans (worker pools included, merged
            deterministically) for JSONL export via ``Obs.flush``.
            Tracing observes the pipelines without perturbing them:
            the built index is byte-identical and query results are
            pointer-identical with tracing on or off.  Runtime-only —
            never persisted with the index.
        shards: number of independent index shards (DESIGN.md §11).
            ``1`` is a plain single index; ``k > 1`` is interpreted by
            :class:`~repro.core.sharding.ShardedFixIndex` — a
            :class:`FixIndex` itself always manages one shard's worth
            of data and ignores this field.
        shard_affinity: document-routing policy for sharded indexes —
            ``"hash"`` (stable content hash, the default) or
            ``"root-label"`` (documents sharing a root label land in
            the same shard, which makes anchored queries skip whole
            shards).
        shard_workers: processes for the sharded coordinator's
            per-shard build fan-out, and the thread bound for the
            concurrent scatter-gather scan (DESIGN.md §11).  ``1``
            builds/scans shards one at a time; ``k > 1`` stages up to
            ``k`` shards concurrently.  On-disk shard bytes, traces,
            and query answers are identical for any value.  A plain
            :class:`FixIndex` ignores this field.
        page_cache_pages: buffer-pool capacity, in pages, for every
            file-backed pager this index (or its shards) opens.
        spill_dir: directory for out-of-core build state.  ``None``
            (default) builds fully in memory — byte-for-byte the
            historical behavior.  A path makes the B-tree file-backed
            under the ``page_cache_pages`` pool (shards spill under
            ``spill_dir/shard-<i>/``).
        btree_node_cache: bound on parsed B-tree nodes kept resident
            (``None`` = unbounded, the in-memory default).
    """

    depth_limit: int = 0
    clustered: bool = False
    value_buckets: int | None = None
    max_pattern_vertices: int = 800
    guard_band: float = DEFAULT_GUARD_BAND
    workers: int = 1
    obs: ObsConfig | None = None
    shards: int = 1
    shard_affinity: str = "hash"
    shard_workers: int = 1
    page_cache_pages: int = 256
    spill_dir: str | None = None
    btree_node_cache: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.shard_affinity not in ("hash", "root-label"):
            raise ValueError(
                f"unknown shard affinity {self.shard_affinity!r} "
                "(expected 'hash' or 'root-label')"
            )
        if self.shard_workers < 1:
            raise ValueError(
                f"need at least one shard worker, got {self.shard_workers}"
            )
        if self.clustered and self.shards > 1:
            raise ValueError(
                "clustered indexes cannot be sharded (the copy store is "
                "laid out in global key order)"
            )
        if self.clustered and self.spill_dir is not None:
            raise ValueError("clustered indexes build in memory; no spill_dir")
        if self.page_cache_pages < 1:
            raise ValueError(
                f"need at least one cache page, got {self.page_cache_pages}"
            )
        if self.btree_node_cache is not None and self.btree_node_cache < 1:
            raise ValueError(
                f"btree_node_cache must be >= 1, got {self.btree_node_cache}"
            )

    def to_dict(self) -> dict:
        """The persisted form (``meta.json`` / ``sharded.json``): every
        field except the runtime-only ``obs``; ``spill_dir`` is saved as
        ``None`` because it is a build-time location, not an index
        property — a reattached index reads its pages from the save
        directory."""
        persisted = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "obs"
        }
        persisted["spill_dir"] = None
        return persisted

    @classmethod
    def from_dict(cls, persisted) -> "FixIndexConfig":
        """Inverse of :meth:`to_dict`.  Keys this version no longer has
        (options retired since the index was saved) are dropped, so old
        index directories keep loading.

        Raises:
            StorageError: ``persisted`` is not a mapping, or a value is
                ill-typed or out of range.
        """
        if not isinstance(persisted, dict):
            raise StorageError("index config section is missing or malformed")
        known = {f.name for f in dataclasses.fields(cls)} - {"obs"}
        try:
            return cls(**{k: v for k, v in persisted.items() if k in known})
        except (TypeError, ValueError) as exc:
            raise StorageError(f"invalid index config: {exc}") from exc


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """A candidate returned by the pruning phase: the B-tree key bytes
    it is stored under and the pointers unpacked from its value.  The
    pipeline orders and groups candidates by ``raw_key`` and
    ``pointer`` alone; :attr:`key` decodes on demand, every time it is
    read — a reader that wants more than one field binds it once."""

    raw_key: bytes
    pointer: NodePointer
    record: RecordPointer | None = None

    @property
    def key(self) -> FeatureKey:
        """The decoded ``(root label, [λ_min, λ_max])`` feature key.

        Raises:
            BTreeError: ``raw_key`` is not an encoded feature key.
        """
        label, lmax, lmin = decode_feature_key(self.raw_key)
        return FeatureKey(label, FeatureRange(lmin, lmax))


@dataclass(frozen=True, slots=True)
class StagedMutation:
    """One document's mutation delta, computed *outside* the write latch.

    Staging (an add's parse, bisimulation and eigensolve; a removal's
    read of the document's slots) writes nothing a reader scans, so it
    runs concurrently with queries; only the B-tree
    delta in ``entries`` needs the exclusive apply window of
    :meth:`EpochManager.mutation`.  ``labels`` is the touched root-label
    set — the invalidation scope the epoch layer publishes.
    """

    doc_id: int
    #: ``(encoded feature key, packed NodePointer value)`` pairs.
    entries: tuple[tuple[bytes, bytes], ...]
    #: root labels of the document's entries (the invalidation scope).
    labels: frozenset[str]
    #: an add's shadow-generator statistics (classes met keyed,
    #: eigensolves, ...); all zero for a removal, which generates
    #: nothing.
    stats: ConstructionStats
    #: wall-clock seconds spent staging.
    seconds: float
    #: an added document's structure, recorded in a DAG private to the
    #: staging thread until the apply absorbs it (``None`` for removals).
    structure: StructureDag | None = None


@dataclass
class BuildReport:
    """What a build did: Algorithm 1's observable costs — the record of
    one build, as :class:`~repro.core.processor.FixQueryResult` is of
    one query.  ``stats`` and ``timings`` are the generator's own
    counter blocks, published into the index's registry at the end of a
    build, of ``rebuild_from_staged`` and of ``load_index``.
    """

    seconds: float = 0.0
    stats: ConstructionStats = field(default_factory=ConstructionStats)
    #: per-phase wall-clock breakdown (aggregate CPU-seconds per phase
    #: for parallel builds, where worker time overlaps).
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    btree_bytes: int = 0
    clustered_bytes: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly dump — the ``"report"`` section of
        ``meta.json``; :meth:`restore` is its inverse."""
        return {
            "seconds": self.seconds,
            "entries": self.stats.entries,
            "oversized_patterns": self.stats.oversized_patterns,
            "cache_hits": self.stats.cache_hits,
            "cache_misses": self.stats.cache_misses,
            "eigen_batches": self.stats.eigen_batches,
            "eigen_batch_sizes": {
                str(size): count
                for size, count in sorted(self.stats.eigen_batch_sizes.items())
            },
            "phases": self.timings.as_dict(),
            "btree_bytes": self.btree_bytes,
            "clustered_bytes": self.clustered_bytes,
        }

    def restore(self, persisted: dict) -> None:
        """Set this report from a saved :meth:`as_dict`.  ``seconds``,
        ``entries`` and ``oversized_patterns`` are required; the rest
        was added over time and defaults to zero, phases this version
        does not time are dropped, and the two sizes are left to the
        caller, which has the files.

        Raises:
            KeyError, TypeError: a required key is missing, or
                ``persisted`` is not a mapping.
        """
        stats, timings = self.stats, self.timings
        self.seconds = persisted["seconds"]
        stats.entries = persisted["entries"]
        stats.oversized_patterns = persisted["oversized_patterns"]
        stats.cache_hits = persisted.get("cache_hits", 0)
        stats.cache_misses = persisted.get("cache_misses", 0)
        stats.eigen_batches = persisted.get("eigen_batches", 0)
        stats.eigen_batch_sizes = {
            int(size): count
            for size, count in persisted.get("eigen_batch_sizes", {}).items()
        }
        phases = persisted.get("phases", {})
        for phase in BUILD_PHASES:
            setattr(timings, phase, phases.get(phase, 0.0))


class FixIndex:
    """The feature-based index over a primary store."""

    def __init__(
        self,
        store: PrimaryXMLStore,
        config: FixIndexConfig | None = None,
        *,
        encoder: EdgeLabelEncoder | None = None,
        obs: Obs | None = None,
    ) -> None:
        """``encoder``/``obs`` are injection points for a
        :class:`~repro.core.sharding.ShardedFixIndex` coordinator,
        which shares one encoder across every shard so feature keys
        agree index-wide.  Left as ``None`` (the default) each index
        owns private instances."""
        self.store = store
        self.config = config or FixIndexConfig()
        self.encoder = encoder if encoder is not None else EdgeLabelEncoder()
        self.btree = BPlusTree(
            self._fresh_btree_pager(), node_cache=self.config.btree_node_cache
        )
        self.clustered_store = ClusteredStore() if self.config.clustered else None
        self._settings = GeneratorSettings.from_config(self.config)
        #: the observability context (DESIGN.md §10): the metrics
        #: registry every view over this index reads, plus the span
        #: tracer (enabled via ``config.obs``).  Shared by the entry
        #: generator and, by default, every processor over this index.
        self.obs = obs if obs is not None else Obs.from_config(self.config.obs)
        #: the collection-wide bisimulation DAG refinement decides
        #: structural twigs on (DESIGN.md §14) and the one memo of each
        #: class's key (§7), filled by the entry generator and mutated
        #: only inside the epoch window.
        self.structure = StructureDag()
        self._generator = self._settings.generator(
            self.encoder, obs=self.obs, structure=self.structure
        )
        self.value_hasher = self._generator.text_label
        self.report = BuildReport(
            stats=self._generator.stats, timings=self._generator.timings
        )
        #: the epoch layer: readers pin snapshots, mutations publish
        #: per-root-label epochs, and every cached view (plans,
        #: histograms) validates against it.
        self.epochs = EpochManager()
        #: ``(epoch, view)`` of the last :meth:`spatial_view` call.
        self._spatial = None
        #: incremental-maintenance accounting, kept apart from the batch
        #: build's stats so Table-1 phase totals never drift after
        #: mutations (published under ``build.incremental.*``).
        self._incremental_stats = ConstructionStats()
        self._documents_removed = 0
        self._entries_removed = 0

    @property
    def generation(self) -> int:
        """The global epoch — the legacy single-counter view.  Bumped by
        every mutation; per-label validity lives on :attr:`epochs`."""
        return self.epochs.epoch

    def adopt_shared(self, encoder: EdgeLabelEncoder) -> None:
        """Re-point this index and its generator at a sharded
        coordinator's encoder (a reloaded shard comes back with a
        private copy), so future incremental adds keep every shard's
        keys in agreement."""
        self.encoder = self._generator.encoder = encoder

    def set_structure(self, structure: StructureDag) -> None:
        """Replace the structure DAG this index refines on and its
        generator records into."""
        self.structure = self._generator.structure = structure

    def restore_structure(self) -> None:
        """Recompute the structure DAG by regenerating every stored
        document's entries (and discarding them) — what a directory
        saved without one pays, once, when it is loaded."""
        structure = StructureDag()
        shadow = self._settings.generator(self.encoder, structure=structure)
        for doc_id in self.store.doc_ids():
            shadow.entries_for(self.store.get_document(doc_id), doc_id)
        self.set_structure(structure)

    def structure_of(self, doc_id: int) -> StructureDag:
        """The DAG holding ``doc_id``'s entries (a sharded index
        answers with the owning shard's)."""
        return self.structure

    # ------------------------------------------------------------------ #
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        store: PrimaryXMLStore,
        config: FixIndexConfig | None = None,
    ) -> "FixIndex":
        """CONSTRUCT-INDEX over every document in ``store``.

        The pipeline is stage → sort → load: entry generation stages
        ``(encoded key, doc_id, node_id)`` triples (in-process, or
        fanned out across ``config.workers`` processes), then the B-tree
        is bulk-loaded from the key-sorted entries.  The staged order —
        and therefore the built tree's exact contents, duplicate order
        included — is independent of the worker count (DESIGN.md §7).
        """
        index = cls(store, config)
        index.rebuild()
        return index

    def rebuild(self) -> None:
        """Run the full construction pipeline over the current store."""
        started = time.perf_counter()
        self.set_structure(StructureDag())
        with self.obs.span(
            "build",
            depth_limit=self.config.depth_limit,
            workers=self.config.workers,
            clustered=self.config.clustered,
        ) as build_span:
            with self.obs.span("build.stage") as stage_span:
                staged = self._stage_entries()
                stage_span.set(
                    entries=len(staged),
                    documents=self.report.stats.documents,
                )
            insert_started = time.perf_counter()
            with self.obs.span("build.insert", entries=len(staged)):
                if self.config.clustered:
                    self._load_clustered(staged)
                else:
                    self._load_unclustered(staged)
            self.report.timings.insert += time.perf_counter() - insert_started
            build_span.set(entries=len(staged))
        self.report.seconds = time.perf_counter() - started
        self.report.btree_bytes = self.btree.size_bytes()
        if self.clustered_store is not None:
            self.report.clustered_bytes = self.clustered_store.size_bytes()
        self.epochs.rebuild()  # full invalidation: every label moved
        self._publish_build_metrics()

    def rebuild_from_staged(self, staged) -> None:
        """Load the B-tree from an externally staged entry list (a
        :class:`~repro.core.parallel.StagedBuild` produced by a sharded
        coordinator's per-shard build worker).

        The insert path is exactly :meth:`rebuild`'s, so the on-disk
        tree is byte-identical to a serial :meth:`rebuild` over the same
        documents under the same encoder; the worker's stats and phase
        timings are folded into this index's report (aggregate
        CPU-seconds per phase, the parallel-build convention).  ``report.seconds``
        covers only the coordinator-side merge + insert — staging ran
        in the worker, overlapped with other shards.
        """
        if self.config.clustered:
            raise StorageError("clustered indexes cannot load staged entries")
        started = time.perf_counter()
        entries = self._absorb_staged(staged)
        insert_started = time.perf_counter()
        with self.obs.span("build.insert", entries=len(entries)):
            self._load_unclustered(entries)
        self.report.timings.insert += time.perf_counter() - insert_started
        self.report.seconds = time.perf_counter() - started
        self.report.btree_bytes = self.btree.size_bytes()
        self.epochs.rebuild()
        self._publish_build_metrics()

    def _fresh_btree_pager(self):
        """A pager for a new B-tree: in-memory by default, file-backed
        under ``spill_dir`` (with the configured buffer pool) for
        out-of-core builds.  Any stale spill file is discarded — a
        fresh tree starts from page zero."""
        if self.config.spill_dir is None:
            return None
        import os

        os.makedirs(self.config.spill_dir, exist_ok=True)
        path = os.path.join(self.config.spill_dir, "btree.pages")
        if os.path.exists(path):
            os.remove(path)
        from repro.storage import Pager

        return Pager(path, cache_pages=self.config.page_cache_pages)

    def _publish_build_metrics(self) -> None:
        """Sync construction stats, phase seconds and sizes into the
        obs registry (the idempotent delta-sync of
        ``CounterBlock.publish``), so a registry snapshot — or a flushed
        trace — carries the full Table-1 accounting without hot-path
        counter traffic."""
        registry = self.obs.registry
        self._generator.stats.publish(registry)
        self._generator.timings.publish(registry)
        self._publish_gauges()
        if self.clustered_store is not None:
            registry.gauge("index.clustered_bytes").set(
                self.clustered_store.size_bytes()
            )

    def _publish_gauges(self) -> None:
        """The sizes every registry sync refreshes, after a build or a
        mutation: pager counters and the entry/byte/generation gauges."""
        registry = self.obs.registry
        self.pager_stats().publish(registry)
        registry.gauge("index.entries").set(self.entry_count)
        registry.gauge("index.btree_bytes").set(self.btree.size_bytes())
        registry.gauge("index.generation").set(self.generation)

    def _stage_entries(self) -> list[tuple[bytes, int, int]]:
        """Generate ``(encoded key, doc_id, node_id)`` for every entry,
        in document order (generation order within a document)."""
        doc_ids = list(self.store.doc_ids())
        if self.config.workers > 1 and len(doc_ids) > 1:
            from repro.core.parallel import parallel_stage

            # Workers need a complete encoder snapshot before the first
            # feature: register every edge-label pair in doc_id/document
            # order up front, so code assignment (hence every
            # eigenvalue) is independent of the staging strategy.  See
            # DESIGN.md §7.  The serial loop below registers the same
            # pairs in the same order, each document in its one walk.
            timings = self._generator.timings
            for doc_id in doc_ids:
                started = time.perf_counter()
                document = self.store.get_document(doc_id)
                timings.parse += time.perf_counter() - started
                started = time.perf_counter()
                seed_encoder(self.encoder, document, text_label=self.value_hasher)
                timings.encode += time.perf_counter() - started
            return self._absorb_staged(
                parallel_stage(
                    self.store,
                    self.encoder,
                    self._settings,
                    self.config.workers,
                    doc_ids=doc_ids,
                    trace=self.obs.tracing,
                )
            )
        return self._generator.stage(doc_ids, self.store.get_document)

    def _absorb_staged(self, staged) -> list[tuple[bytes, int, int]]:
        """Fold what workers staged (a
        :class:`~repro.core.parallel.StagedBuild`) into this index's
        report and obs context; returns the entries to load.

        Stats and phase timings merge into the generator's (aggregate
        CPU-seconds per phase, the parallel-build convention); the
        staged structure DAG becomes this index's.  Worker
        span streams arrive in chunk order — the order the entries are
        concatenated in — so the merged trace is deterministic for any
        worker count, and the ``build.doc_*`` sketch states, pre-merged
        in that order, are for short streams byte-identical to what the
        serial loop would have observed.  A shard never traces (its
        coordinator absorbs the worker's spans), so it drops them.
        """
        self._generator.stats.merge(staged.stats)
        self._generator.timings.merge(staged.timings)
        self.set_structure(staged.structure)
        if self.obs.tracing:
            self.obs.tracer.absorb(
                staged.trace_events, parent_id=self.obs.tracer.current_id
            )
        self.obs.registry.merge_sketch_states(staged.sketches)
        return staged.entries

    def _load_unclustered(self, staged: list[tuple[bytes, int, int]]) -> None:
        # Stable sort: duplicates keep their staging (document) order,
        # matching what a per-entry insert loop would have produced —
        # but loaded bottom-up like the clustered path, which packs
        # pages tighter and skips per-entry root-to-leaf descents.
        pack = _POINTER.pack
        pairs = [(key, pack(doc_id, node_id)) for key, doc_id, node_id in staged]
        pairs.sort(key=lambda pair: pair[0])
        if not self.btree.pager.in_memory:
            self.btree.pager.close()  # release the stale spill file
        self.btree = BPlusTree.bulk_load(
            pairs,
            pager=self._fresh_btree_pager(),
            node_cache=self.config.btree_node_cache,
        )

    def _load_clustered(self, staged: list[tuple[bytes, int, int]]) -> None:
        # Clustering requires the copies laid out in key order: sort the
        # staged entries, then copy + load sequentially.
        assert self.clustered_store is not None
        staged = sorted(staged, key=lambda item: item[0])
        # Fetch each document once up front — the copy loop visits
        # documents in key order, which interleaves them arbitrarily, so
        # going through the store's bounded LRU per entry can re-parse
        # the same document O(entries) times on large collections.
        documents = {
            doc_id: self.store.get_document(doc_id)
            for doc_id in sorted({doc_id for _, doc_id, _ in staged})
        }
        copy_depth = self.config.depth_limit
        pairs: list[tuple[bytes, bytes]] = []
        for key, doc_id, node_id in staged:
            element = documents[doc_id].element_at(node_id)
            record = self.clustered_store.add_unit(element, depth_limit=copy_depth)
            pairs.append((key, record.pack() + NodePointer(doc_id, node_id).pack()))
        # The entries are already key-sorted (that is the clustering
        # contract), so the B-tree can be bulk-loaded bottom-up.
        self.btree = BPlusTree.bulk_load(pairs)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def add_document(self, document) -> int:
        """Store a new document and index it incrementally.

        This is FIX's structural advantage over the clustering indexes
        the introduction criticizes: a new document only appends its own
        entries; nothing existing is touched (the shared encoder grows
        monotonically, so existing keys stay valid).  Only the
        unclustered variant supports it — the clustered copy store is
        laid out in global key order and needs a rebuild, matching the
        paper's positioning of the clustered index as build-once.

        Returns the new ``doc_id``.

        Raises:
            StorageError: when the index is clustered (the key-ordered
                copy store is build-once).
        """
        self._require_unclustered()
        doc_id = self.store.add_document(document)
        self.apply_staged_add(self.stage_document(doc_id, document))
        return doc_id

    def stage_document(self, doc_id: int, document) -> StagedMutation:
        """Compute one document's insertion delta without touching any
        shared structure a reader scans — safe to run concurrently with
        pinned queries; only :meth:`apply_staged_add` needs the
        exclusive epoch window.

        Generated by a throwaway shadow generator: it shares the encoder
        (so keys come out identical), reads the classes this index has
        keyed already off its structure DAG (so a document made of known
        classes costs no eigensolve) and records into a DAG of its own,
        which the apply absorbs — keys included — inside the window.  It
        keeps its own stats too: the batch build's Table-1 accounting is
        never touched by the incremental path."""
        self._require_unclustered()
        started = time.perf_counter()
        structure = StructureDag()
        shadow = self._settings.generator(
            self.encoder, structure=structure, known=self._keyed_structure()
        )
        entries = tuple(
            (key, _POINTER.pack(doc_id, node_id))
            for key, _, node_id in shadow.entries_for(document, doc_id)
        )
        return StagedMutation(
            doc_id=doc_id,
            entries=entries,
            labels=structure.entry_labels_of(doc_id),
            stats=shadow.stats,
            seconds=time.perf_counter() - started,
            structure=structure,
        )

    def _keyed_structure(self) -> StructureDag:
        """The structure DAG with its per-vertex keys in memory.  The
        sidecar file does not carry them (the B-tree does), so the first
        mutation staged after a load reads every entry once, under a
        reader pin: a B-tree pass no mutation can interleave with.

        Raises:
            StorageError: the B-tree and the DAG disagree
                (:meth:`StructureDag.restore_keys`); nothing is changed.
        """
        if self.structure.keys is None:
            with self.epochs.pin():
                self.structure.restore_keys(
                    (entry.raw_key, entry.pointer.doc_id, entry.pointer.node_id)
                    for entry in self.iter_entries()
                )
        return self.structure

    def apply_staged_add(self, staged: StagedMutation) -> None:
        """Insert a staged document delta under the exclusive epoch
        window, publishing a new snapshot scoped to its root labels."""
        with self.obs.span(
            "index.add_document", doc=staged.doc_id
        ) as span:
            apply_started = time.perf_counter()
            with self.epochs.mutation(staged.labels):
                for key, value in staged.entries:
                    self.btree.insert(key, value)
                self.structure.absorb(staged.structure)
            apply_seconds = time.perf_counter() - apply_started
            span.set(
                entries=len(staged.entries),
                labels=len(staged.labels),
                cache_hits=staged.stats.cache_hits,
            )
        self._observe_mutation_latency(staged.seconds, apply_seconds)
        self._incremental_stats.merge(staged.stats)
        self.report.btree_bytes = self.btree.size_bytes()
        self._publish_incremental_metrics()

    def _require_unclustered(self) -> None:
        if self.config.clustered:
            raise StorageError(
                "clustered FIX indexes are build-once (the copy store is "
                "key-ordered); rebuild instead"
            )

    def remove_document(self, doc_id: int) -> int:
        """Remove a document and all of its index entries.

        The document's entries are read off the structure DAG — each
        slot's vertex carries its class's key — and deleted pairwise
        from the B-tree under the exclusive epoch window; the document
        is neither fetched nor parsed.  Returns the number of entries
        removed.
        """
        staged = self.stage_removal(doc_id)
        return self.apply_staged_removal(staged)

    def stage_removal(self, doc_id: int) -> StagedMutation:
        """A recorded document's entry delta for deletion, in node-id
        order — like :meth:`stage_document` outside the write latch, in
        time proportional to the document's entries.

        Raises:
            RecordError: no document is recorded under ``doc_id``.
        """
        self._require_unclustered()
        started = time.perf_counter()
        structure = self._keyed_structure()
        if structure.slots_of(doc_id) is None:
            raise RecordError(f"no document with id {doc_id}")
        entries = tuple(
            (key, NodePointer(doc_id, node_id).pack())
            for key, node_id in structure.entries_of(doc_id)
        )
        return StagedMutation(
            doc_id=doc_id,
            entries=entries,
            labels=structure.entry_labels_of(doc_id),
            stats=ConstructionStats(),
            seconds=time.perf_counter() - started,
        )

    def apply_staged_removal(self, staged: StagedMutation) -> int:
        """Delete a staged document delta (entries *and* the stored
        document, atomically under the epoch window — a pinned reader
        never sees entries whose document is gone, or vice versa)."""
        removed = 0
        with self.obs.span(
            "index.remove_document", doc=staged.doc_id
        ) as span:
            apply_started = time.perf_counter()
            with self.epochs.mutation(staged.labels):
                for key, value in staged.entries:
                    if self.btree.delete(key, value):
                        removed += 1
                self.store.remove_document(staged.doc_id)
                self.structure.drop_document(staged.doc_id)
                # Vertices only removed documents reached go once they
                # outnumber the rest.
                self.set_structure(self.structure.compacted())
            apply_seconds = time.perf_counter() - apply_started
            span.set(removed=removed, labels=len(staged.labels))
        self._observe_mutation_latency(staged.seconds, apply_seconds)
        self._incremental_stats.merge(staged.stats)
        self._documents_removed += 1
        self._entries_removed += removed
        self.report.btree_bytes = self.btree.size_bytes()
        self._publish_incremental_metrics()
        return removed

    def _observe_mutation_latency(
        self, stage_seconds: float, apply_seconds: float
    ) -> None:
        """One mutation's stage/apply split into the latency sketches
        (DESIGN.md §13): staging runs outside the latch (the expensive
        eigensolve half), apply is the exclusive epoch window whose
        duration bounds how long it can stall new reader pins."""
        registry = self.obs.registry
        registry.sketch("mutation.stage_seconds").observe(stage_seconds)
        registry.sketch("mutation.apply_seconds").observe(apply_seconds)

    def _publish_incremental_metrics(self) -> None:
        """The mutation path's registry sync: its own accumulator under
        ``build.incremental.*`` (never the batch-build ``build.*``
        phases, which must keep matching the Table-1 report), refreshed
        index gauges, and the ``epoch.*`` counters."""
        registry = self.obs.registry
        self._incremental_stats.publish(registry, prefix="build.incremental.")
        registry.sync_counter(
            "build.incremental.documents_removed", self._documents_removed
        )
        registry.sync_counter(
            "build.incremental.entries_removed", self._entries_removed
        )
        self._publish_gauges()
        self.epochs.publish(registry)

    # ------------------------------------------------------------------ #
    # Coverage and query features (Algorithm 2, lines 1-5)
    # ------------------------------------------------------------------ #

    def covers(self, twig: TwigQuery) -> bool:
        """Can this index answer ``twig`` without false negatives
        (up to the Theorem 5 caveat of DESIGN.md §5a)?"""
        if twig.has_values() and self.value_hasher is None:
            return False
        if self.config.depth_limit <= 0:
            return True
        # A value-extended index truncates patterns at the *extended*
        # depth (text nodes occupy a level), so value queries must fit
        # including their literal level.
        depth = (
            twig.root.extended_depth() if self.value_hasher else twig.depth()
        )
        return depth <= self.config.depth_limit

    def query_features(self, twig: TwigQuery) -> FeatureKey:
        """The twig pattern's feature key under the index's encoder."""
        if not twig.is_twig():
            raise UnsupportedQueryError(
                "query has interior '//' edges; decompose before feature "
                "extraction"
            )
        pattern = twig.pattern(text_label=self.value_hasher)
        try:
            return pattern_features(
                pattern,
                self.encoder,
                max_vertices=self.config.max_pattern_vertices,
            )
        except PatternTooLargeError:
            # An absurdly large query: fall back to the always-covered
            # degenerate range so the scan degrades to a label scan.
            return FeatureKey(pattern.root.label, FeatureRange(0.0, 0.0))

    # ------------------------------------------------------------------ #
    # Pruning scan (Algorithm 2, line 6)
    # ------------------------------------------------------------------ #

    def ensure_covers(self, twig: TwigQuery) -> None:
        """Raise :class:`IndexCoverageError` when :meth:`covers` is false."""
        if not self.covers(twig):
            raise IndexCoverageError(
                f"index (depth limit {self.config.depth_limit}, values "
                f"{'on' if self.value_hasher else 'off'}) does not cover "
                f"query {twig.source or twig.root_label!r} "
                f"(depth {twig.depth()}, values "
                f"{'yes' if twig.has_values() else 'no'})"
            )

    def candidates(self, twig: TwigQuery) -> Iterator[IndexEntry]:
        """All index entries whose key covers the twig's feature key
        (:class:`~repro.core.sharding.ShardedFixIndex` binds this same
        function over its scatter scan).

        Raises:
            IndexCoverageError: when :meth:`covers` is false.
        """
        self.ensure_covers(twig)
        query_key = self.query_features(twig)
        # Root-label pruning is only sound when the query root must bind
        # the unit root.  That is always true for subpattern entries (one
        # per element, keyed by that element's label) but for whole-
        # document units it requires a '/'-anchored query; a '//' query
        # can match anywhere inside a unit whose root label is unrelated,
        # so only λ-range containment prunes (the paper's own Section 5
        # collection discussion uses range containment alone).
        anchored = self.config.depth_limit > 0 or twig.leading_axis is Axis.CHILD
        yield from self.candidates_for_key(query_key, anchored=anchored)

    def candidates_for_key(
        self, query_key: FeatureKey, anchored: bool = True
    ) -> Iterator[IndexEntry]:
        """Pruning scan for a precomputed feature key.

        The Section 3.4 predicate — stored λ_max at least the query's,
        stored λ_min at most the query's, each within the guard band —
        is evaluated on the key bytes: the float encoding preserves
        order, so comparing the key's last two 8-byte fields against the
        two encoded thresholds *is* the numeric comparison, and no entry
        is decoded to be judged.  (Eigenvalue ranges are symmetric,
        λ_min = -λ_max, so the λ_max bound an anchored scan starts at
        already implies the λ_min one — the scanned run is the candidate
        set; the λ_min test stays because the key format does not
        promise it.)

        ``anchored=False`` drops the root-label condition and scans every
        label's range (collection-mode ``//`` queries).

        Raises:
            BTreeError: a scanned key is not an encoded feature key.
        """
        guard = self.config.guard_band
        # A zero threshold takes the sign that puts both stored zeros on
        # the passing side, as ``<`` / ``>`` would: bytes tell -0.0
        # (lower) from +0.0, arithmetic does not.
        lmax_floor = encode_float((query_key.range.lmax - guard) or -0.0)
        lmin_ceiling = encode_float((query_key.range.lmin + guard) or 0.0)
        if anchored:
            label = query_key.root_label
            start = encode_label(label) + lmax_floor
            end = label_upper_bound(label)
        else:
            start = None
            end = None
        for raw_key, raw_value in self.btree.scan(start=start, end=end):
            label_terminator(raw_key)  # the format check; raises
            if raw_key[-16:-8] < lmax_floor:
                continue  # only reachable in unanchored scans
            if raw_key[-8:] > lmin_ceiling:
                continue  # λ_min not contained
            yield self._decode_entry(raw_key, raw_value)

    def _decode_entry(self, raw_key: bytes, raw_value: bytes) -> IndexEntry:
        """The entry of one B-tree pair — shared by the pruning scan and
        the whole-index / per-label iterators."""
        if self.config.clustered:
            record = RecordPointer.unpack(raw_value[:8])
            pointer = NodePointer.unpack(raw_value[8:16])
            return IndexEntry(raw_key, pointer, record)
        return IndexEntry(raw_key, NodePointer.unpack(raw_value))

    def pager_stats(self):
        """Combined access counters of every pager this index touches
        (B-tree pages, primary store, clustered copies).

        Returns:
            :class:`~repro.storage.pager.PagerStats` (a summed copy).
        """
        from repro.storage.pager import PagerStats

        sources = [self.btree.pager.stats, self.store.pager.stats]
        if self.clustered_store is not None:
            sources.append(self.clustered_store.pager.stats)
        return PagerStats.combine(sources)

    def publish_scan_stats(self, registry) -> None:
        """Sync the scan-side counters — B-tree visits plus buffer-pool
        hits/misses/evictions (``pager.*``) — into a metrics registry.
        The processor calls this after every query, so ``repro stats``
        and flushed traces carry pool residency behaviour."""
        self.btree.stats.publish(registry)
        self.pager_stats().publish(registry)

    def spatial_view(self):
        """The per-label R-tree view of this index's feature points —
        the Section 8 ablation (``benchmarks/bench_ablation_rtree.py``,
        the harness's ``spatial.rtree_*`` probe), not a query path.
        Built on first use and again whenever the epoch has moved.

        Returns:
            :class:`~repro.spatial.feature_index.SpatialFeatureIndex`.
        """
        epoch = self.epochs.epoch
        if self._spatial is None or self._spatial[0] != epoch:
            # Imported here: repro.spatial.feature_index imports this
            # module for the IndexEntry type.
            from repro.spatial.feature_index import SpatialFeatureIndex

            self._spatial = (epoch, SpatialFeatureIndex(self))
        return self._spatial[1]

    def iter_label_entries(self, label: str) -> Iterator[IndexEntry]:
        """Every entry carrying ``label``, in key order — the per-label
        slice a scoped histogram refresh rebuilds from."""
        for raw_key, raw_value in self.btree.scan(
            start=encode_label(label), end=label_upper_bound(label)
        ):
            yield self._decode_entry(raw_key, raw_value)

    # ------------------------------------------------------------------ #
    # Measurements
    # ------------------------------------------------------------------ #

    @property
    def entry_count(self) -> int:
        """Total entries — the ``ent`` of the Section 6.2 metrics."""
        return len(self.btree)

    def size_bytes(self) -> int:
        """Index footprint (the ``|UIdx|`` column of Table 1): the
        B-tree's pages plus the structure sidecar as a save would write
        it now."""
        return self.btree.size_bytes() + self.structure.size_bytes()

    def total_size_bytes(self) -> int:
        """:meth:`size_bytes` plus clustered copies (``|CIdx|``)."""
        total = self.size_bytes()
        if self.clustered_store is not None:
            total += self.clustered_store.size_bytes()
        return total

    def iter_entries(self) -> Iterator[IndexEntry]:
        """Every entry in key order (for stats and histograms)."""
        for raw_key, raw_value in self.btree.items():
            yield self._decode_entry(raw_key, raw_value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "clustered" if self.config.clustered else "unclustered"
        values = f", beta={self.config.value_buckets}" if self.value_hasher else ""
        return (
            f"FixIndex({kind}, depth_limit={self.config.depth_limit}, "
            f"entries={self.entry_count}{values})"
        )
