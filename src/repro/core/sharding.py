"""Sharded FIX index: partition-then-scatter-gather (DESIGN.md §11).

A :class:`ShardedFixIndex` partitions documents across ``N`` independent
shards.  Each shard is a complete, self-contained :class:`FixIndex` — its
own primary store, B-tree, spectral views, pagers — while the coordinator
exposes the single-index surface (``build`` / ``candidates_for_key`` /
``add_document`` / ``remove_document`` / ``save`` / ``load`` / stats), so
:class:`~repro.core.processor.FixQueryProcessor`, the optimizer, and the
CLI work over it unchanged.

The invariants that make the coordinator transparent:

* **Global document ids.**  Shard stores keep the coordinator's ids
  (tombstoning the gaps owned by sibling shards), so the 8-byte
  ``NodePointer`` values in every shard's B-tree are already global —
  no pointer translation exists anywhere.
* **One shared encoder.**  Every shard indexes under the coordinator's
  :class:`~repro.spectral.EdgeLabelEncoder`, pre-seeded over *all*
  documents in global doc-id order before any shard builds — the same
  determinism invariant the parallel build keeps (DESIGN.md §7).
  Seeding rides the routing pass: placement happens in ascending doc-id
  order, so walking each document's labels as it is placed is order-
  equivalent to the old dedicated pre-pass (and saves a full re-parse).
  A query's feature key is therefore valid against every shard, and the
  union of shard candidates is exactly the single index's candidate
  multiset: query answers are pointer-identical for any shard count.
* **Parallel shard builds.**  With ``shard_workers > 1`` the per-shard
  staging (parse + bisimulation + eigensolve) fans out across a cached
  process pool; the coordinator absorbs results in shard order and
  loads each staged entry list through the same bulk insert the serial
  build uses, so stats, traces, and on-disk bytes are identical for any
  worker count (``shard_workers=1`` runs the very same worker function
  in-process).  Spilled stores ship as ``ShardStoreRef`` (path + record
  directory) and are reattached read-only inside the worker.
* **Scatter-gather with selectivity ordering.**  A pruning scan visits
  shards most-selective-first, ordered by the per-shard λ_max histogram
  under the optimizer's cost model, and *skips* shards whose histogram
  proves the scan empty (exact per-label endpoints make the zero-
  estimate sound — :meth:`~repro.core.stats.FeatureHistogram.may_contain`).
  With ``shard_affinity="root-label"``, anchored queries typically visit
  a single shard.  Skip/visit counts publish as ``shards.*`` counters.
  With ``shard_workers > 1`` surviving shards are scanned concurrently
  on a shared thread pool and drained in dispatch order — concurrency
  never changes the merge order.  The scatter scan and refinement
  push-down run through one dispatcher
  (:meth:`ShardedFixIndex.dispatch_shards`).
* **Failure containment.**  Storage or B-tree damage inside one shard —
  during a build worker's staging or a scatter scan — surfaces as a
  typed :class:`~repro.errors.ShardError` naming the shard, instead of
  poisoning the gather with a low-level exception or pool traceback.

Cross-shard refinement needs no machinery of its own: the processor's
grouped refinement batches candidates per document and fans the groups
out across the shared worker-process pools (PR 2), and since shard
candidates are plain global-pointer entries, groups from every shard
ride the same pools in one pass.  Alternatively the processor can
push the whole prune+refine pipeline *into* the shards
(``FixQueryProcessor(pushdown=True)`` over :meth:`pushdown_shards`), so
only verified matches cross back — pointer-identical either way.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import threading
from collections.abc import Iterator

from repro.core.construction import GeneratorSettings, seed_encoder
from repro.core.epoch import EpochManager, EpochSnapshot
from repro.core.index import FixIndex, FixIndexConfig, IndexEntry
from repro.core.persistence import load_index, save_index
from repro.core.stats import FeatureHistogram, histogram_view
from repro.errors import BTreeError, RecordError, ShardError, StorageError
from repro.obs import Obs
from repro.query.twig import TwigQuery
from repro.spectral import EdgeLabelEncoder, FeatureKey
from repro.storage import NodePointer, Pager, PrimaryXMLStore
from repro.storage.pager import PagerStats
from repro.xmltree import Document, parse_xml, serialize_fragment

_MANIFEST_FILE = "sharded.json"
_FORMAT_VERSION = 1

#: cheap root-label peek for routing raw sources without a full parse:
#: skip the XML declaration / comments / doctype, take the first tag name.
_ROOT_TAG = re.compile(
    rb"\s*(?:<\?.*?\?>\s*|<!--.*?-->\s*|<!DOCTYPE[^>]*>\s*)*<\s*([^\s>/!?]+)",
    re.DOTALL,
)


def shard_directory(base: str, shard_id: int) -> str:
    """The on-disk directory of one shard under a sharded index root."""
    return os.path.join(base, f"shard-{shard_id}")


class _ShardRouter:
    """A :class:`PrimaryXMLStore`-shaped facade over the shard stores.

    Global doc ids route straight to the owning shard's store, so the
    refinement engines (and the optimizer's full-scan fallback) read
    documents without knowing shards exist.
    """

    def __init__(self, owner: "ShardedFixIndex") -> None:
        self._owner = owner

    def _store(self, doc_id: int) -> PrimaryXMLStore:
        return self._owner.shard_for_document(doc_id).store

    @property
    def document_count(self) -> int:
        return sum(1 for shard_id in self._owner.routing if shard_id is not None)

    def doc_ids(self) -> Iterator[int]:
        return (
            doc_id
            for doc_id, shard_id in enumerate(self._owner.routing)
            if shard_id is not None
        )

    def get_document(self, doc_id: int) -> Document:
        return self._store(doc_id).get_document(doc_id)

    def get_source(self, doc_id: int) -> str:
        return self._store(doc_id).get_source(doc_id)

    def resolve(self, pointer: NodePointer):
        return self._store(pointer.doc_id).resolve(pointer)

    def size_bytes(self) -> int:
        return sum(shard.store.size_bytes() for shard in self._owner.shards)


class ShardedFixIndex:
    """Coordinator over ``config.shards`` independent :class:`FixIndex`
    shards, duck-typing the single-index surface.

    Build with :meth:`build` (redistributing an existing store) or
    :meth:`build_from_sources` (streaming raw documents — the
    out-of-core path, which never materializes a monolithic store).
    """

    def __init__(
        self,
        config: FixIndexConfig | None = None,
        *,
        encoder: EdgeLabelEncoder | None = None,
        routing: list[int | None] | None = None,
        shards: list[FixIndex] | None = None,
    ) -> None:
        """``encoder``/``routing``/``shards`` are :meth:`load`'s: the
        restored manifest state and the reattached shard list.  Left as
        ``None`` the index starts empty, with ``config.shards`` fresh
        shards."""
        config = config or FixIndexConfig()
        if config.clustered:
            raise StorageError(
                "clustered indexes cannot be sharded (the copy store is "
                "laid out in global key order)"
            )
        self.config = config
        #: one encoder for every shard (the index-wide key agreement).
        self.encoder = encoder if encoder is not None else EdgeLabelEncoder()
        self._settings = GeneratorSettings.from_config(config)
        self.value_hasher = self._settings.value_hasher()
        self.obs = Obs.from_config(config.obs)
        #: doc_id -> owning shard (None = removed), the routing table.
        self.routing: list[int | None] = routing if routing is not None else []
        self.clustered_store = None
        #: the coordinator's epoch manager: queries pin it, and every
        #: incremental mutation applies under it, so in-flight queries
        #: see either the pre- or post-mutation index — never a mix.
        #: Each shard nests its own manager (the coordinator's snapshot
        #: vector is the tuple of shard snapshots, :meth:`epoch_vector`).
        self.epochs = EpochManager()
        #: held while an add reserves its document id (the next routing
        #: slot), so concurrent adds never stage under one id.
        self._id_lock = threading.Lock()
        if shards is None:
            shards = [self._new_shard(i) for i in range(config.shards)]
        else:
            for shard in shards:
                shard.adopt_shared(self.encoder)
        self.shards: list[FixIndex] = shards
        self.store = _ShardRouter(self)
        #: per-shard λ_max histograms, each kept fresh against its own
        #: shard's epochs (a mutation refreshes one shard's touched
        #: label slices and nothing else).
        self._histograms = [histogram_view() for _ in self.shards]

    @property
    def generation(self) -> int:
        """The coordinator's global epoch (legacy counter surface)."""
        return self.epochs.epoch

    # ------------------------------------------------------------------ #
    # Shard plumbing
    # ------------------------------------------------------------------ #

    def _new_shard(self, shard_id: int) -> FixIndex:
        spill = (
            shard_directory(self.config.spill_dir, shard_id)
            if self.config.spill_dir is not None
            else None
        )
        shard_config = dataclasses.replace(
            self.config, shards=1, spill_dir=spill, obs=None
        )
        if spill is not None:
            store_dir = os.path.join(spill, "store")
            os.makedirs(store_dir, exist_ok=True)
            pages = os.path.join(store_dir, "primary.pages")
            if os.path.exists(pages):
                os.remove(pages)
            store = PrimaryXMLStore(
                Pager(pages, cache_pages=self.config.page_cache_pages)
            )
        else:
            store = PrimaryXMLStore()
        # Each shard keeps a *private* Obs (its own registry): several
        # shards sync-publishing their own totals under one name would
        # max-merge instead of summing.  The coordinator aggregates.
        return FixIndex(store, shard_config, encoder=self.encoder)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, doc_id: int) -> int:
        """The shard number owning a live document.

        Raises:
            RecordError: unknown or removed ``doc_id``.
        """
        if not 0 <= doc_id < len(self.routing) or self.routing[doc_id] is None:
            raise RecordError(f"no document with id {doc_id}")
        return self.routing[doc_id]

    def shard_for_document(self, doc_id: int) -> FixIndex:
        return self.shards[self.shard_of(doc_id)]

    def structure_of(self, doc_id: int):
        """The owning shard's structure DAG (one per shard: vertex ids
        mean nothing across shards)."""
        return self.shard_for_document(doc_id).structure

    def _route_source(self, source: str) -> int:
        """Routing decision for a raw document: stable content hash, or
        root-label affinity."""
        data = source.encode("utf-8")
        if self.config.shard_affinity == "root-label":
            match = _ROOT_TAG.match(data)
            if match is not None:
                label = match.group(1).decode("utf-8", "replace")
            else:  # fall back to a full parse for exotic prologs
                label = parse_xml(source).root.label
            data = label.encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.shard_count

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, store: PrimaryXMLStore, config: FixIndexConfig | None = None
    ) -> "ShardedFixIndex":
        """Distribute ``store``'s documents into shards and build each.

        Document ids are preserved from ``store``, so answers are
        pointer-identical to ``FixIndex.build(store, ...)``.
        """
        sharded = cls(config)
        for doc_id in store.doc_ids():
            sharded._place_source(store.get_source(doc_id), doc_id)
        sharded._build_all()
        return sharded

    @classmethod
    def build_from_sources(
        cls, sources, config: FixIndexConfig | None = None
    ) -> "ShardedFixIndex":
        """Build by streaming raw XML sources (ids assigned in iteration
        order).  With ``config.spill_dir`` set, nothing monolithic is
        ever held in memory: each document goes straight into its
        shard's file-backed store."""
        sharded = cls(config)
        doc_id = 0
        for source in sources:
            sharded._place_source(source, doc_id)
            doc_id += 1
        sharded._build_all()
        return sharded

    def _place_source(self, source: str, doc_id: int) -> None:
        if doc_id < len(self.routing):
            raise StorageError(f"document id {doc_id} routed twice")
        shard_id = self._route_source(source)
        while len(self.routing) < doc_id:
            self.routing.append(None)
        self.routing.append(shard_id)
        self.shards[shard_id].store.add_source_at(source, doc_id)
        # Seed the shared encoder during routing: placement happens in
        # strictly ascending doc-id order from both build entrypoints,
        # so this is the same deterministic pre-pass _build_all used to
        # run — minus the second full-corpus store-fetch-and-parse.
        seed_encoder(
            self.encoder, parse_xml(source), text_label=self.value_hasher
        )

    def _build_all(self) -> None:
        from repro.core.parallel import StagedBuild, parallel_shard_stage

        workers = self.config.shard_workers
        with self.obs.span(
            "build.sharded", shards=self.shard_count, shard_workers=workers
        ):
            doc_lists: list[list[int]] = [[] for _ in range(self.shard_count)]
            for doc_id, shard_id in enumerate(self.routing):
                if shard_id is not None:
                    doc_lists[shard_id].append(doc_id)
            tasks = {
                shard_id: self._shard_build_task(shard_id)
                for shard_id in range(self.shard_count)
                if doc_lists[shard_id]
            }
            # Ordered streaming: shard k's staged entries arrive (and
            # its B-tree bulk-loads) while later shards still stage.
            results = parallel_shard_stage(tasks, workers)
            for shard_id, shard in enumerate(self.shards):
                with self.obs.span("build.shard", shard=shard_id) as span:
                    if doc_lists[shard_id]:
                        staged_id, staged = next(results)
                        assert staged_id == shard_id
                        if staged.trace_events:
                            self.obs.tracer.absorb(
                                staged.trace_events,
                                parent_id=self.obs.tracer.current_id,
                            )
                        if staged.encoder_state is not None:
                            # The no-drift invariant: pre-seeding was
                            # complete, so this merge must be a no-op.
                            self.encoder.merge(
                                EdgeLabelEncoder.from_dict(staged.encoder_state)
                            )
                        # Shard-order merge: the coordinator registry's
                        # build.doc_* sketch states depend only on the
                        # shard layout, never on shard_workers.
                        self.obs.registry.merge_sketch_states(staged.sketches)
                    else:
                        staged = StagedBuild()
                    shard.rebuild_from_staged(staged)
                    span.set(entries=shard.entry_count)
        self.epochs.rebuild()
        self._publish_metrics()

    def _shard_build_task(self, shard_id: int):
        """The pickled build payload for one populated shard: inline
        sources for in-memory shards, a flushed-store reference for
        spilled ones (keeping the fan-out O(documents) in pickle size,
        so the out-of-core property survives parallel builds)."""
        from repro.core.parallel import ShardStoreRef, StageTask

        shard = self.shards[shard_id]
        store = shard.store
        documents = None
        store_ref = None
        if store.pager.in_memory:
            documents = tuple(
                (doc_id, store.get_source(doc_id)) for doc_id in store.doc_ids()
            )
        else:
            store.pager.flush()  # workers reopen the file read-only
            store_ref = ShardStoreRef(
                pages_path=store.pager.path,
                page_size=store.pager.page_size,
                page_cache_pages=self.config.page_cache_pages,
                records=tuple(store.record_locations()),
            )
        return StageTask(
            self._settings,
            self.encoder.to_dict(),
            self.obs.tracing,
            proc=f"shard-{shard_id}",
            documents=documents,
            store_ref=store_ref,
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def add_document(self, document: Document) -> int:
        """Store and index a new document (unclustered shards only).

        Routing hashes the serialized form — the same bytes
        :meth:`build` routes on — so incremental adds land where a
        rebuild would put them.

        The expensive staging (parse, bisimulation, eigensolve) runs
        *outside* the coordinator latch; only the store append, routing
        update, and B-tree delta apply under ``epochs.mutation``, so
        in-flight queries are stalled for microseconds, not eigensolves.
        The document id is reserved before staging as a tombstoned
        routing slot, which the apply window points at the shard; a
        staging that raises leaves the slot a gap, like a removal's.
        """
        source = serialize_fragment(document.root)
        with self._id_lock:
            doc_id = len(self.routing)
            self.routing.append(None)
        shard_id = self._route_source(source)
        shard = self.shards[shard_id]
        staged = shard.stage_document(doc_id, document)
        with self.epochs.mutation(staged.labels):
            shard.store.add_document_at(document, doc_id)
            self.routing[doc_id] = shard_id
            shard.apply_staged_add(staged)
        self._publish_metrics()
        return doc_id

    def remove_document(self, doc_id: int) -> int:
        """Remove a document and its entries from its owning shard.
        Returns the number of index entries removed."""
        shard_id = self.shard_of(doc_id)
        shard = self.shards[shard_id]
        staged = shard.stage_removal(doc_id)
        with self.epochs.mutation(staged.labels):
            removed = shard.apply_staged_removal(staged)
            self.routing[doc_id] = None
        self._publish_metrics()
        return removed

    def epoch_vector(self) -> tuple[EpochSnapshot, ...]:
        """The per-shard epoch snapshot vector as of now; under a
        coordinator pin this vector is frozen (shard mutations only
        happen inside the coordinator's exclusive apply window)."""
        return tuple(shard.epochs.current for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Coverage and query features (identical across shards — one
    # encoder, one config — so shard 0 answers for everyone)
    # ------------------------------------------------------------------ #

    def covers(self, twig: TwigQuery) -> bool:
        return self.shards[0].covers(twig)

    def ensure_covers(self, twig: TwigQuery) -> None:
        self.shards[0].ensure_covers(twig)

    def query_features(self, twig: TwigQuery) -> FeatureKey:
        return self.shards[0].query_features(twig)

    # ------------------------------------------------------------------ #
    # Pruning scan: scatter-gather
    # ------------------------------------------------------------------ #

    #: cover check, query features, anchored rule, scan — the single
    #: index's own function, over this class's scatter scan.
    candidates = FixIndex.candidates

    def candidates_for_key(
        self, query_key: FeatureKey, anchored: bool = True
    ) -> Iterator[IndexEntry]:
        """Scatter the pruning scan across shards, most selective first.

        Shards whose λ_max histogram proves the scan empty are skipped
        without being touched; ``shards.visited`` / ``shards.skipped``
        counters in the coordinator registry record the saving.

        Raises:
            ShardError: when one shard's scan fails (names the shard).
        """
        for chunk in self.dispatch_shards(
            self.pushdown_shards((query_key,), (anchored,)),
            lambda shard_id: list(
                self.shards[shard_id].candidates_for_key(
                    query_key, anchored=anchored
                )
            ),
            "pruning scan",
            self.config.shard_workers,
        ):
            yield from chunk

    def dispatch_shards(self, order, per_shard, what: str, concurrency: int):
        """Run ``per_shard(shard_id)`` over the shards of ``order`` and
        yield the results in that order — the one dispatcher behind the
        scatter scan and refinement push-down.

        With ``concurrency > 1`` and more than one shard to visit, every
        call is submitted up front to the shared scan executor (bounded
        at ``concurrency`` threads) and drained in dispatch order, so
        the merged stream is identical to the serial one.  ``per_shard``
        must touch only its own shard's B-tree/pager/store, and return
        something materialised: nothing of the shard is read after it
        returns.  A shard counts as visited (``shards.visited``) when it
        is dispatched, always on the calling thread — registry counters
        are not thread-safe.

        Raises:
            ShardError: a shard's call failed with a storage or B-tree
                error (names the shard, says ``what`` failed).
        """
        visited = self.obs.registry.counter("shards.visited")
        threaded = concurrency > 1 and len(order) > 1
        if threaded:
            from repro.core.parallel import scan_executor

            executor = scan_executor(concurrency)

        def dispatch(shard_id: int):
            visited.inc()
            if threaded:
                return executor.submit(per_shard, shard_id).result
            return functools.partial(per_shard, shard_id)

        calls = ((shard_id, dispatch(shard_id)) for shard_id in order)
        if threaded:
            calls = list(calls)  # every shard runs before the first drains
        for shard_id, call in calls:
            try:
                result = call()
            except (StorageError, BTreeError) as exc:
                raise ShardError(
                    f"shard {shard_id}: {what} failed: {exc}", shard=shard_id
                ) from exc
            yield result

    def _histogram_for(self, shard_id: int) -> FeatureHistogram:
        """The shard's λ_max histogram, kept fresh per shard epoch."""
        try:
            return self._histograms[shard_id].get(self.shards[shard_id])
        except (StorageError, BTreeError) as exc:
            raise ShardError(
                f"shard {shard_id}: histogram scan failed: {exc}",
                shard=shard_id,
            ) from exc

    def pushdown_shards(
        self, feature_keys, anchored: "list[bool] | tuple[bool, ...]"
    ) -> list[int]:
        """Shards that can hold a candidate for *every* one of
        ``feature_keys``, cheapest (most selective) first by the first
        key's scan cost — the order a scatter scan (one key) and
        refinement push-down (every pruning fragment's key, DESIGN.md
        §11) dispatch over.

        Because pointers partition by shard, an intersection survivor
        must appear in every fragment's candidate stream *within its own
        shard*; a shard whose histogram proves any fragment empty there
        cannot contribute and is skipped soundly.  The shards left out
        are counted here (``shards.skipped``); the ones returned are
        counted as visited by :meth:`dispatch_shards`.
        """
        from repro.core.optimizer import shard_scan_cost

        guard = self.config.guard_band
        ranked: list[tuple[float, int]] = []
        for shard_id in range(self.shard_count):
            histogram = self._histogram_for(shard_id)
            if not all(
                histogram.may_contain(key, anchored=anchor, guard=guard)
                for key, anchor in zip(feature_keys, anchored)
            ):
                continue
            ranked.append(
                (
                    shard_scan_cost(histogram, feature_keys[0], anchored[0]),
                    shard_id,
                )
            )
        ranked.sort()
        self.obs.registry.counter("shards.skipped").inc(
            self.shard_count - len(ranked)
        )
        return [shard_id for _, shard_id in ranked]

    # ------------------------------------------------------------------ #
    # Measurements and metrics
    # ------------------------------------------------------------------ #

    @property
    def entry_count(self) -> int:
        return sum(shard.entry_count for shard in self.shards)

    def size_bytes(self) -> int:
        return sum(shard.size_bytes() for shard in self.shards)

    def total_size_bytes(self) -> int:
        return sum(shard.total_size_bytes() for shard in self.shards)

    def iter_entries(self) -> Iterator[IndexEntry]:
        """Every shard's entries (shard-major; callers needing global
        key order sort, exactly as they do for scan results)."""
        for shard in self.shards:
            yield from shard.iter_entries()

    def iter_label_entries(self, label: str) -> Iterator[IndexEntry]:
        """Every shard's surviving entries under one root label — the
        scoped-refresh scan of a histogram slice."""
        for shard in self.shards:
            yield from shard.iter_label_entries(label)

    def pager_stats(self) -> PagerStats:
        """Summed pager counters across every shard's pagers."""
        return PagerStats.combine(
            [shard.pager_stats() for shard in self.shards]
        )

    def btree_stats(self):
        """Summed B-tree counters across shards."""
        from repro.btree.tree import BTreeStats

        return BTreeStats.combine([shard.btree.stats for shard in self.shards])

    def publish_scan_stats(self, registry) -> None:
        """Aggregate shard scan counters into ``registry`` (summing
        across shards, then delta-syncing — each shard's own registry
        stays private so the sums stay monotone)."""
        self.btree_stats().publish(registry)
        self.pager_stats().publish(registry)

    def balance(self) -> dict:
        """Per-shard entry/document balance (skew ratio, empty shards)
        — see :func:`repro.core.stats.shard_balance`."""
        from repro.core.stats import shard_balance

        return shard_balance(self)

    def _publish_metrics(self) -> None:
        import math

        registry = self.obs.registry
        self.publish_scan_stats(registry)
        registry.gauge("index.entries").set(self.entry_count)
        registry.gauge("index.btree_bytes").set(
            sum(shard.btree.size_bytes() for shard in self.shards)
        )
        registry.gauge("index.generation").set(self.generation)
        registry.gauge("shards.count").set(self.shard_count)
        for shard_id, shard in enumerate(self.shards):
            registry.gauge(f"shards.{shard_id}.entries").set(shard.entry_count)
        balance = self.balance()
        registry.gauge("shards.empty").set(len(balance["empty_shards"]))
        if math.isfinite(balance["skew"]):
            registry.gauge("shards.skew").set(balance["skew"])
        self.epochs.publish(registry)
        # Aggregated shard-level epoch accounting (each shard's manager
        # is private; summing then delta-syncing keeps totals monotone).
        registry.sync_counter(
            "epoch.shard.mutations",
            sum(shard.epochs.mutations for shard in self.shards),
        )
        registry.sync_counter(
            "epoch.shard.invalidations.scoped",
            sum(shard.epochs.scoped_invalidations for shard in self.shards),
        )
        registry.sync_counter(
            "epoch.shard.invalidations.full",
            sum(shard.epochs.full_invalidations for shard in self.shards),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, directory: str) -> None:
        """Persist the coordinator manifest plus every shard (stores
        included — unlike a single :class:`FixIndex`, a sharded index
        owns its primary storage).

        Shards that spilled into ``directory`` during an out-of-core
        build only flush in place (``copy_to`` degenerates to a flush
        when source and target are the same file)."""
        os.makedirs(directory, exist_ok=True)
        for shard_id, shard in enumerate(self.shards):
            sdir = shard_directory(directory, shard_id)
            shard.store.save(os.path.join(sdir, "store"))
            save_index(shard, sdir)
        manifest = {
            "format_version": _FORMAT_VERSION,
            "config": self.config.to_dict(),
            "routing": self.routing,
            "encoder": self.encoder.to_dict(),
        }
        with open(
            os.path.join(directory, _MANIFEST_FILE), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=2)

    @staticmethod
    def is_sharded(directory: str) -> bool:
        """Does ``directory`` hold a sharded index (vs a single one)?"""
        return os.path.exists(os.path.join(directory, _MANIFEST_FILE))

    @classmethod
    def load(
        cls,
        directory: str,
        *,
        page_cache_pages: int | None = None,
        shard_workers: int | None = None,
    ) -> "ShardedFixIndex":
        """Reattach to a sharded index previously :meth:`save`\\ d.

        ``page_cache_pages`` overrides the saved buffer-pool bound for
        this session (e.g. a query box with more memory than the build
        box); ``shard_workers`` overrides the scan-concurrency bound the
        same way (manifests from older builds default to ``1``).

        Raises:
            StorageError: missing/corrupt manifest, format mismatch, or
                a missing or ill-typed manifest section.
            ShardError: a shard's directory cannot be reattached.
        """
        manifest_path = os.path.join(directory, _MANIFEST_FILE)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError as exc:
            raise StorageError(f"no sharded index at {directory!r}") from exc
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"corrupt sharded manifest at {manifest_path!r}"
            ) from exc
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise StorageError(
                f"sharded format version {manifest.get('format_version')} is "
                f"not supported (expected {_FORMAT_VERSION})"
            )
        try:
            config = FixIndexConfig.from_dict(manifest["config"])
            encoder = EdgeLabelEncoder.from_dict(manifest["encoder"])
            routing = list(manifest["routing"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise StorageError(
                f"sharded manifest at {manifest_path!r} has a missing or "
                f"ill-typed section ({type(exc).__name__}: {exc})"
            ) from exc
        if page_cache_pages is not None:
            config = dataclasses.replace(
                config, page_cache_pages=page_cache_pages
            )
        if shard_workers is not None:
            config = dataclasses.replace(config, shard_workers=shard_workers)
        shards = []
        for shard_id in range(config.shards):
            sdir = shard_directory(directory, shard_id)
            try:
                store = PrimaryXMLStore.load(
                    os.path.join(sdir, "store"),
                    page_cache_pages=config.page_cache_pages,
                )
                shards.append(
                    load_index(sdir, store, page_cache_pages=page_cache_pages)
                )
            except (StorageError, FileNotFoundError) as exc:
                raise ShardError(
                    f"shard {shard_id}: cannot reattach: {exc}", shard=shard_id
                ) from exc
        sharded = cls(config, encoder=encoder, routing=routing, shards=shards)
        sharded._publish_metrics()
        return sharded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedFixIndex(shards={self.shard_count}, "
            f"affinity={self.config.shard_affinity!r}, "
            f"entries={self.entry_count})"
        )
