"""Index-entry generation for one document (Algorithm 1's core).

This module turns a document into a stream of ``(FeatureKey, element
node id)`` entries.  CONSTRUCT-INDEX's two regimes share one feature
routine and differ only in which closes of the bisimulation walk emit
an entry:

* **unit mode** (``depth_limit == 0``): the whole document is one
  indexable unit; only the root emits, and its pattern is the finished
  bisimulation graph itself.
* **subpattern mode** (``depth_limit > 0``): every element emits
  (GEN-SUBPATTERN; Theorem 4's one *entry* per element), and the pattern
  of its bisimulation vertex is the depth-limited truncation out of the
  document's :class:`~repro.bisim.PatternTable`.

Either way a vertex becomes a feature one way — pattern → canonical
signature → anti-symmetric matrix → ``(λ_min, λ_max)`` — memoized on the
vertex (Algorithm 1's ``u.eigs``), so the eigen-decomposition runs once
per equivalence class.

A generator may additionally carry a cross-document
:class:`~repro.spectral.cache.FeatureCache`: before solving the
eigenproblem for a pattern, its canonical signature is looked up, so
isomorphic patterns recurring *across* documents pay the O(n³)
decomposition once per distinct pattern rather than once per document.

The cache misses of a document are not solved one by one (DESIGN.md
§9): each miss contributes its anti-symmetric matrix to the document's
batch queue, and when the walk ends the queue is flushed through
:func:`repro.spectral.kernel.solve_batch` — matrices grouped by
dimension, one stacked-LAPACK call (or vectorized closed form) per
bucket — before the entries are yielded.  Batching changes *when*
ranges are computed, never their bytes (the kernel's determinism
contract), so the staged entry stream is identical to per-pattern
solving.  The queue and every vid-keyed memo are locals of one
document's walk (builder vids restart per document): a generator holds
nothing a failed document could leave behind for the next one.

Patterns whose matrix exceeds the configured cap fall back
to the all-covering feature range (Section 6.1's artificial ``[0, ∞]``),
counted in the returned statistics and never cached.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.errors import PatternTooLargeError
from repro.bisim import (
    BisimGraphBuilder,
    PatternTable,
    bisim_graph_of_document,
    vertex_signature,
)
from repro.bisim.graph import BisimGraph, BisimVertex
from repro.btree import encode_feature_key
from repro.core.structure import StructureDag
from repro.core.values import ValueHasher
from repro.obs import CounterBlock, MetricsRegistry, Obs
from repro.spectral import (
    ALL_COVERING_RANGE,
    EdgeLabelEncoder,
    FeatureCache,
    FeatureKey,
    FeatureRange,
    pattern_matrix,
    solve_batch,
)
from repro.xmltree import Document, Element


@dataclass
class ConstructionStats(CounterBlock):
    """Per-build statistics, aggregated across documents.

    Published under ``build.*`` by the batch build (end of build,
    ``rebuild_from_staged``, ``load_index``) and, from the mutation
    path's own accumulator, under ``build.incremental.*`` after every
    ``add_document`` / ``remove_document`` — so Table-1 totals never
    drift after mutations.
    """

    PREFIX = "build."
    EXPLICIT = ("largest_pattern", "eigen_batch_sizes", "per_document_vertices")
    PUBLISHED = {
        "unit_documents": None,
        "subpattern_documents": None,
        "eigen_computations": "eigen.computations",
        "cache_hits": "cache.hits",
        "cache_misses": "cache.misses",
        "eigen_batches": "eigen.batches",
    }

    entries: int = 0
    documents: int = 0
    unit_documents: int = 0
    subpattern_documents: int = 0
    bisim_vertices: int = 0
    eigen_computations: int = 0
    oversized_patterns: int = 0
    #: vertex count of the largest pattern actually decomposed.
    largest_pattern: int = 0
    #: feature-cache hits/misses (0/0 when no cache is attached).
    cache_hits: int = 0
    cache_misses: int = 0
    #: stacked-kernel dispatches: total bucket solves, and a histogram
    #: of their sizes (matrices per stacked call -> number of calls).
    eigen_batches: int = 0
    eigen_batch_sizes: dict[int, int] = field(default_factory=dict)
    per_document_vertices: list[int] = field(default_factory=list)

    def merge(self, other: "ConstructionStats") -> None:
        """Fold another build's (or worker's) statistics into this one.

        ``per_document_vertices`` is extended in ``other``'s order, so
        merging worker stats in chunk order reproduces the serial
        document order.
        """
        super().merge(other)
        self.largest_pattern = max(self.largest_pattern, other.largest_pattern)
        for size, count in other.eigen_batch_sizes.items():
            self.eigen_batch_sizes[size] = (
                self.eigen_batch_sizes.get(size, 0) + count
            )
        self.per_document_vertices.extend(other.per_document_vertices)

    def publish(self, registry: MetricsRegistry, prefix: str = PREFIX) -> None:
        """The totals, plus one ``eigen.batch_size.<n>`` counter per
        stacked-solve size."""
        super().publish(registry, prefix)
        for size, count in self.eigen_batch_sizes.items():
            registry.sync_counter(f"{prefix}eigen.batch_size.{size}", count)


@dataclass
class PhaseTimings(CounterBlock):
    """Wall-clock breakdown of one build (seconds per phase), the
    Table-1 phases in presentation order.

    Phases:
        parse:  fetching/parsing documents out of primary storage.
        encode: deterministic encoder seeding (§7) — per document in
                the staging loop, plus the pre-pass before a fan-out.
        bisim:  bisimulation-graph construction (the tree walk and
                interning), measured as the entry-generation residual.
        unfold: BISIM-TRAVELER depth-limited truncation of the DAG.
        matrix: canonical-order anti-symmetric matrix assembly
            (:func:`~repro.spectral.matrix.pattern_matrix`; cache
            misses only).
        eigen:  the eigensolve proper — stacked kernel dispatches
            (cache misses only).
        insert: B-tree loading (and clustered copy-out, when applicable).

    Merged worker times overlap in wall-clock terms; the merged figure
    is aggregate CPU-seconds per phase, which is the comparable quantity
    across serial and parallel builds.  Published as the
    ``build.phase_seconds.<phase>`` counters at the boundaries
    :class:`ConstructionStats` is.
    """

    PREFIX = "build.phase_seconds."

    parse: float = 0.0
    encode: float = 0.0
    bisim: float = 0.0
    unfold: float = 0.0
    matrix: float = 0.0
    eigen: float = 0.0
    insert: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Phase → seconds mapping (for reports and persistence)."""
        return asdict(self)


#: the Table-1 phases, in presentation order.
BUILD_PHASES = tuple(f.name for f in fields(PhaseTimings))


def seed_encoder(
    encoder: EdgeLabelEncoder,
    document: Document,
    text_label: Callable[[str], str] | None = None,
) -> None:
    """Register every edge-label pair of ``document`` with ``encoder``.

    This is the deterministic seeding step of the build pipeline:
    walking documents in ``doc_id`` order and elements in preorder (a
    node's text edges before its element children's, the order
    :meth:`~repro.bisim.BisimGraphBuilder.walk` registers them in) fixes
    a document's code assignment *before* any of its features is
    computed, so every worker (seeded over the whole corpus up front)
    and the serial path (seeded document by document,
    :meth:`EntryGenerator.stage`) extract features under identical
    codes.  Completeness holds because every edge of every pattern a
    document can produce — its full bisimulation graph in unit mode,
    depth-limited truncations in subpattern mode — descends from
    a (parent label, child label) tree edge walked here (text nodes
    included when the value extension is active).
    """
    root = document.root
    pending = [root]
    while pending:
        node = pending.pop()
        if node is not root:
            encoder.encode(node.parent.tag, node.tag)
        elements = []
        for child in node.children:
            if isinstance(child, Element):
                elements.append(child)
            elif text_label is not None:
                encoder.encode(node.tag, text_label(child.value))
        pending.extend(reversed(elements))


@dataclass(frozen=True, slots=True)
class Entry:
    """One index entry before key encoding."""

    key: FeatureKey
    node_id: int

    def encoded_key(self) -> bytes:
        """The B-tree key this entry is stored under."""
        key = self.key
        return encode_feature_key(key.root_label, key.range.lmax, key.range.lmin)


@dataclass(slots=True)
class _PendingFeature:
    """A cache miss awaiting the batched eigensolve: the matrix to
    solve, every vertex whose ``eigs`` the flush sets to the result, and
    the signature to cache it under (``None`` when no cache is
    attached)."""

    vertices: list[BisimVertex]
    matrix: np.ndarray
    signature: bytes | None


#: One staged index entry: (encoded B-tree key, doc_id, node_id).
StagedEntry = tuple[bytes, int, int]


@dataclass(frozen=True, slots=True)
class GeneratorSettings:
    """The part of a :class:`~repro.core.index.FixIndexConfig` entry
    generation depends on — what an index, a mutation's shadow
    generator, the verifier and every build worker construct an
    :class:`EntryGenerator` from.  Frozen and picklable, so it crosses
    the process boundary inside a staging task as is."""

    depth_limit: int
    value_buckets: int | None
    max_pattern_vertices: int
    feature_cache: bool

    @classmethod
    def from_config(cls, config) -> "GeneratorSettings":
        """The settings a ``FixIndexConfig`` implies (its same-named
        fields)."""
        return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})

    def value_hasher(self) -> ValueHasher | None:
        """The β-bucket text labeller (``None``: purely structural)."""
        if self.value_buckets is None:
            return None
        return ValueHasher(self.value_buckets)

    def fresh_cache(self) -> FeatureCache | None:
        """A new, empty spectral feature cache — or ``None`` when the
        settings disable caching."""
        return FeatureCache() if self.feature_cache else None

    def generator(
        self,
        encoder: EdgeLabelEncoder,
        cache: FeatureCache | None = None,
        obs: Obs | None = None,
        structure: StructureDag | None = None,
    ) -> "EntryGenerator":
        """An :class:`EntryGenerator` for these settings over
        ``encoder``, consulting ``cache``, reporting into ``obs`` and
        recording document structure into ``structure``."""
        return EntryGenerator(
            encoder,
            self.depth_limit,
            text_label=self.value_hasher(),
            max_pattern_vertices=self.max_pattern_vertices,
            cache=cache,
            obs=obs,
            structure=structure,
        )


class EntryGenerator:
    """Generates index entries for documents under one shared encoder."""

    def __init__(
        self,
        encoder: EdgeLabelEncoder,
        depth_limit: int,
        text_label: Callable[[str], str] | None = None,
        max_pattern_vertices: int = 800,
        cache: FeatureCache | None = None,
        obs: Obs | None = None,
        structure: StructureDag | None = None,
    ) -> None:
        self.encoder = encoder
        self.depth_limit = depth_limit
        self.text_label = text_label
        self.max_pattern_vertices = max_pattern_vertices
        self.cache = cache
        #: where each document's bisimulation graph and entry vertices
        #: are recorded (DESIGN.md §14); ``None`` records nothing.
        self.structure = structure
        #: observability context: span capture plus the registry the
        #: per-document sketches go to (a private, non-tracing one
        #: unless the owning index passes its own).
        self.obs = obs if obs is not None else Obs()
        self.stats = ConstructionStats()
        self.timings = PhaseTimings()

    # ------------------------------------------------------------------ #
    # Entry streams
    # ------------------------------------------------------------------ #

    def stage(
        self, doc_ids, load: Callable[[int], Document]
    ) -> list[StagedEntry]:
        """CONSTRUCT-ENTRIES over ``doc_ids``: one ``(encoded key,
        doc_id, node_id)`` triple per entry, in ``doc_ids`` order
        (generation order within a document).

        The build's one staging loop.  ``load`` turns a doc id into its
        tree and is charged to the ``parse`` phase — the in-process
        build passes the store's (LRU-cached) ``get_document``, a worker
        parses the source it was shipped.  The document's edge-label
        pairs are registered (:func:`seed_encoder`, the ``encode``
        phase) before its entries are generated, so one fetch serves
        both and codes come out in the whole-corpus pre-pass's
        first-seen order; under an encoder a fan-out already seeded
        this registers nothing.  Every document gets a
        ``build.doc`` span and an observation in the ``build.doc_*``
        sketches of this generator's :class:`~repro.obs.Obs`; what its
        generation time leaves after unfold/matrix/eigen is the
        ``bisim`` phase.
        """
        timings = self.timings
        staged: list[StagedEntry] = []
        unfold_before = timings.unfold
        matrix_before = timings.matrix
        eigen_before = timings.eigen
        doc_seconds = self.obs.registry.sketch("build.doc_seconds")
        doc_entries = self.obs.registry.sketch("build.doc_entries")
        generate_seconds = 0.0
        for doc_id in doc_ids:
            started = time.perf_counter()
            document = load(doc_id)
            loaded = time.perf_counter()
            timings.parse += loaded - started
            seed_encoder(self.encoder, document, text_label=self.text_label)
            started = time.perf_counter()
            timings.encode += started - loaded
            with self.obs.span("build.doc", doc=doc_id) as span:
                entries_before = len(staged)
                for entry in self.entries_for(document, doc_id):
                    staged.append((entry.encoded_key(), doc_id, entry.node_id))
                span.set(entries=len(staged) - entries_before)
            doc_elapsed = time.perf_counter() - started
            generate_seconds += doc_elapsed
            doc_seconds.observe(doc_elapsed)
            doc_entries.observe(float(len(staged) - entries_before))
        timings.bisim += max(
            0.0,
            generate_seconds
            - (timings.unfold - unfold_before)
            - (timings.matrix - matrix_before)
            - (timings.eigen - eigen_before),
        )
        return staged

    def entries_for(
        self, document: Document, doc_id: int | None = None
    ) -> Iterator[Entry]:
        """Yield every index entry for ``document``.

        Emission rule per CONSTRUCT-INDEX: the document root alone when
        the limit is 0 (unit mode), every element otherwise.  Given a
        ``doc_id``, the finished graph and the vertex of each entry are
        recorded under it in :attr:`structure` once the walk is over —
        a document whose walk raises records nothing.
        """
        stats = self.stats
        stats.documents += 1
        # Misses awaiting the stacked eigensolve, and the same by
        # signature so a repeat joins the in-flight feature instead of
        # re-queueing its matrix.
        queue: list[_PendingFeature] = []
        in_flight: dict[bytes, _PendingFeature] = {}
        # Algorithm 1 as published also indexes documents shallower than
        # the depth limit as single units, but a unit entry is keyed by
        # the *document root's* label and therefore invisible to covered
        # queries rooted at interior labels — a completeness gap.  We
        # apply subpattern mode uniformly whenever a depth limit is set
        # (Theorem 4's one-entry-per-element accounting then holds for
        # every document); unit mode is the collection scenario,
        # depth_limit == 0.  See DESIGN.md §5a.
        if self.depth_limit <= 0:
            stats.unit_documents += 1
            # The unit's pattern is the finished graph itself, digested
            # in its own vid space.
            graph = bisim_graph_of_document(document, text_label=self.text_label)
            self._vertex_features(graph.root, graph, {}, queue, in_flight)
            emitted = [(graph.root, document.root.node_id)]
        else:
            stats.subpattern_documents += 1
            # One pattern table per document (builder vids restart), with
            # the pattern vid → signature memo over it; both are dropped
            # when the walk ends, before the queued matrices are solved.
            patterns = PatternTable()
            signatures: dict[int, bytes] = {}
            emitted = []
            builder = BisimGraphBuilder(text_label=self.text_label)
            for vertex, start_ptr in builder.walk(document.root):
                # GEN-SUBPATTERN runs per close; by close time the
                # vertex's children are final, so its depth-L view is
                # computable immediately (Algorithm 1's ``u.eigs`` check:
                # once per vertex).
                if vertex.eigs is None:
                    started = time.perf_counter()
                    pattern = patterns.pattern(vertex, self.depth_limit)
                    self.timings.unfold += time.perf_counter() - started
                    self._vertex_features(
                        vertex, pattern, signatures, queue, in_flight
                    )
                emitted.append((vertex, start_ptr))
            del patterns, signatures
            graph = builder.finish()
        stats.entries += len(emitted)
        stats.bisim_vertices += graph.vertex_count()
        stats.per_document_vertices.append(graph.vertex_count())
        if self.structure is not None and doc_id is not None:
            self.structure.add_document(doc_id, graph.vertices, emitted)
        self._flush_eigen_batch(queue)
        del queue, in_flight  # the solved matrices go before entries stream out
        for vertex, start_ptr in emitted:
            yield Entry(vertex.eigs, start_ptr)

    # ------------------------------------------------------------------ #
    # Feature extraction with memoization, caching, and fallback
    # ------------------------------------------------------------------ #

    def _vertex_features(
        self,
        vertex: BisimVertex,
        pattern: BisimGraph,
        signatures: dict[int, bytes],
        queue: list[_PendingFeature],
        in_flight: dict[bytes, _PendingFeature],
    ) -> None:
        """BTREE-INSERT's feature half for a vertex seen for the first
        time: set ``vertex.eigs`` from ``pattern``.

        A resolved feature (cached, or the oversized fallback) is stored
        as its :class:`FeatureKey` at once; a genuine miss contributes
        its matrix to ``queue`` and leaves the :class:`_PendingFeature`
        in ``vertex.eigs`` until the end-of-document
        :meth:`_flush_eigen_batch` overwrites it with the key.  A
        distinct vertex whose pattern is already queued joins that
        pending feature, preserving the solve-once-per-class accounting
        of Algorithm 1.

        ``signatures`` is the vid → digest memo of ``pattern``'s vertex
        space: the cache is addressed by the digest of the pattern's
        root, and the matrix builder orders dimensions by the same memo,
        so each pattern vertex is digested once per document.
        """
        signature = None
        if self.cache is not None:
            signature = vertex_signature(pattern.root, signatures)
            pending = in_flight.get(signature)
            if pending is not None:
                # An in-flight hit (per-pattern solving would have
                # stored and re-read it by now, so it counts as a cache
                # hit).
                self.stats.cache_hits += 1
                pending.vertices.append(vertex)
                vertex.eigs = pending
                return
            cached = self.cache.lookup(signature)
            if cached is not None:
                self.stats.cache_hits += 1
                vertex.eigs = cached
                return
            self.stats.cache_misses += 1
        started = time.perf_counter()
        try:
            matrix = pattern_matrix(
                pattern,
                self.encoder,
                max_vertices=self.max_pattern_vertices,
                signatures=signatures,
            )
        except PatternTooLargeError:
            self.timings.matrix += time.perf_counter() - started
            self.stats.oversized_patterns += 1
            # Cap artifact, not a pattern feature: never cached.
            vertex.eigs = FeatureKey(vertex.label, ALL_COVERING_RANGE)
            return
        self.timings.matrix += time.perf_counter() - started
        pending = _PendingFeature([vertex], matrix, signature)
        vertex.eigs = pending
        queue.append(pending)
        if signature is not None:
            in_flight[signature] = pending

    def _flush_eigen_batch(self, queue: list[_PendingFeature]) -> None:
        """Solve every queued miss with one stacked call per dimension
        bucket and memoize/cache the resulting keys."""
        if not queue:
            return
        stats = self.stats
        started = time.perf_counter()
        with self.obs.span("build.eigen.batch", matrices=len(queue)) as span:
            ranges, buckets = solve_batch([item.matrix for item in queue])
            span.set(buckets=len(buckets))
        self.timings.eigen += time.perf_counter() - started
        stats.eigen_computations += len(queue)
        stats.eigen_batches += len(buckets)
        for batch_size in buckets.values():
            stats.eigen_batch_sizes[batch_size] = (
                stats.eigen_batch_sizes.get(batch_size, 0) + 1
            )
        for item, (lmin, lmax) in zip(queue, ranges):
            key = FeatureKey(item.vertices[0].label, FeatureRange(lmin, lmax))
            for vertex in item.vertices:
                vertex.eigs = key
            stats.largest_pattern = max(stats.largest_pattern, len(item.matrix))
            if item.signature is not None:
                self.cache.store(item.signature, key)
