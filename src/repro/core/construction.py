"""Index-entry generation for one document (Algorithm 1's core).

This module turns a document into a stream of ``(FeatureKey, element
node id)`` entries, in the two regimes CONSTRUCT-INDEX distinguishes:

* **unit mode** (small document, or ``depth_limit == 0``): the whole
  document is one indexable unit; one entry is produced, keyed by the
  features of its full bisimulation graph.
* **subpattern mode** (``depth_limit > 0`` and the document is deeper):
  the builder's per-element callback drives GEN-SUBPATTERN — for every
  element, the depth-limited pattern of its bisimulation vertex comes
  out of the document's :class:`~repro.bisim.PatternTable` and its
  features are computed, memoized per vertex so the eigen-decomposition
  runs once per equivalence class (Theorem 4 still guarantees exactly
  one *entry* per element).

A generator may additionally carry a cross-document
:class:`~repro.spectral.cache.FeatureCache`: before solving the
eigenproblem for a pattern, its canonical signature is looked up, so
isomorphic subpatterns recurring *across* documents pay the O(n³)
decomposition once per distinct pattern rather than once per document.

In subpattern mode the cache misses of a document are not solved one
by one (DESIGN.md §9): each miss contributes its anti-symmetric matrix
to a batch queue, and when the document's walk ends the queue
is flushed through :func:`repro.spectral.kernel.solve_batch` — matrices
grouped by dimension, one stacked-LAPACK call (or vectorized closed
form) per bucket — before the entries are yielded.  Batching changes
*when* ranges are computed, never their bytes (the kernel's determinism
contract), so the staged entry stream is identical to per-pattern
solving.

Patterns whose matrix exceeds the configured cap fall back
to the all-covering feature range (Section 6.1's artificial ``[0, ∞]``),
counted in the returned statistics and never cached.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import PatternTooLargeError
from repro.bisim import (
    BisimGraphBuilder,
    PatternTable,
    bisim_graph_of_document,
    vertex_signature,
)
from repro.bisim.graph import BisimVertex
from repro.btree import encode_feature_key
from repro.core.values import ValueHasher
from repro.obs import MetricsRegistry, Obs
from repro.spectral import (
    ALL_COVERING_RANGE,
    EdgeLabelEncoder,
    FeatureCache,
    FeatureKey,
    FeatureRange,
    eigenvalue_range,
    pattern_matrix,
    pattern_signature,
    solve_batch,
)
from repro.xmltree import Document, Element


@dataclass
class ConstructionStats:
    """Per-build statistics, aggregated across documents."""

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
        self.entries += other.entries
        self.documents += other.documents
        self.unit_documents += other.unit_documents
        self.subpattern_documents += other.subpattern_documents
        self.bisim_vertices += other.bisim_vertices
        self.eigen_computations += other.eigen_computations
        self.oversized_patterns += other.oversized_patterns
        self.largest_pattern = max(self.largest_pattern, other.largest_pattern)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.eigen_batches += other.eigen_batches
        for size, count in other.eigen_batch_sizes.items():
            self.eigen_batch_sizes[size] = (
                self.eigen_batch_sizes.get(size, 0) + count
            )
        self.per_document_vertices.extend(other.per_document_vertices)

    def publish(
        self, registry: MetricsRegistry, prefix: str = "build."
    ) -> None:
        """Sync these running totals into ``registry`` counters.

        Idempotent (the registry syncs by delta), so callers publish at
        every phase boundary — end of build, after ``add_document`` /
        ``remove_document`` — and the registry stays a faithful view of
        the stats without per-vertex counter traffic on the hot path.

        ``prefix`` selects the counter namespace: the batch build
        publishes under ``build.*``, while the incremental mutation path
        publishes its own accumulator under ``build.incremental.*`` so
        Table-1 phase totals never drift after mutations.
        """
        registry.sync_counter(prefix + "entries", self.entries)
        registry.sync_counter(prefix + "documents", self.documents)
        registry.sync_counter(prefix + "bisim_vertices", self.bisim_vertices)
        registry.sync_counter(prefix + "cache.hits", self.cache_hits)
        registry.sync_counter(prefix + "cache.misses", self.cache_misses)
        registry.sync_counter(
            prefix + "eigen.computations", self.eigen_computations
        )
        registry.sync_counter(prefix + "eigen.batches", self.eigen_batches)
        registry.sync_counter(
            prefix + "oversized_patterns", self.oversized_patterns
        )
        for size, count in self.eigen_batch_sizes.items():
            registry.sync_counter(f"{prefix}eigen.batch_size.{size}", count)


#: the Table-1 phases, in presentation order.
BUILD_PHASES = ("parse", "encode", "bisim", "unfold", "matrix", "eigen", "insert")
#: registry counter prefix the phase accumulators live under.
PHASE_COUNTER_PREFIX = "build.phase_seconds."


class PhaseTimings:
    """Wall-clock breakdown of one build (seconds per phase).

    Phases:
        parse:  fetching/parsing documents out of primary storage.
        encode: the deterministic encoder-seeding pre-pass (§7).
        bisim:  bisimulation-graph construction (the tree walk and
                interning), measured as the entry-generation residual.
        unfold: BISIM-TRAVELER depth-limited truncation of the DAG.
        matrix: canonical-order anti-symmetric matrix assembly
            (:func:`~repro.spectral.matrix.pattern_matrix`; cache
            misses only).
        eigen:  the eigensolve proper — stacked kernel dispatches
            (cache misses only).
        insert: B-tree loading (and clustered copy-out, when applicable).

    Since the ``repro.obs`` layer (DESIGN.md §10) this is a *view over a
    metrics registry* rather than a parallel set of floats: each phase
    attribute reads/writes the ``build.phase_seconds.<phase>`` counter
    of the backing :class:`~repro.obs.registry.MetricsRegistry` (a
    private one when none is given, the index's when constructed by an
    :class:`EntryGenerator` under an :class:`~repro.obs.Obs` context).
    The dataclass-era API — keyword construction, attribute ``+=``,
    ``merge``, ``as_dict`` — is unchanged.
    """

    def __init__(
        self,
        parse: float = 0.0,
        encode: float = 0.0,
        bisim: float = 0.0,
        unfold: float = 0.0,
        matrix: float = 0.0,
        eigen: float = 0.0,
        insert: float = 0.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        object.__setattr__(
            self,
            "_counters",
            {
                phase: registry.counter(PHASE_COUNTER_PREFIX + phase)
                for phase in BUILD_PHASES
            },
        )
        values = (parse, encode, bisim, unfold, matrix, eigen, insert)
        for phase, value in zip(BUILD_PHASES, values):
            if value:
                self._counters[phase].inc(value)

    def __getattr__(self, name: str) -> float:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(name)

    def __setattr__(self, name: str, value) -> None:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            counter = counters[name]
            counter.inc(value - counter.value)
        else:
            object.__setattr__(self, name, value)

    def merge(self, other: "PhaseTimings") -> None:
        """Accumulate another build's (or worker's) phase times.

        Worker times overlap in wall-clock terms; the merged figure is
        aggregate CPU-seconds per phase, which is the comparable
        quantity across serial and parallel builds.
        """
        for phase in BUILD_PHASES:
            self._counters[phase].inc(getattr(other, phase))

    def as_dict(self) -> dict[str, float]:
        """Phase → seconds mapping (for reports and persistence)."""
        return {phase: self._counters[phase].value for phase in BUILD_PHASES}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseTimings):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        phases = ", ".join(
            f"{phase}={seconds:.4f}" for phase, seconds in self.as_dict().items()
        )
        return f"PhaseTimings({phases})"


def seed_encoder(
    encoder: EdgeLabelEncoder,
    document: Document,
    text_label: Callable[[str], str] | None = None,
) -> None:
    """Register every edge-label pair of ``document`` with ``encoder``.

    This is the deterministic pre-pass of the build pipeline: walking
    documents in ``doc_id`` order and elements in preorder (a node's
    text edges before its element children's, the order
    :meth:`~repro.bisim.BisimGraphBuilder.walk` registers them in) fixes
    the code assignment *before* any feature is computed, so every worker
    (and the serial path) extracts features under an identical, complete
    encoder.  Completeness holds because every edge of every pattern the
    build can produce — full bisimulation graphs in unit mode, depth
    -limited truncations in subpattern mode — descends from
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
    """A cache miss awaiting the batched eigensolve.

    Carries everything the flush needs to finish the feature: the
    vertex to memoize on, the matrix to solve, and the signature to
    store the result under (``None`` when no cache is attached).
    """

    vertex: BisimVertex
    label: str
    matrix: np.ndarray
    signature: bytes | None = None
    key: FeatureKey | None = None


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
    ) -> "EntryGenerator":
        """An :class:`EntryGenerator` for these settings over
        ``encoder``, consulting ``cache`` and reporting into ``obs``."""
        return EntryGenerator(
            encoder,
            self.depth_limit,
            text_label=self.value_hasher(),
            max_pattern_vertices=self.max_pattern_vertices,
            cache=cache,
            obs=obs,
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
    ) -> None:
        self.encoder = encoder
        self.depth_limit = depth_limit
        self.text_label = text_label
        self.max_pattern_vertices = max_pattern_vertices
        self.cache = cache
        #: observability context: span capture plus the registry the
        #: phase timings are a view over (a private, non-tracing one
        #: unless the owning index passes its own).
        self.obs = obs if obs is not None else Obs()
        self.stats = ConstructionStats()
        self.timings = PhaseTimings(registry=self.obs.registry)
        #: the batch queue: misses awaiting the stacked eigensolve, with
        #: vid/signature indexes so repeats join the in-flight feature
        #: instead of re-queueing the same matrix.
        self._pending: list[_PendingFeature] = []
        self._pending_by_vid: dict[int, _PendingFeature] = {}
        self._pending_by_sig: dict[bytes, _PendingFeature] = {}

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
        parses the source it was shipped.  Every document gets a
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
            timings.parse += time.perf_counter() - started
            started = time.perf_counter()
            with self.obs.span("build.doc", doc=doc_id) as span:
                entries_before = len(staged)
                for entry in self.entries_for(document):
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

    def entries_for(self, document: Document) -> Iterator[Entry]:
        """Yield every index entry for ``document``.

        Chooses unit vs. subpattern mode per CONSTRUCT-INDEX: a document
        no deeper than the depth limit (or any document when the limit is
        0) is a single unit.
        """
        self.stats.documents += 1
        # Algorithm 1 as published also indexes documents shallower than
        # the depth limit as single units, but a unit entry is keyed by
        # the *document root's* label and therefore invisible to covered
        # queries rooted at interior labels — a completeness gap.  We
        # apply subpattern mode uniformly whenever a depth limit is set
        # (Theorem 4's one-entry-per-element accounting then holds for
        # every document); unit mode is the collection scenario,
        # depth_limit == 0.  See DESIGN.md §5a.
        if self.depth_limit <= 0:
            self.stats.unit_documents += 1
            yield self._unit_entry(document)
        else:
            self.stats.subpattern_documents += 1
            yield from self._subpattern_entries(document)

    def _unit_entry(self, document: Document) -> Entry:
        graph = bisim_graph_of_document(document, text_label=self.text_label)
        self.stats.bisim_vertices += graph.vertex_count()
        self.stats.per_document_vertices.append(graph.vertex_count())
        key = self._features_of_graph(graph)
        self.stats.entries += 1
        return Entry(key, document.root.node_id)

    def _subpattern_entries(self, document: Document) -> Iterator[Entry]:
        # One pattern table per document (builder vids restart), with
        # the cache path's pattern vid → signature memo over it; both
        # are dropped when the walk ends, before the queued matrices
        # are solved.
        patterns = PatternTable()
        signatures: dict[int, bytes] = {}
        staged: list[tuple[FeatureKey | _PendingFeature, int]] = []
        builder = BisimGraphBuilder(text_label=self.text_label)
        for vertex, start_ptr in builder.walk(document.root):
            # GEN-SUBPATTERN runs per close; by close time the vertex's
            # children are final, so its depth-L view is computable
            # immediately.  Misses join the batch queue; the entry is
            # staged against the (possibly pending) feature and yielded
            # after the end-of-document flush.
            self.stats.entries += 1
            feature = self._vertex_features(vertex, patterns, signatures)
            staged.append((feature, start_ptr))
        del patterns, signatures
        graph = builder.finish()
        self.stats.bisim_vertices += graph.vertex_count()
        self.stats.per_document_vertices.append(graph.vertex_count())
        self._flush_eigen_batch()
        for feature, start_ptr in staged:
            if isinstance(feature, _PendingFeature):
                assert feature.key is not None  # set by the flush
                yield Entry(feature.key, start_ptr)
            else:
                yield Entry(feature, start_ptr)

    # ------------------------------------------------------------------ #
    # Feature extraction with memoization, caching, and fallback
    # ------------------------------------------------------------------ #

    def _vertex_features(
        self, vertex: BisimVertex, patterns: PatternTable, signatures: dict[int, bytes]
    ) -> FeatureKey | _PendingFeature:
        """GEN-SUBPATTERN + BTREE-INSERT's feature half: memoized per
        bisimulation vertex (Algorithm 1's ``u.eigs`` check).

        Resolved features (memoized, cached, or the oversized fallback)
        come back as :class:`FeatureKey`\\ s immediately; a genuine miss
        contributes its matrix to the queue and returns the
        :class:`_PendingFeature` whose ``key`` the end-of-document
        :meth:`_flush_eigen_batch` fills in.  Repeats of an in-flight
        vertex (or, with a cache, of an in-flight signature) join the
        existing pending feature, preserving the solve-once-per-class
        accounting of Algorithm 1.

        The cache is addressed by the signature of the pattern's root in
        the document's table, so a hit costs one memoized truncation and
        skips the matrix and the eigensolve.
        """
        if vertex.eigs is not None:
            return vertex.eigs
        pending = self._pending_by_vid.get(vertex.vid)
        if pending is not None:
            return pending
        started = time.perf_counter()
        pattern = patterns.pattern(vertex, self.depth_limit)
        self.timings.unfold += time.perf_counter() - started
        signature = None
        if self.cache is not None:
            signature = vertex_signature(pattern.root, signatures)
            pending = self._pending_by_sig.get(signature)
            if pending is not None:
                # A distinct vertex whose depth-L view is already queued:
                # an in-flight hit (per-pattern solving would have stored
                # and re-read it by now, so it counts as a cache hit).
                self.stats.cache_hits += 1
                self._pending_by_vid[vertex.vid] = pending
                return pending
            cached = self.cache.lookup(signature)
            if cached is not None:
                self.stats.cache_hits += 1
                vertex.eigs = cached
                return cached
            self.stats.cache_misses += 1
        started = time.perf_counter()
        try:
            matrix = pattern_matrix(
                pattern, self.encoder, max_vertices=self.max_pattern_vertices
            )
        except PatternTooLargeError:
            self.timings.matrix += time.perf_counter() - started
            self.stats.oversized_patterns += 1
            # Cap artifact, not a pattern feature: never cached.
            key = FeatureKey(vertex.label, ALL_COVERING_RANGE)
            vertex.eigs = key
            return key
        self.timings.matrix += time.perf_counter() - started
        pending = _PendingFeature(
            vertex=vertex,
            label=pattern.root.label,
            matrix=matrix,
            signature=signature,
        )
        self._pending.append(pending)
        self._pending_by_vid[vertex.vid] = pending
        if signature is not None:
            self._pending_by_sig[signature] = pending
        return pending

    def _flush_eigen_batch(self) -> None:
        """Solve every queued miss with one stacked call per dimension
        bucket, memoize/cache the resulting keys, and clear the queue."""
        pending = self._pending
        if not pending:
            return
        started = time.perf_counter()
        with self.obs.span("build.eigen.batch", matrices=len(pending)) as span:
            ranges, buckets = solve_batch([item.matrix for item in pending])
            span.set(buckets=len(buckets))
        self.timings.eigen += time.perf_counter() - started
        self.stats.eigen_computations += len(pending)
        self.stats.eigen_batches += len(buckets)
        for batch_size in buckets.values():
            self.stats.eigen_batch_sizes[batch_size] = (
                self.stats.eigen_batch_sizes.get(batch_size, 0) + 1
            )
        for item, (lmin, lmax) in zip(pending, ranges):
            key = FeatureKey(item.label, FeatureRange(lmin, lmax))
            item.key = key
            item.vertex.eigs = key
            self.stats.largest_pattern = max(
                self.stats.largest_pattern, len(item.matrix)
            )
            if self.cache is not None and item.signature is not None:
                self.cache.store(item.signature, key)
        self._pending = []
        self._pending_by_vid = {}
        self._pending_by_sig = {}

    def _features_of_graph(self, graph) -> FeatureKey:
        """Features of a whole-document pattern graph (unit mode),
        consulting the cache under the graph's own signature."""
        size = graph.vertex_count()
        signature = None
        if self.cache is not None:
            signature = pattern_signature(graph)
            cached = self.cache.lookup(signature)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
            self.stats.cache_misses += 1
        started = time.perf_counter()
        try:
            matrix = pattern_matrix(
                graph, self.encoder, max_vertices=self.max_pattern_vertices
            )
        except PatternTooLargeError:
            self.timings.matrix += time.perf_counter() - started
            self.stats.oversized_patterns += 1
            # Cap artifact, not a pattern feature: never cached.
            return FeatureKey(graph.root.label, ALL_COVERING_RANGE)
        self.timings.matrix += time.perf_counter() - started
        started = time.perf_counter()
        lmin, lmax = eigenvalue_range(matrix)
        self.timings.eigen += time.perf_counter() - started
        key = FeatureKey(graph.root.label, FeatureRange(lmin, lmax))
        self.stats.eigen_computations += 1
        if size > self.stats.largest_pattern:
            self.stats.largest_pattern = size
        if signature is not None:
            self.cache.store(signature, key)
        return key
