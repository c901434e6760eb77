"""Index-entry generation for one document (Algorithm 1's core).

This module turns a document into a stream of ``(encoded feature key,
element node id)`` entries.  CONSTRUCT-INDEX's two regimes share one feature
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
dimension order → anti-symmetric matrix → ``(λ_min, λ_max)`` → encoded
B-tree key — and the key is memoized on the class (Algorithm 1's
``u.eigs``), so the eigen-decomposition runs once per equivalence class.
The memo is the per-vertex key of the collection-wide
:class:`~repro.core.structure.StructureDag` (DESIGN.md §7): once a
document's graph is finished the generator asks the DAG which of its
classes are keyed already and unfolds, orders and solves only the rest,
so a class recurring *across* documents pays the O(n³) decomposition
once for the collection.

The misses of a document are not solved one by one (DESIGN.md §9): each
contributes its anti-symmetric matrix to the document's batch queue, and
when every class has been visited the queue is flushed through
:func:`repro.spectral.kernel.solve_batch` — matrices grouped by
dimension, one stacked-LAPACK call (or vectorized closed form) per
bucket — before the document is recorded and the entries are yielded.
Batching changes *when* ranges are computed, never their bytes (the
kernel's determinism contract), so the staged entry stream is identical
to per-pattern solving.  The queue and every vid-keyed memo are locals
of one document's walk (builder vids restart per document), and the DAG
is written once, at the end: a generator holds nothing a failed document
could leave behind for the next one.

Patterns whose matrix exceeds the configured cap fall back
to the all-covering feature range (Section 6.1's artificial ``[0, ∞]``),
counted in the returned statistics.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import PatternTooLargeError
from repro.bisim import BisimGraphBuilder, PatternTable
from repro.bisim.graph import BisimGraph, BisimVertex
from repro.btree import encode_feature_key
from repro.btree.keys import decode_feature_key
from repro.core.structure import StructureDag
from repro.core.values import ValueHasher
from repro.obs import CounterBlock, MetricsRegistry, Obs
from repro.spectral import (
    ALL_COVERING_RANGE,
    EdgeLabelEncoder,
    FeatureKey,
    FeatureRange,
)
from repro.xmltree import Document, Element

if TYPE_CHECKING:
    import numpy as np


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
    #: classes met already keyed (by the structure DAG, or joining a
    #: class queued earlier in the same document) / classes computed.
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
            (:func:`~repro.spectral.matrix.pattern_matrix`; classes
            not keyed yet only).
        eigen:  the eigensolve proper — stacked kernel dispatches
            (the same classes).
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


def solve_batch(matrices: list[np.ndarray]):
    """:func:`repro.spectral.kernel.solve_batch`, the one eigensolve of
    entry generation.  The kernel (and numpy with it) is imported at
    the first flush, so a process that opens an index and only reads
    it never loads either."""
    from repro.spectral.kernel import solve_batch

    return solve_batch(matrices)


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
    """One index entry: the encoded B-tree key of its class
    (``encode_feature_key(label, λ_max, λ_min)``) and the element's
    node id."""

    raw_key: bytes
    node_id: int

    @property
    def key(self) -> FeatureKey:
        """The decoded ``(root label, [λ_min, λ_max])`` feature key."""
        label, lmax, lmin = decode_feature_key(self.raw_key)
        return FeatureKey(label, FeatureRange(lmin, lmax))


@dataclass(slots=True)
class _PendingFeature:
    """A miss awaiting the batched eigensolve: the matrix to solve and
    every vertex of the document the flush keys with the result."""

    vertices: list[BisimVertex]
    matrix: np.ndarray


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

    def generator(
        self,
        encoder: EdgeLabelEncoder,
        obs: Obs | None = None,
        structure: StructureDag | None = None,
        known: StructureDag | None = None,
    ) -> "EntryGenerator":
        """An :class:`EntryGenerator` for these settings over
        ``encoder``, reporting into ``obs``, recording documents into
        ``structure`` and reading already-keyed classes off ``known``
        (default: ``structure``)."""
        return EntryGenerator(
            encoder,
            self.depth_limit,
            text_label=self.value_hasher(),
            max_pattern_vertices=self.max_pattern_vertices,
            obs=obs,
            structure=structure,
            known=known,
        )


class EntryGenerator:
    """Generates index entries for documents under one shared encoder."""

    def __init__(
        self,
        encoder: EdgeLabelEncoder,
        depth_limit: int,
        text_label: Callable[[str], str] | None = None,
        max_pattern_vertices: int = 800,
        obs: Obs | None = None,
        structure: StructureDag | None = None,
        known: StructureDag | None = None,
    ) -> None:
        self.encoder = encoder
        self.depth_limit = depth_limit
        self.text_label = text_label
        self.max_pattern_vertices = max_pattern_vertices
        #: where each document's bisimulation graph, entry vertices and
        #: class keys are recorded (DESIGN.md §14); ``None`` records
        #: nothing.
        self.structure = structure
        #: the DAG asked which classes are keyed already — the one this
        #: generator records into unless given another (a mutation's
        #: shadow generator records into a private DAG and reads the
        #: index's); only ever read.
        self.known = known
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
                    staged.append((entry.raw_key, doc_id, entry.node_id))
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
        ``doc_id``, the finished graph, the vertex of each entry and
        the key of each class are recorded under it in
        :attr:`structure` once every key is known — a document whose
        walk or feature step raises records nothing.
        """
        stats = self.stats
        stats.documents += 1
        builder = BisimGraphBuilder(text_label=self.text_label)
        # GEN-SUBPATTERN runs per close: Theorem 4's one entry per
        # element (in unit mode only the root's, below).
        emitted = list(builder.walk(document.root))
        graph = builder.finish()
        # Algorithm 1 as published also indexes documents shallower than
        # the depth limit as single units, but a unit entry is keyed by
        # the *document root's* label and therefore invisible to covered
        # queries rooted at interior labels — a completeness gap.  We
        # apply subpattern mode uniformly whenever a depth limit is set
        # (Theorem 4's one-entry-per-element accounting then holds for
        # every document); unit mode is the collection scenario,
        # depth_limit == 0.  See DESIGN.md §5a.
        unit = self.depth_limit <= 0
        if unit:
            stats.unit_documents += 1
            emitted = [(graph.root, document.root.node_id)]
        else:
            stats.subpattern_documents += 1
        stats.entries += len(emitted)
        stats.bisim_vertices += graph.vertex_count()
        stats.per_document_vertices.append(graph.vertex_count())

        known = self.known if self.known is not None else self.structure
        # Per class of this document, by vid: its encoded key, once it
        # has one.
        keys: list[bytes | None] = (
            known.keys_of(graph.vertices)
            if known is not None
            else [None] * graph.vertex_count()
        )
        # Misses awaiting the stacked eigensolve, and the same by the
        # vid of their pattern's root in the document's pattern table —
        # two classes whose depth-limited views coincide intern to one
        # root, and the later joins the queued feature instead of
        # re-queueing its matrix.
        queue: list[_PendingFeature] = []
        in_flight: dict[int, _PendingFeature] = {}
        # One pattern table per document (builder vids restart), with
        # the pattern vid → digest memo the matrix builder orders
        # dimensions by over it; the unit's pattern is the finished
        # graph itself, digested in its own vid space.
        patterns = PatternTable()
        signatures: dict[int, bytes] = {}
        # Algorithm 1's ``u.eigs`` check: once per class, in first-close
        # order.
        for vertex in dict.fromkeys(vertex for vertex, _ in emitted):
            if keys[vertex.vid] is not None:
                stats.cache_hits += 1
                continue
            if unit:
                pattern = graph
            else:
                started = time.perf_counter()
                pattern = patterns.pattern(vertex, self.depth_limit)
                self.timings.unfold += time.perf_counter() - started
            pending = in_flight.get(pattern.root.vid)
            if pending is not None:
                # Per-pattern solving would have keyed the class by
                # now, so it counts as a hit.
                stats.cache_hits += 1
                pending.vertices.append(vertex)
                continue
            stats.cache_misses += 1
            matrix = self._class_matrix(pattern, signatures)
            if matrix is None:
                # A cap artifact, but there is one cap per index: the
                # class's key like any other.
                keys[vertex.vid] = encode_feature_key(
                    vertex.label, ALL_COVERING_RANGE.lmax, ALL_COVERING_RANGE.lmin
                )
                continue
            pending = in_flight[pattern.root.vid] = _PendingFeature([vertex], matrix)
            queue.append(pending)
        del patterns, signatures, in_flight
        self._flush_eigen_batch(queue, keys)
        del queue  # the solved matrices go before entries stream out
        if self.structure is not None and doc_id is not None:
            self.structure.add_document(doc_id, graph.vertices, emitted, keys)
        for vertex, start_ptr in emitted:
            yield Entry(keys[vertex.vid], start_ptr)

    # ------------------------------------------------------------------ #
    # Feature extraction with batching and fallback
    # ------------------------------------------------------------------ #

    def _class_matrix(
        self, pattern: BisimGraph, signatures: dict[int, bytes]
    ) -> np.ndarray | None:
        """BTREE-INSERT's feature half for a class met unkeyed: the
        anti-symmetric matrix of ``pattern`` for the end-of-document
        :meth:`_flush_eigen_batch` — ``None`` (and counted) when the
        pattern is over the size cap.

        ``signatures`` is the vid → digest memo of ``pattern``'s vertex
        space, which the matrix builder fills as it orders dimensions,
        so each pattern vertex is digested once per document.
        """
        from repro.spectral.matrix import pattern_matrix

        started = time.perf_counter()
        try:
            return pattern_matrix(
                pattern,
                self.encoder,
                max_vertices=self.max_pattern_vertices,
                signatures=signatures,
            )
        except PatternTooLargeError:
            self.stats.oversized_patterns += 1
            return None
        finally:
            self.timings.matrix += time.perf_counter() - started

    def _flush_eigen_batch(
        self, queue: list[_PendingFeature], keys: list[bytes | None]
    ) -> None:
        """Solve every queued miss with one stacked call per dimension
        bucket and put each class's encoded key in ``keys`` (by vid)."""
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
            key = encode_feature_key(item.vertices[0].label, lmax, lmin)
            for vertex in item.vertices:
                keys[vertex.vid] = key
            stats.largest_pattern = max(stats.largest_pattern, len(item.matrix))
