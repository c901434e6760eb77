"""Index-entry generation for one document (Algorithm 1's core).

This module turns a document into ``(encoded feature key, doc id,
element node id)`` entries.  CONSTRUCT-INDEX's two regimes share one
feature routine and differ only in which closes of the bisimulation walk
emit an entry:

* **unit mode** (``depth_limit == 0``): the whole document is one
  indexable unit; only the root emits, and its pattern is the whole
  sub-DAG below the root's vertex, read off the DAG's arrays.
* **subpattern mode** (``depth_limit > 0``): every element emits
  (GEN-SUBPATTERN; Theorem 4's one *entry* per element), and the pattern
  of its bisimulation vertex is the depth-limited truncation out of the
  document's :class:`~repro.bisim.PatternTable` over the DAG.

The walk is the paper's one SAX pass (a path stack plus a signature
map), and the signature map is the collection-wide
:class:`~repro.core.structure.StructureDag` itself (DESIGN.md §7, §14):
at each open the walk registers the element's edge labels with the
encoder — :func:`seed_encoder`'s order — and each close is interned as
``(label id, sorted child vertex ids)`` straight into the DAG, its slot
written as it goes.  No per-document graph is built and nothing is
interned twice.

A vertex becomes a feature one way — pattern → canonical dimension
order → anti-symmetric matrix → ``(λ_min, λ_max)`` → encoded B-tree key
— and the key is memoized on the class (Algorithm 1's ``u.eigs``), so
the eigen-decomposition runs once per equivalence class.  The memo is
the per-vertex key of the DAG (DESIGN.md §7): the walk has found each
class's vertex, so the generator reads which are keyed already and
unfolds, orders and solves only the rest; a class recurring *across*
documents pays the O(n³) decomposition once for the collection.  A
mutation's generator interns into a private DAG and reads the keys off
the index's (``known``) as its walk meets each class.

The misses of a document are not solved one by one (DESIGN.md §9): each
contributes its anti-symmetric matrix to the document's batch queue, and
when every class has been visited the queue is flushed through
:func:`repro.spectral.kernel.solve_batch` — matrices grouped by
dimension, one stacked-LAPACK call (or vectorized closed form) per
bucket — before the document's slots and keys are recorded.  Batching
changes *when* ranges are computed, never their bytes (the kernel's
determinism contract).  A document whose walk or feature step raises is
rolled back (:meth:`~repro.core.structure.StructureDag.rollback`): the
DAG, and the next document's vertex numbering, are as if it never ran.

Patterns whose matrix exceeds the configured cap fall back
to the all-covering feature range (Section 6.1's artificial ``[0, ∞]``),
counted in the returned statistics.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from repro.errors import PatternTooLargeError
from repro.bisim import PatternTable
from repro.btree import encode_feature_key
from repro.core.structure import StructureDag
from repro.core.values import ValueHasher
from repro.obs import CounterBlock, MetricsRegistry, Obs
from repro.spectral import ALL_COVERING_RANGE, EdgeLabelEncoder
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
        encode: the whole-corpus encoder pre-pass before a fan-out
                (§7).  A serial build seeds inside its one walk, so
                its seeding is counted in ``bisim`` and this stays 0.
        bisim:  the walk — encoder seeding, interning every close into
                the structure DAG, writing the slots — measured as the
                entry-generation residual.
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
    node's text edges before its element children's) fixes a
    document's code assignment *before* any of its features is
    computed.  :meth:`EntryGenerator.entries_for`'s walk registers the
    same pairs in the same order at each open, so every worker (seeded
    over the whole corpus up front by this function) and the serial
    path (seeded document by document by its own walk) extract
    features under identical codes.  Completeness holds because every
    edge of every pattern a document can produce — its full
    bisimulation graph in unit mode, depth-limited truncations in
    subpattern mode — descends from a (parent label, child label) tree
    edge walked here (text nodes included when the value extension is
    active).
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


@dataclass(slots=True)
class _PendingFeature:
    """A miss awaiting the batched eigensolve: the matrix to solve and
    every class (structure vertex) of the document the flush keys with
    the result."""

    vertices: list[int]
    matrix: np.ndarray


#: One staged index entry: (encoded B-tree key of its class, doc_id,
#: node_id).
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


#: the shape of a text leaf's class: height 1, no children.
_LEAF: tuple[int, tuple[int, ...]] = (1, ())


class _Walk:
    """What one walk of a document leaves for its feature step."""

    __slots__ = ("shapes", "classes", "closed", "slots", "root", "mapped")

    def __init__(self) -> None:
        #: every class of the document, first-close order (children
        #: before parents) -> the height of its unfolding and its
        #: children, as interned.
        self.shapes: dict[int, tuple[int, tuple[int, ...]]] = {}
        #: the element classes, first-close order.
        self.classes: list[int] = []
        #: node ids of the index entries, in close order.
        self.closed: list[int] = []
        #: the document's slots (see :class:`StructureDag`).
        self.slots = array("I")
        #: the root's class.
        self.root = -1
        #: a mutation's walk: class -> the same class in ``known``
        #: (``None`` where ``known`` lacks it).
        self.mapped: dict[int, int | None] | None = None


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
        #: the DAG each document's classes are interned into and its
        #: slots and class keys recorded in (DESIGN.md §14); ``None``:
        #: a private DAG per document, recording nothing.
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
        #: unit mode's vertex -> digest memo and the DAG it is over, so
        #: a DAG vertex is digested once per build.
        self._digests: dict[int, bytes] = {}
        self._digested: StructureDag | None = None

    # ------------------------------------------------------------------ #
    # Entry streams
    # ------------------------------------------------------------------ #

    def stage(
        self, doc_ids, load: Callable[[int], Document]
    ) -> list[StagedEntry]:
        """CONSTRUCT-ENTRIES over ``doc_ids``: every entry of each
        document (:meth:`entries_for`), in ``doc_ids`` order.

        The build's one staging loop.  ``load`` turns a doc id into its
        tree and is charged to the ``parse`` phase — the in-process
        build passes the store's (LRU-cached) ``get_document``, a worker
        parses the source it was shipped.  Every document gets a
        ``build.doc`` span and an observation in the ``build.doc_*``
        sketches of this generator's :class:`~repro.obs.Obs`; what its
        generation time leaves after unfold/matrix/eigen is the
        ``bisim`` phase — the walk, which also seeds the encoder, so
        codes come out in the whole-corpus pre-pass's first-seen order
        and under an encoder a fan-out already seeded it registers
        nothing.
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
            with self.obs.span("build.doc", doc=doc_id) as span:
                entries = self.entries_for(document, doc_id)
                span.set(entries=len(entries))
            staged.extend(entries)
            doc_elapsed = time.perf_counter() - loaded
            generate_seconds += doc_elapsed
            doc_seconds.observe(doc_elapsed)
            doc_entries.observe(float(len(entries)))
        self._digests, self._digested = {}, None
        timings.bisim += max(
            0.0,
            generate_seconds
            - (timings.unfold - unfold_before)
            - (timings.matrix - matrix_before)
            - (timings.eigen - eigen_before),
        )
        return staged

    def entries_for(self, document: Document, doc_id: int) -> list[StagedEntry]:
        """Every index entry of ``document``, in close order.

        Emission rule per CONSTRUCT-INDEX: the document root alone when
        the limit is 0 (unit mode), every element otherwise.  The walk
        interns the document's classes into :attr:`structure`; once
        every key is known, the slots and the key of each class an
        entry sits at are recorded under ``doc_id``.  A document whose
        walk or feature step raises is rolled back and records nothing.
        """
        stats = self.stats
        stats.documents += 1
        dag = self.structure if self.structure is not None else StructureDag()
        known = self.known if self.known is not None else dag
        mark = dag.mark()
        try:
            walk = self._walk(document, dag, known)
            # Algorithm 1 as published also indexes documents shallower
            # than the depth limit as single units, but a unit entry is
            # keyed by the *document root's* label and therefore
            # invisible to covered queries rooted at interior labels — a
            # completeness gap.  We apply subpattern mode uniformly
            # whenever a depth limit is set (Theorem 4's
            # one-entry-per-element accounting then holds for every
            # document); unit mode is the collection scenario,
            # depth_limit == 0.  See DESIGN.md §5a.
            if self.depth_limit <= 0:
                stats.unit_documents += 1
            else:
                stats.subpattern_documents += 1
            stats.entries += len(walk.closed)
            stats.bisim_vertices += len(walk.shapes)
            stats.per_document_vertices.append(len(walk.shapes))
            keys = self._class_keys(walk, dag, known)
        except BaseException:
            if self._digested is dag:
                for vertex in range(mark[0], dag.vertex_count):
                    self._digests.pop(vertex, None)
            dag.rollback(mark)
            raise
        slots = walk.slots
        if self.structure is not None:
            dag.record(doc_id, slots, keys)
        return [(keys[slots[node_id] - 1], doc_id, node_id) for node_id in walk.closed]

    def _walk(
        self, document: Document, dag: StructureDag, known: StructureDag
    ) -> _Walk:
        """Algorithm 1's one pass over ``document``: at each open the
        element's edge labels go to the encoder (:func:`seed_encoder`'s
        order), at each close its ``(label id, sorted child vertex
        ids)`` is interned into ``dag`` and — in subpattern mode — its
        slot written.  Text is walked only under a ``text_label``, each
        text node a leaf class."""
        encode = self.encoder.encode
        # Edge-label pairs this walk has registered: the encoder only
        # grows, so a pair needs registering once per document.
        registered: set[tuple[str, str]] = set()
        text_label = self.text_label
        intern, add_label = dag.intern, dag.add_label
        interned = dag.intern_table().get
        unit = self.depth_limit <= 0
        walk = _Walk()
        shapes, classes, closed = walk.shapes, walk.classes, walk.closed
        mapped = walk.mapped = {} if known is not dag else None
        root = document.root
        slots = walk.slots = array(
            "I", bytes(4 * (root.node_id + 1 if unit else document.node_count()))
        )
        # Label ids as the DAG assigns them: at a label's first intern.
        label_ids: dict[str, int] = {}
        # One frame per open element: tag, node id, the height of its
        # tallest child class, and the set of its child classes.
        frames: list[list] = []
        pending: list[Element | None] = [root]  # ``None``: a pending close
        last = vertex = 0
        while pending:
            node = pending.pop()
            if node is None:
                tag, node_id, below, children = frames.pop()
                label_id = label_ids.get(tag)
                if label_id is None:
                    label_id = label_ids[tag] = add_label(tag)
                below_ids = tuple(sorted(children)) if children else ()
                vertex = interned((label_id, below_ids))
                if vertex is None:
                    vertex = intern(label_id, below_ids)
                height = below + 1
                if vertex not in shapes:
                    shapes[vertex] = (height, below_ids)
                    classes.append(vertex)
                    if mapped is not None:
                        below_known = [mapped[child] for child in children]
                        mapped[vertex] = (
                            None if None in below_known else known.find(tag, below_known)
                        )
                if frames:
                    parent = frames[-1]
                    parent[3].add(vertex)
                    if height > parent[2]:
                        parent[2] = height
                if not unit:
                    slots[node_id] = vertex + 1
                    closed.append(node_id)
                continue
            tag = node.tag
            if frames:
                edge = (frames[-1][0], tag)
                if edge not in registered:
                    registered.add(edge)
                    encode(*edge)
            last = node.node_id
            children: set[int] = set()
            frame = [tag, last, 0, children]
            frames.append(frame)
            pending.append(None)
            if text_label is None:
                pending.extend(
                    [child for child in reversed(node.children) if isinstance(child, Element)]
                )
                continue
            elements = []
            for child in node.children:
                if isinstance(child, Element):
                    elements.append(child)
                else:
                    label = text_label(child.value)
                    edge = (tag, label)
                    if edge not in registered:
                        registered.add(edge)
                        encode(*edge)
                    label_id = label_ids.get(label)
                    if label_id is None:
                        label_id = label_ids[label] = add_label(label)
                    leaf = intern(label_id, ())
                    if leaf not in shapes:
                        shapes[leaf] = _LEAF
                        if mapped is not None:
                            mapped[leaf] = known.find(label, ())
                    children.add(leaf)
                    frame[2] = 1
            pending.extend(reversed(elements))
        walk.root = vertex
        if unit:
            slots[root.node_id] = vertex + 1
            closed.append(root.node_id)
        else:
            del slots[last + 1 :]
        return walk

    # ------------------------------------------------------------------ #
    # Feature extraction with batching and fallback
    # ------------------------------------------------------------------ #

    def _class_keys(
        self, walk: _Walk, dag: StructureDag, known: StructureDag
    ) -> dict[int, bytes]:
        """Algorithm 1's ``u.eigs`` check, once per class an entry of
        the document sits at, in first-close order: the key of each,
        read off ``known`` or computed.  Every class computed is
        unfolded and assembled here and solved in one
        :meth:`_flush_eigen_batch`."""
        from repro.spectral.matrix import dag_matrix, pattern_matrix

        stats = self.stats
        unit = self.depth_limit <= 0
        known_keys = known.keys
        mapped = walk.mapped
        keys: dict[int, bytes] = {}
        # Misses awaiting the stacked eigensolve, and the same by the
        # vid of their pattern's root in the document's pattern table —
        # two classes whose depth-limited views coincide intern to one
        # root, and the later joins the queued feature instead of
        # re-queueing its matrix.
        queue: list[_PendingFeature] = []
        in_flight: dict[int, _PendingFeature] = {}
        # One pattern table per document, with the pattern vid → digest
        # memo the matrix builder orders dimensions by over it.  A unit's
        # pattern is the sub-DAG below its root, digested in the DAG's
        # own vertex space.
        patterns = PatternTable(dag=dag, shapes=walk.shapes)
        signatures: dict[int, bytes] = {}
        for vertex in [walk.root] if unit else walk.classes:
            at = vertex if mapped is None else mapped[vertex]
            if known_keys and at is not None and known_keys[at] is not None:
                stats.cache_hits += 1
                keys[vertex] = known_keys[at]
                continue
            if unit:
                if self._digested is not dag:
                    self._digests, self._digested = {}, dag
                matrix = self._class_matrix(
                    dag_matrix, dag, list(walk.shapes), signatures=self._digests
                )
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
                matrix = self._class_matrix(
                    pattern_matrix, pattern, signatures=signatures
                )
            stats.cache_misses += 1
            if matrix is None:
                # A cap artifact, but there is one cap per index: the
                # class's key like any other.
                keys[vertex] = encode_feature_key(
                    dag.label_of(vertex),
                    ALL_COVERING_RANGE.lmax,
                    ALL_COVERING_RANGE.lmin,
                )
                continue
            pending = _PendingFeature([vertex], matrix)
            if not unit:
                in_flight[pattern.root.vid] = pending
            queue.append(pending)
        del patterns, signatures, in_flight
        self._flush_eigen_batch(queue, keys, dag)
        return keys

    def _class_matrix(self, assemble, *pattern, signatures: dict[int, bytes]):
        """BTREE-INSERT's feature half for a class met unkeyed: the
        anti-symmetric matrix ``assemble`` (:func:`~repro.spectral.
        matrix.pattern_matrix` or :func:`~repro.spectral.matrix.
        dag_matrix`) makes of ``pattern`` for the end-of-document
        :meth:`_flush_eigen_batch` — ``None`` (and counted) when the
        pattern is over the size cap.

        ``signatures`` is the digest memo of ``pattern``'s vertex
        space, which the matrix builder fills as it orders dimensions.
        """
        started = time.perf_counter()
        try:
            return assemble(
                *pattern,
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
        self,
        queue: list[_PendingFeature],
        keys: dict[int, bytes],
        dag: StructureDag,
    ) -> None:
        """Solve every queued miss with one stacked call per dimension
        bucket and put each class's encoded key in ``keys`` (by
        vertex)."""
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
            key = encode_feature_key(dag.label_of(item.vertices[0]), lmax, lmin)
            for vertex in item.vertices:
                keys[vertex] = key
            stats.largest_pattern = max(stats.largest_pattern, len(item.matrix))
