"""The collection-wide structure DAG and twig verdicts over it
(DESIGN.md §14).

Algorithm 1 builds a bisimulation graph per document and Definition 4
defines a twig match *on that graph*; a :class:`StructureDag` keeps what
the build used to drop.  Every document's graph is hash-consed into one
append-only DAG — a vertex is ``(label, set of child vertices)``, so two
elements anywhere in the collection share a vertex exactly when they
are downward-bisimilar — held as flat parallel arrays (label ids,
child-offset runs, child ids).  Per document it records the vertex of
every index entry, by the entry's node id: the root alone in unit mode,
every element in subpattern mode — and per vertex the encoded B-tree key
of its class, the one memo of Algorithm 1's ``u.eigs`` (DESIGN.md §7):
an entry's key is a function of its vertex, so a class is keyed once
for the collection and a removal reads its keys instead of recomputing
them.  The inverse of the slots is kept beside them: per vertex its
*extent*, the sorted pointers of the entries at it, which is what a
structure scan (DESIGN.md §14) expands an accepted vertex through.

Downward bisimulation preserves the boolean refinement asks — does the
twig, ``//`` edges included, match with its root bound to this element?
— so :class:`TwigVerdicts` answers it once per (query node, vertex) and
the answer stands for every element, document and candidate of that
class.  Value literals are *not* decided here: a verdict is about
structure only, and a candidate that passes still has its tree fetched
when the twig carries a literal.

The DAG persists as one checksummed sidecar file beside the B-tree
(:data:`STRUCTURE_FILE`); :meth:`StructureDag.from_bytes` rejects
anything it cannot prove well-formed with a
:class:`~repro.errors.StorageError`.  The keys are not in the file —
the B-tree holds them — and come back through
:meth:`StructureDag.restore_keys`; nor are the extents, which are
rebuilt from the slots.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from bisect import bisect_left, insort
from collections.abc import Collection, Iterable, Iterator, Mapping

from repro.bisim.dag import signature_of
from repro.errors import StorageError
from repro.query.ast import Axis
from repro.query.twig import QueryNode, TwigQuery
from repro.storage import NodePointer

#: the sidecar's name inside an index directory.
STRUCTURE_FILE = "structure.dag"

_MAGIC = b"FIXSDAG\n"
_VERSION = 1
#: magic, version, label-id width, vertex-id width, then the counts —
#: labels, vertices, edges, documents, slots — the compressed body's
#: length, and a CRC-32 of everything else in the file.
_HEADER = struct.Struct("<8sHBBIIIIIII")


def pack_pointer(doc_id: int, node_id: int) -> int:
    """``(doc id, node id)`` as one integer that orders like the pair —
    the form an extent holds."""
    return doc_id << 32 | node_id


def unpack_pointers(packed: Iterable[int]) -> list[NodePointer]:
    """Inverse of :func:`pack_pointer`, over many."""
    return [NodePointer(pointer >> 32, pointer & 0xFFFFFFFF) for pointer in packed]


class StructureDag:
    """Hash-consed bisimulation DAG of a collection, plus the vertex of
    every index entry.

    Vertex ids are assigned bottom-up — every child's id is below its
    parents' — and never reused or reassigned while the object lives:
    it only grows (:meth:`drop_document` forgets a document's slots and
    leaves its vertices; :meth:`to_bytes` writes the live ones only, and
    :meth:`compacted` is the copy without the rest).

    A document's *slots* are an array indexed by node id holding
    ``vertex + 1``, or ``0`` where the node carries no index entry
    (text nodes; in unit mode everything but the root).  A vertex's
    *extent* is the inverse: the entries at it, as packed pointers
    ``doc id << 32 | node id`` (:func:`pack_pointer`) in ascending
    order.  Slots are what is persisted.  The extents are built from
    them when first read — by a query, never by a build, a staging
    worker or a save — and from then on kept wherever slots are
    written.
    """

    def __init__(self) -> None:
        #: label id -> label.
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        #: vertex -> label id.
        self.vertex_labels = array("I")
        #: vertex ``v``'s children are ``child_ids[child_offsets[v] :
        #: child_offsets[v + 1]]``, ascending.
        self.child_offsets = array("I", [0])
        self.child_ids = array("I")
        #: ``(label id, children) -> vertex``; ``None`` after a load,
        #: until the first mutation needs it again.
        self._interned: dict[tuple[int, tuple[int, ...]], int] | None = {}
        #: vertex -> encoded B-tree key of its class; ``None`` for a
        #: vertex no entry has sat at.  The whole list is ``None`` after
        #: a load, until :meth:`restore_keys`.
        self.keys: list[bytes | None] | None = []
        self._slots: dict[int, array] = {}
        #: the inverse of the slots, ``None`` until first read: vertex ->
        #: its extent (for the vertices an entry sits at), and label id
        #: -> the vertices of that label an entry sits at.
        self._inverse: tuple[dict[int, array], dict[int, set[int]]] | None = None
        #: the vertex count when a document was first dropped — every
        #: vertex was live then; ``None`` while nothing has been.
        self._garbage_from: int | None = None

    def __getstate__(self) -> dict:
        # Crossing a process boundary (a staging worker's result), the
        # intern table is dead weight: the receiver only absorbs.
        state = self.__dict__.copy()
        state["_interned"] = None
        return state

    # ------------------------------------------------------------------ #
    # Measurements
    # ------------------------------------------------------------------ #

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self.child_ids)

    @property
    def document_count(self) -> int:
        return len(self._slots)

    def size_bytes(self) -> int:
        """Bytes of the sidecar file a save would write now."""
        return len(self.to_bytes())

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def label_id(self, label: str) -> int | None:
        """The id of ``label``, or ``None`` when no vertex carries it."""
        return self._label_ids.get(label)

    def label_of(self, vertex: int) -> str:
        return self.labels[self.vertex_labels[vertex]]

    def children_of(self, vertex: int) -> array:
        return self.child_ids[
            self.child_offsets[vertex] : self.child_offsets[vertex + 1]
        ]

    def doc_ids(self) -> list[int]:
        """Documents with recorded slots, ascending."""
        return sorted(self._slots)

    def slots_of(self, doc_id: int) -> array | None:
        """The document's slot array (see the class docstring), or
        ``None`` for a document never recorded."""
        return self._slots.get(doc_id)

    def vertex_of(self, doc_id: int, node_id: int) -> int | None:
        """The vertex of the entry at ``(doc_id, node_id)``, if any."""
        slots = self._slots.get(doc_id)
        if slots is None or not 0 <= node_id < len(slots) or not slots[node_id]:
            return None
        return slots[node_id] - 1

    def extents(self) -> Mapping[int, array]:
        """Vertex -> its extent, for every vertex an entry sits at."""
        return self._inverted()[0]

    def carriers(self, label: str | None = None) -> Collection[int]:
        """The vertices an index entry sits at: every one, or those
        labelled ``label`` (none for a label no entry carries)."""
        extents, carriers = self._inverted()
        if label is None:
            return extents.keys()
        return carriers.get(self._label_ids.get(label), ())

    def document_roots(self) -> dict[int, list[int]]:
        """Each vertex a recorded document's root entry sits at -> the
        packed pointers of those roots (unordered)."""
        roots: dict[int, list[int]] = {}
        for doc_id, slots in self._slots.items():
            if slots and slots[0]:
                roots.setdefault(slots[0] - 1, []).append(pack_pointer(doc_id, 0))
        return roots

    def signature(self, vertex: int, memo: dict[int, bytes]) -> bytes:
        """The canonical digest of ``vertex`` (:func:`repro.bisim.dag.
        signature_of` over its label and its children's digests), so
        vertices of two DAGs can be compared for bisimilarity.  ``memo``
        (vertex -> digest) is shared across calls over one DAG."""
        stack = [vertex]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            children = self.children_of(current)
            missing = [child for child in children if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[current] = signature_of(
                self.label_of(current), [memo[child] for child in children]
            )
            stack.pop()
        return memo[vertex]

    def find(self, label: str, children: Iterable[int]) -> int | None:
        """The vertex ``(label, children)`` is interned as — ``None``
        when this DAG does not hold it, or has no intern table (a loaded
        DAG before :meth:`restore_keys`).  Inserts nothing, so a staging
        thread may ask it of the index's DAG outside the write latch."""
        label_id = self._label_ids.get(label)
        interned = self._interned
        if label_id is None or not interned:
            return None
        return interned.get((label_id, tuple(sorted(set(children)))))

    # ------------------------------------------------------------------ #
    # The per-vertex keys
    # ------------------------------------------------------------------ #

    def entries_of(self, doc_id: int) -> Iterator[tuple[bytes | None, int]]:
        """``(key, node id)`` of each index entry of a recorded
        document, in node-id order."""
        keys = self.keys
        for node_id, slot in enumerate(self._slots[doc_id]):
            if slot:
                yield keys[slot - 1], node_id

    def entry_labels_of(self, doc_id: int) -> frozenset[str]:
        """The root labels of a recorded document's index entries."""
        labels, vertex_labels = self.labels, self.vertex_labels
        return frozenset(
            labels[vertex_labels[slot - 1]]
            for slot in set(self._slots[doc_id])
            if slot
        )

    def restore_keys(self, entries: Iterable[tuple[bytes, int, int]]) -> None:
        """Read every class's key back off the index's own entries —
        ``(encoded key, doc id, node id)`` triples, a full B-tree pass —
        and rebuild the intern table: what a loaded DAG needs before
        the first mutation can be staged against it.  Nothing is set
        unless every entry agrees.

        Raises:
            StorageError: an entry sits at no recorded vertex, or two
                entries of one class carry different keys.
        """
        keys: list[bytes | None] = [None] * self.vertex_count
        for key, doc_id, node_id in entries:
            vertex = self.vertex_of(doc_id, node_id)
            if vertex is None:
                raise StorageError(
                    f"index entry ({doc_id}, {node_id}) has no structure vertex"
                )
            known = keys[vertex]
            if known is None:
                keys[vertex] = key
            elif known != key:
                raise StorageError(
                    f"structure vertex {vertex} ({self.label_of(vertex)!r}) "
                    f"is keyed {known.hex()} by one entry and {key.hex()} by "
                    f"the entry of ({doc_id}, {node_id})"
                )
        self.intern_table()
        self.keys = keys

    # ------------------------------------------------------------------ #
    # Growing
    # ------------------------------------------------------------------ #

    def intern_table(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """``(label id, children) -> vertex`` for every vertex — rebuilt
        off the arrays when a load or a process boundary left it behind.
        Only :meth:`intern` and :meth:`rollback` write it; a walk reads
        it to skip the call for a close whose class exists."""
        if self._interned is None:
            self._interned = {
                (self.vertex_labels[vertex], tuple(self.children_of(vertex))): vertex
                for vertex in range(self.vertex_count)
            }
        return self._interned

    def add_label(self, label: str) -> int:
        """The id of ``label``, assigned when new."""
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return label_id

    def intern(self, label_id: int, children: tuple[int, ...]) -> int:
        """The vertex for ``(label id, children)`` — ``children``
        ascending, distinct and already interned — created when new:
        one close of Algorithm 1's walk."""
        interned = self._interned
        if interned is None:
            interned = self.intern_table()
        key = (label_id, children)
        vertex = interned.get(key)
        if vertex is None:
            vertex = len(self.vertex_labels)
            self.vertex_labels.append(label_id)
            self.child_ids.extend(children)
            self.child_offsets.append(len(self.child_ids))
            if self.keys is not None:
                self.keys.append(None)
            # Last: a concurrent find that hits the vertex finds its
            # row in every array.
            interned[key] = vertex
        return vertex

    def mark(self) -> tuple[int, int]:
        """The extent of the DAG now — vertices and labels — for a
        :meth:`rollback` to return to."""
        return self.vertex_count, len(self.labels)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Forget every vertex and label interned since :meth:`mark`
        returned ``mark``: what a document whose walk or feature step
        raised had interned.  Nothing recorded may reach them — slots
        and keys are written only once a document succeeds."""
        vertices, labels = mark
        interned = self.intern_table()
        for vertex in range(vertices, self.vertex_count):
            del interned[(self.vertex_labels[vertex], tuple(self.children_of(vertex)))]
        del self.child_ids[self.child_offsets[vertices] :]
        del self.child_offsets[vertices + 1 :]
        del self.vertex_labels[vertices:]
        if self.keys is not None:
            del self.keys[vertices:]
        for label in self.labels[labels:]:
            del self._label_ids[label]
        del self.labels[labels:]

    def record(self, doc_id: int, slots: array, keys: Mapping[int, bytes]) -> None:
        """Record one document: its ``slots`` (see the class docstring)
        and the key of each class an entry of it sits at."""
        if self.keys is not None:
            for vertex, key in keys.items():
                self.keys[vertex] = key
        self._set_slots(doc_id, slots)

    def absorb(self, other: "StructureDag") -> None:
        """Take over every document of ``other`` (the private DAG a
        build worker, a shard worker or a staged mutation recorded
        into), the vertices they reach and those vertices' keys.
        Vertices new to this DAG are appended in ``other``'s order,
        which is first-appearance order, so absorbing chunks in
        document order numbers vertices exactly as recording the
        documents one by one would."""
        count = other.vertex_count
        offsets, child_ids = other.child_offsets, other.child_ids
        # Until a document is dropped every vertex belongs to one.
        reachable = None
        if other._garbage_from is not None:
            reachable = bytearray(count)
            for slots in other._slots.values():
                for slot in set(slots):
                    if slot:
                        reachable[slot - 1] = 1
            # Parents carry the larger ids: one descending pass closes
            # the set under the child relation.
            for vertex in range(count - 1, -1, -1):
                if reachable[vertex]:
                    for child in child_ids[offsets[vertex] : offsets[vertex + 1]]:
                        reachable[child] = 1
        # Labels are numbered in first-intern order here too.
        labels, label_ids = other.labels, [-1] * len(other.labels)
        intern = self.intern
        carried = other.keys if self.keys is not None else None
        mapped = [0] * count
        for vertex, label_id in enumerate(other.vertex_labels):
            if reachable is None or reachable[vertex]:
                here_label = label_ids[label_id]
                if here_label < 0:
                    here_label = label_ids[label_id] = self.add_label(labels[label_id])
                children = child_ids[offsets[vertex] : offsets[vertex + 1]]
                here = mapped[vertex] = intern(
                    here_label, tuple(sorted([mapped[child] for child in children]))
                )
                if carried is not None and carried[vertex] is not None:
                    self.keys[here] = carried[vertex]
        for doc_id, slots in other._slots.items():
            self._set_slots(
                doc_id,
                array("I", [mapped[slot - 1] + 1 if slot else 0 for slot in slots]),
            )

    def drop_document(self, doc_id: int) -> None:
        """Forget a removed document's slots and its pointers in the
        extents (its vertices stay until :meth:`compacted` or the next
        :meth:`to_bytes` leaves them out)."""
        slots = self._slots.pop(doc_id, None)
        if slots is not None:
            if self._inverse is not None:
                self._unrecord(doc_id, slots)
            self._note_garbage()

    def _set_slots(self, doc_id: int, slots: array) -> None:
        """Record ``slots`` as ``doc_id``'s, in place of any earlier
        recording, and its entries in the extents once they exist."""
        old = self._slots.get(doc_id)
        if old is not None:
            if self._inverse is not None:
                self._unrecord(doc_id, old)
            self._note_garbage()  # what only the old recording reached
        self._slots[doc_id] = slots
        if self._inverse is not None:
            self._record(self._inverse, doc_id, slots)

    def _inverted(self) -> tuple[dict[int, array], dict[int, set[int]]]:
        """:attr:`_inverse`, built from the slots on first use.  Readers
        may race to build it: each builds its own and installs it whole,
        and every build is the same."""
        inverse = self._inverse
        if inverse is None:
            inverse = ({}, {})
            for doc_id, slots in self._slots.items():
                self._record(inverse, doc_id, slots)
            self._inverse = inverse
        return inverse

    def _record(
        self,
        inverse: tuple[dict[int, array], dict[int, set[int]]],
        doc_id: int,
        slots: array,
    ) -> None:
        """Add one document's entries to the extents of their vertices —
        an append, since documents arrive in ascending id order."""
        extents, carriers = inverse
        vertex_labels = self.vertex_labels
        base = pack_pointer(doc_id, 0)
        for node_id, slot in enumerate(slots):
            if not slot:
                continue
            extent = extents.get(slot - 1)
            if extent is None:
                extent = extents[slot - 1] = array("Q")
                carriers.setdefault(vertex_labels[slot - 1], set()).add(slot - 1)
            pointer = base | node_id
            if extent and extent[-1] > pointer:
                insort(extent, pointer)
            else:
                extent.append(pointer)

    def _unrecord(self, doc_id: int, slots: array) -> None:
        """Take one document's entries out of the extents: in each, the
        document's pointers are one run."""
        extents, carriers = self._inverse
        low, high = pack_pointer(doc_id, 0), pack_pointer(doc_id + 1, 0)
        for slot in set(slots):
            if not slot:
                continue
            extent = extents[slot - 1]
            del extent[bisect_left(extent, low) : bisect_left(extent, high)]
            if not extent:
                del extents[slot - 1]
                label_id = self.vertex_labels[slot - 1]
                vertices = carriers[label_id]
                vertices.discard(slot - 1)
                if not vertices:
                    del carriers[label_id]

    def _note_garbage(self) -> None:
        if self._garbage_from is None:
            self._garbage_from = self.vertex_count

    def compacted(self) -> "StructureDag":
        """This DAG — or, once it has grown past twice the size it had
        when a document was first dropped from it, a copy holding only
        what the recorded documents reach, in its present order (keys
        included), so a churn of novel documents cannot grow it without
        bound.  The caller swaps the copy in inside the write latch."""
        if self._garbage_from is None or self.vertex_count <= 2 * self._garbage_from:
            return self
        return self._live()

    # ------------------------------------------------------------------ #
    # The sidecar file
    # ------------------------------------------------------------------ #

    def _live(self) -> "StructureDag":
        """This DAG, or — once a document was dropped — a copy holding
        only what the recorded documents reach, in its present order."""
        if self._garbage_from is None:
            return self
        live = StructureDag()
        live.absorb(self)
        return live

    def to_bytes(self) -> bytes:
        """The sidecar file: header, then the zlib-compressed arrays of
        the live part of the DAG (ids as 2 bytes where they fit)."""
        live = self._live()
        label_width = 2 if len(live.labels) <= 0x10000 else 4
        # Slots hold vertex + 1, so the widest stored id is the count.
        vertex_width = 2 if live.vertex_count <= 0xFFFF else 4
        parts = []
        for label in live.labels:
            encoded = label.encode("utf-8")
            parts.append(struct.pack("<I", len(encoded)) + encoded)
        parts.append(_packed(live.vertex_labels, label_width))
        parts.append(_packed(live.child_offsets, 4))
        parts.append(_packed(live.child_ids, vertex_width))
        doc_ids = live.doc_ids()
        directory = array("I")
        for doc_id in doc_ids:
            directory.extend((doc_id, len(live._slots[doc_id])))
        parts.append(_packed(directory, 4))
        parts.extend(_packed(live._slots[doc_id], vertex_width) for doc_id in doc_ids)
        body = zlib.compress(b"".join(parts))
        counts = (
            len(live.labels),
            live.vertex_count,
            live.edge_count,
            len(doc_ids),
            sum(len(live._slots[doc_id]) for doc_id in doc_ids),
            len(body),
        )
        head = _HEADER.pack(_MAGIC, _VERSION, label_width, vertex_width, *counts, 0)
        checksum = zlib.crc32(body, zlib.crc32(head[:-4]))
        return head[:-4] + struct.pack("<I", checksum) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "StructureDag":
        """Inverse of :meth:`to_bytes`.

        Raises:
            StorageError: ``data`` is truncated, damaged, of another
                version, or describes something that is not a DAG
                numbered bottom-up.
        """
        if len(data) < _HEADER.size:
            raise StorageError("structure file is truncated (no header)")
        (
            magic, version, label_width, vertex_width,
            n_labels, n_vertices, n_edges, n_documents, n_slots,
            body_length, checksum,
        ) = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise StorageError("not a structure file (bad magic)")
        if version != _VERSION:
            raise StorageError(
                f"structure file version {version} is not supported "
                f"(expected {_VERSION})"
            )
        body = data[_HEADER.size :]
        if len(body) != body_length:
            raise StorageError(
                f"structure file is truncated ({len(body)} of "
                f"{body_length} body bytes)"
            )
        if zlib.crc32(body, zlib.crc32(data[: _HEADER.size - 4])) != checksum:
            raise StorageError("structure file checksum mismatch")
        if label_width not in (2, 4) or vertex_width not in (2, 4):
            raise StorageError("structure file has an invalid id width")
        try:
            raw = zlib.decompress(body)
        except zlib.error as exc:
            raise StorageError(f"structure file body is damaged: {exc}") from exc

        dag = cls()
        position = 0
        try:
            for _ in range(n_labels):
                (length,) = struct.unpack_from("<I", raw, position)
                position += 4
                label = raw[position : position + length].decode("utf-8")
                if len(label.encode("utf-8")) != length or label in dag._label_ids:
                    raise StorageError("structure file label table is damaged")
                position += length
                dag._label_ids[label] = len(dag.labels)
                dag.labels.append(label)
        except (struct.error, UnicodeDecodeError) as exc:
            raise StorageError("structure file label table is damaged") from exc
        fixed = (
            n_vertices * label_width
            + (n_vertices + 1) * 4
            + n_edges * vertex_width
            + n_documents * 8
            + n_slots * vertex_width
        )
        if len(raw) - position != fixed:
            raise StorageError("structure file counts disagree with its body")

        def take(count: int, width: int) -> array:
            nonlocal position
            values = _unpacked(raw[position : position + count * width], width)
            position += count * width
            return values

        dag.vertex_labels = take(n_vertices, label_width)
        dag.child_offsets = take(n_vertices + 1, 4)
        dag.child_ids = take(n_edges, vertex_width)
        directory = take(2 * n_documents, 4)
        if n_vertices and max(dag.vertex_labels) >= n_labels:
            raise StorageError("structure file names an unknown label")
        offsets, children = dag.child_offsets, dag.child_ids
        if offsets[0] != 0 or offsets[-1] != n_edges:
            raise StorageError("structure file child runs are damaged")
        for vertex in range(n_vertices):
            start, end = offsets[vertex], offsets[vertex + 1]
            if start > end or end > n_edges:
                raise StorageError("structure file child runs are damaged")
            below = -1
            for child in children[start:end]:
                # Ascending and below the parent: canonical, and acyclic.
                if not below < child < vertex:
                    raise StorageError(
                        f"structure file vertex {vertex} has an invalid child"
                    )
                below = child
        previous = -1
        for doc_id, count in zip(directory[0::2], directory[1::2]):
            if doc_id <= previous or count > n_slots:
                raise StorageError("structure file document table is damaged")
            previous = doc_id
            n_slots -= count
            slots = take(count, vertex_width)
            if count and max(slots) > n_vertices:
                raise StorageError(
                    f"structure file document {doc_id} names an unknown vertex"
                )
            dag._slots[doc_id] = slots
        if n_slots:
            raise StorageError("structure file document table is damaged")
        dag._interned = dag.keys = None
        return dag


def _packed(values: array, width: int) -> bytes:
    """``values`` as little-endian unsigned integers of ``width`` bytes."""
    packed = values if width == 4 else array("H", values)
    if sys.byteorder == "big":
        packed = array(packed.typecode, packed)
        packed.byteswap()
    return packed.tobytes()


def _unpacked(data: bytes, width: int) -> array:
    """Inverse of :func:`_packed`, widened back to 4-byte items."""
    values = array("I" if width == 4 else "H")
    values.frombytes(data)
    if sys.byteorder == "big":
        values.byteswap()
    return values if width == 4 else array("I", values)


# --------------------------------------------------------------------- #
# Verdicts
# --------------------------------------------------------------------- #


class TwigVerdicts:
    """Memoised structural verdicts of one twig over one DAG.

    Each query node has one incoming edge, so it asks one question of a
    vertex and gets one memoised answer per vertex: reached by ``/``
    (or the root of a ``/``-leading twig), *does the subtwig match
    here*; reached by ``//`` (or the root of a ``//``-leading twig,
    which on a collection may bind anywhere in the unit), *does it
    match here or at some descendant*.  The recursion is the one of
    :func:`repro.query.match.matches_at` with a vertex's children in
    place of an element's; value literals are ignored.

    Attributes:
        computed: verdicts evaluated (memo misses).
        reused: verdicts answered from the memo.
    """

    def __init__(self, dag: StructureDag, twig: TwigQuery) -> None:
        self._vertex_labels = dag.vertex_labels
        self._offsets = dag.child_offsets
        self._children = dag.child_ids
        #: per query node, preorder: label id (``None``: no vertex
        #: carries the label), whether its verdict is the here-or-below
        #: one, and its child query nodes.
        self._label: list[int | None] = []
        self._anywhere: list[bool] = []
        self._edges: list[list[int]] = []
        self._memo: list[dict[int, bool]] = []
        self.computed = 0
        self.reused = 0
        self._compile(dag, twig.root, twig.leading_axis)

    def _compile(self, dag: StructureDag, node: QueryNode, axis: Axis) -> int:
        number = len(self._label)
        self._label.append(dag.label_id(node.label))
        self._anywhere.append(axis is Axis.DESCENDANT)
        self._edges.append([])
        self._memo.append({})
        for child_axis, child in node.edges:
            self._edges[number].append(self._compile(dag, child, child_axis))
        return number

    @property
    def satisfiable(self) -> bool:
        """False when some query node's label is on no vertex: then no
        vertex is accepted, and none needs asking."""
        return None not in self._label

    def accepts(self, vertex: int) -> bool:
        """The twig's structural verdict for a candidate whose entry
        sits at ``vertex``."""
        return self._verdict(0, vertex)

    def _verdict(self, node: int, vertex: int) -> bool:
        memo = self._memo[node]
        known = memo.get(vertex)
        if known is not None:
            self.reused += 1
            return known
        if self._anywhere[node]:
            return self._here_or_below(node, vertex, memo)
        self.computed += 1
        verdict = memo[vertex] = self._here(node, vertex)
        return verdict

    def _here(self, node: int, vertex: int) -> bool:
        if self._vertex_labels[vertex] != self._label[node]:
            return False
        children = self._children[self._offsets[vertex] : self._offsets[vertex + 1]]
        for edge in self._edges[node]:
            for child in children:
                if self._verdict(edge, child):
                    break
            else:
                return False
        return True

    def _here_or_below(self, node: int, vertex: int, memo: dict[int, bool]) -> bool:
        """Post-order over the vertices below ``vertex`` not yet
        decided for ``node`` — iterative, a document may be deep."""
        offsets, children = self._offsets, self._children
        stack = [vertex]
        #: on the stack a second time: no match here, children pending.
        waiting: set[int] = set()
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            verdict = current not in waiting and self._here(node, current)
            if not verdict:
                undecided = []
                for child in children[offsets[current] : offsets[current + 1]]:
                    below = memo.get(child)
                    if below is None:
                        undecided.append(child)
                        continue
                    self.reused += 1
                    if below:
                        verdict = True
                        break
                if not verdict and undecided:
                    waiting.add(current)
                    stack.extend(undecided)
                    continue
            self.computed += 1
            memo[current] = verdict
            stack.pop()
        return memo[vertex]
