"""Primary XML storage (Figure 3's "Primary storage").

Documents are serialized and stored as records; a :class:`NodePointer`
addresses any element inside any stored document by ``(doc_id,
node_id)``, where ``node_id`` is the element's document-order preorder
id.  This pair is exactly the ``start_ptr`` that flows through
Algorithm 1 and is stored as the *value* of the unclustered FIX index.

Resolution parses the document on first touch and caches a bounded
number of parsed trees, so repeated refinement over candidates from the
same document stays cheap while memory remains bounded (the pattern the
paper attributes to random I/O in the unclustered case still shows up in
the pager counters, because each fresh document touch re-reads its
record pages).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Iterator

import struct

from repro.errors import RecordError, XMLSyntaxError
from repro.storage.pager import Pager
from repro.storage.records import RecordFile, RecordPointer
from repro.xmltree import Document, Element, parse_xml, serialize_fragment


@dataclass(frozen=True, slots=True, order=True)
class NodePointer:
    """Address of an element node in primary storage."""

    doc_id: int
    node_id: int

    def pack(self) -> bytes:
        """8-byte fixed encoding (used as a B-tree value)."""
        return struct.pack("<II", self.doc_id, self.node_id)

    @classmethod
    def unpack(cls, data: bytes) -> "NodePointer":
        doc_id, node_id = struct.unpack("<II", data)
        return cls(doc_id, node_id)


class PrimaryXMLStore:
    """Append-only store of whole XML documents.

    Args:
        pager: backing pager (file-based or in-memory).
        cache_documents: how many parsed documents to keep resident.
    """

    def __init__(self, pager: Pager | None = None, cache_documents: int = 64) -> None:
        self._pager = pager if pager is not None else Pager()
        self._records = RecordFile(self._pager)
        # ``None`` entries are tombstones for removed documents; ids are
        # never reused, so pointers into removed documents fail loudly
        # instead of silently resolving into an unrelated document.
        self._directory: list[RecordPointer | None] = []
        self._cache_capacity = cache_documents
        self._cache: "OrderedDict[int, Document]" = OrderedDict()

    @property
    def pager(self) -> Pager:
        """The backing pager (exposed for I/O accounting)."""
        return self._pager

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def add_document(self, document: Document) -> int:
        """Store a document; returns its ``doc_id``.

        The document's own ``doc_id`` attribute is updated to match, so
        pointers minted from its nodes resolve back here.
        """
        doc_id = len(self._directory)
        payload = serialize_fragment(document.root).encode("utf-8")
        self._directory.append(self._records.append(payload))
        document.doc_id = doc_id
        # Seed the cache with the already-parsed tree.
        self._cache_put(doc_id, document)
        return doc_id

    def add_source(self, source: str) -> int:
        """Store raw XML text (parsed lazily on first access)."""
        doc_id = len(self._directory)
        self._directory.append(self._records.append(source.encode("utf-8")))
        return doc_id

    def add_document_at(self, document: Document, doc_id: int) -> None:
        """Store a document under a caller-chosen ``doc_id``.

        Shard stores use this to keep *global* document ids: ids below
        ``doc_id`` that this store has never seen become tombstones
        (documents living in sibling shards), so every pointer minted
        anywhere in a sharded index resolves without translation.

        Raises:
            RecordError: when ``doc_id`` is already occupied.
        """
        self._claim_slot(doc_id)
        payload = serialize_fragment(document.root).encode("utf-8")
        self._directory[doc_id] = self._records.append(payload)
        document.doc_id = doc_id
        self._cache_put(doc_id, document)

    def add_source_at(self, source: str, doc_id: int) -> None:
        """Store raw XML text under a caller-chosen ``doc_id`` (the
        lazy-parse counterpart of :meth:`add_document_at`)."""
        self._claim_slot(doc_id)
        self._directory[doc_id] = self._records.append(source.encode("utf-8"))

    def _claim_slot(self, doc_id: int) -> None:
        if doc_id < 0:
            raise RecordError(f"invalid document id {doc_id}")
        if doc_id < len(self._directory) and self._directory[doc_id] is not None:
            raise RecordError(f"document id {doc_id} is already occupied")
        while len(self._directory) <= doc_id:
            self._directory.append(None)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def document_count(self) -> int:
        """Number of live (non-removed) documents."""
        return sum(1 for pointer in self._directory if pointer is not None)

    def doc_ids(self) -> Iterator[int]:
        """All live document ids, ascending."""
        return (
            doc_id
            for doc_id, pointer in enumerate(self._directory)
            if pointer is not None
        )

    def remove_document(self, doc_id: int) -> None:
        """Tombstone a document.  Its id is never reused, so pointers
        into the removed document now fail loudly; its record is
        released, and a page left without a live record is overwritten
        by later additions (no compaction beyond that).

        Raises:
            RecordError: for unknown or already-removed ids.
        """
        if not 0 <= doc_id < len(self._directory) or self._directory[doc_id] is None:
            raise RecordError(f"no document with id {doc_id}")
        self._records.release(self._directory[doc_id])
        self._directory[doc_id] = None
        self._cache.pop(doc_id, None)

    def get_source(self, doc_id: int) -> str:
        """Raw serialized XML of a stored document, without parsing.

        This is what the parallel build ships to worker processes: the
        stored record bytes are already the serialized form, so handing
        them out costs one record read instead of a serialize pass over
        the parsed tree.

        Raises:
            RecordError: for unknown or removed ids, and for a record
                whose bytes are no longer UTF-8.
        """
        if not 0 <= doc_id < len(self._directory):
            raise RecordError(f"no document with id {doc_id}")
        pointer = self._directory[doc_id]
        if pointer is None:
            raise RecordError(f"document {doc_id} was removed")
        try:
            return self._records.read(pointer).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RecordError(
                f"record of document {doc_id} is damaged: {exc}"
            ) from exc

    def get_document(self, doc_id: int) -> Document:
        """Fetch (and parse, if not cached) a stored document.

        Raises:
            RecordError: for unknown or removed ids, and for a record
                that no longer decodes or parses — the store wrote it
                well-formed, so that is storage damage, not bad input.
        """
        cached = self._cache.get(doc_id)
        if cached is not None:
            self._cache.move_to_end(doc_id)
            return cached
        try:
            document = parse_xml(self.get_source(doc_id), doc_id=doc_id)
        except XMLSyntaxError as exc:
            raise RecordError(
                f"record of document {doc_id} is damaged: {exc}"
            ) from exc
        self._cache_put(doc_id, document)
        return document

    def record_locations(self) -> list[tuple[int, int, int]]:
        """``(doc_id, page_id, slot)`` for every live document, in
        ``doc_id`` order — everything a shard-build worker needs to
        :meth:`attach` to this store's (flushed) pages file and read the
        sources itself, instead of the coordinator shipping the bytes
        through the task pickle."""
        return [
            (doc_id, pointer.page_id, pointer.slot)
            for doc_id, pointer in enumerate(self._directory)
            if pointer is not None
        ]

    @classmethod
    def attach(
        cls,
        pages_path: str,
        page_size: int,
        records: "list[tuple[int, int, int]] | tuple[tuple[int, int, int], ...]",
        *,
        page_cache_pages: int | None = None,
        cache_documents: int = 64,
    ) -> "PrimaryXMLStore":
        """Reattach to an already-written pages file from a directory of
        :meth:`record_locations` triples (no ``primary.json`` needed —
        the spill-build counterpart of :meth:`load`, used by shard-build
        worker processes).  The caller must not write through this store
        while the owning process keeps its own pager open.

        Raises:
            PageError: unreadable or truncated pages file.
        """
        pager_options = (
            {} if page_cache_pages is None else {"cache_pages": page_cache_pages}
        )
        pager = Pager(pages_path, page_size=page_size, **pager_options)
        store = cls(pager, cache_documents=cache_documents)
        for doc_id, page_id, slot in records:
            while len(store._directory) <= doc_id:
                store._directory.append(None)
            store._directory[doc_id] = RecordPointer(page_id, slot)
        return store

    def resolve(self, pointer: NodePointer) -> Element:
        """Return the element a pointer addresses.

        Raises:
            RecordError: for unknown documents or non-element node ids.
        """
        document = self.get_document(pointer.doc_id)
        try:
            return document.element_at(pointer.node_id)
        except KeyError as exc:
            raise RecordError(
                f"document {pointer.doc_id} has no element {pointer.node_id}"
            ) from exc

    def size_bytes(self) -> int:
        """Bytes consumed by the underlying pages."""
        return self._pager.size_bytes()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, directory: str) -> None:
        """Persist the store into ``directory`` (pages + directory file)."""
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        self._pager.copy_to(os.path.join(directory, "primary.pages"))
        manifest = {
            "page_size": self._pager.page_size,
            "documents": [
                [p.page_id, p.slot] if p is not None else None
                for p in self._directory
            ],
        }
        with open(
            os.path.join(directory, "primary.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle)

    @classmethod
    def load(
        cls,
        directory: str,
        cache_documents: int = 64,
        page_cache_pages: int | None = None,
    ) -> "PrimaryXMLStore":
        """Reattach to a store previously :meth:`save`\\ d.

        ``page_cache_pages`` bounds the reattached pager's buffer pool
        (default: the pager's own default capacity).

        Raises:
            RecordError: when the directory does not hold a saved store,
                or its manifest is undecodable, lacks a well-typed
                ``page_size`` / ``documents``, or has an entry that is
                neither ``null`` nor two non-negative integers.
        """
        import json
        import os

        manifest_path = os.path.join(directory, "primary.json")
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError as exc:
            raise RecordError(f"no saved store at {directory!r}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RecordError(
                f"corrupt store manifest at {manifest_path!r}: {exc}"
            ) from exc

        def whole(value) -> bool:
            return type(value) is int and value >= 0

        if not isinstance(manifest, dict):
            manifest = {}
        page_size, documents = manifest.get("page_size"), manifest.get("documents")
        if not whole(page_size) or not isinstance(documents, list):
            raise RecordError(
                f"store manifest at {manifest_path!r} has a missing or "
                "ill-typed page_size or documents section"
            )
        directory_entries: list[RecordPointer | None] = []
        for doc_id, entry in enumerate(documents):
            if entry is None:
                directory_entries.append(None)
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and whole(entry[0])
                and whole(entry[1])
            ):
                directory_entries.append(RecordPointer(entry[0], entry[1]))
            else:
                raise RecordError(
                    f"store manifest at {manifest_path!r}: document {doc_id} "
                    f"has an invalid record pointer {entry!r}"
                )
        pager_options = (
            {} if page_cache_pages is None else {"cache_pages": page_cache_pages}
        )
        pager = Pager(
            os.path.join(directory, "primary.pages"),
            page_size=page_size,
            **pager_options,
        )
        store = cls(pager, cache_documents=cache_documents)
        store._directory = directory_entries
        return store

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _cache_put(self, doc_id: int, document: Document) -> None:
        self._cache[doc_id] = document
        self._cache.move_to_end(doc_id)
        while len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)
