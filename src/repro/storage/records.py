"""Slotted-page record files with overflow chaining.

Layout of a data page::

    [u16 slot_count][u16 free_offset] [slot directory: u16 offset, u16 length]*
    ... free space ...
    [record payloads packed from the end of the page]

Records larger than a page's capacity are split across a chain of
*overflow* pages; the head segment stores a continuation page id.  A
:class:`RecordPointer` is ``(page_id, slot)`` — stable for as long as
the record is live (FIX never updates in place).  A record passed to
:meth:`RecordFile.release` is dead; a page holding only dead records is
overwritten by later appends instead of a fresh page being allocated,
so a store under add/remove churn stops growing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import RecordError
from repro.storage.pager import Pager

_HEADER = struct.Struct("<HH")  # slot_count, free_offset
_SLOT = struct.Struct("<HH")  # payload offset, payload length
# Head segment prefix: total length (u32) and continuation page (u32,
# 0xFFFFFFFF = none).  Payload bytes follow.
_SEGMENT = struct.Struct("<II")
_NO_PAGE = 0xFFFFFFFF


@dataclass(frozen=True, slots=True, order=True)
class RecordPointer:
    """Stable address of a stored record."""

    page_id: int
    slot: int

    def pack(self) -> bytes:
        """8-byte fixed encoding (used as a B-tree value)."""
        return struct.pack("<II", self.page_id, self.slot)

    @classmethod
    def unpack(cls, data: bytes) -> "RecordPointer":
        page_id, slot = struct.unpack("<II", data)
        return cls(page_id, slot)


class RecordFile:
    """Append-oriented record store over a :class:`Pager`.

    Multiple record files can share one pager as long as each keeps to
    its own pages, which they do by construction (pages are handed out by
    the pager's allocator).
    """

    def __init__(self, pager: Pager) -> None:
        self._pager = pager
        self._current_page: int | None = None
        self._record_count = 0
        #: live head segments per page appended to through this handle
        #: (pages of a reattached file are unknown here and never
        #: reused), and the pages whose records have all been released.
        self._live: dict[int, int] = {}
        self._free_pages: list[int] = []

    @property
    def record_count(self) -> int:
        """Number of records appended through this handle."""
        return self._record_count

    # ------------------------------------------------------------------ #
    # Append
    # ------------------------------------------------------------------ #

    def append(self, payload: bytes) -> RecordPointer:
        """Store ``payload`` and return its pointer."""
        head, continuation = self._split(payload)
        pointer = self._append_segment(head, len(payload), continuation)
        self._record_count += 1
        return pointer

    def _split(self, payload: bytes) -> tuple[bytes, int]:
        """Carve overflow pages off the tail of an oversized payload.

        Returns the head chunk plus the id of the first overflow page
        (or ``_NO_PAGE``).  Overflow pages are raw: 4-byte next-page id
        then data.
        """
        capacity = self._head_capacity()
        if len(payload) <= capacity:
            return payload, _NO_PAGE
        head, rest = payload[:capacity], payload[capacity:]
        chunk_size = self._pager.page_size - 4
        chunks = [rest[i : i + chunk_size] for i in range(0, len(rest), chunk_size)]
        next_page = _NO_PAGE
        for chunk in reversed(chunks):
            page_id = self._fresh_page()
            buffer = bytearray(self._pager.page_size)
            struct.pack_into("<I", buffer, 0, next_page)
            buffer[4 : 4 + len(chunk)] = chunk
            self._pager.write(page_id, buffer)
            next_page = page_id
        return head, next_page

    def _head_capacity(self) -> int:
        """Maximum head-segment payload that always fits a fresh page."""
        return (
            self._pager.page_size
            - _HEADER.size
            - _SLOT.size
            - _SEGMENT.size
        )

    def _append_segment(
        self, head: bytes, total_length: int, continuation: int
    ) -> RecordPointer:
        needed = _SLOT.size + _SEGMENT.size + len(head)
        page_id = self._current_page
        if page_id is None or self._free_space(page_id) < needed:
            if page_id is not None and not self._live[page_id]:
                # Emptied while it was the append target.
                del self._live[page_id]
                self._free_pages.append(page_id)
            page_id = self._fresh_page()
            buffer = bytearray(self._pager.page_size)
            _HEADER.pack_into(buffer, 0, 0, self._pager.page_size)
            self._pager.write(page_id, buffer)
            self._current_page = page_id
        buffer = self._pager.read(page_id)
        slot_count, free_offset = _HEADER.unpack_from(buffer, 0)
        payload_length = _SEGMENT.size + len(head)
        start = free_offset - payload_length
        _SEGMENT.pack_into(buffer, start, total_length, continuation)
        buffer[start + _SEGMENT.size : start + payload_length] = head
        slot_offset = _HEADER.size + slot_count * _SLOT.size
        _SLOT.pack_into(buffer, slot_offset, start, payload_length)
        _HEADER.pack_into(buffer, 0, slot_count + 1, start)
        self._pager.mark_dirty(page_id)
        self._live[page_id] = self._live.get(page_id, 0) + 1
        return RecordPointer(page_id, slot_count)

    def _fresh_page(self) -> int:
        """A page to overwrite from its first byte: one whose records
        were all released, else a newly allocated one."""
        if self._free_pages:
            return self._free_pages.pop()
        return self._pager.allocate()

    def release(self, pointer: RecordPointer) -> None:
        """Declare the record at ``pointer`` dead: the caller will never
        read it again.  Its overflow pages, and its head page once that
        holds no live record and is no longer the append target, become
        reusable by later appends.  A record that was not appended
        through this handle is left alone."""
        live = self._live.get(pointer.page_id)
        if live is None:
            return
        buffer = self._pager.read(pointer.page_id)
        offset, _ = _SLOT.unpack_from(
            buffer, _HEADER.size + pointer.slot * _SLOT.size
        )
        _, page_id = _SEGMENT.unpack_from(buffer, offset)
        while page_id != _NO_PAGE:
            self._free_pages.append(page_id)
            (page_id,) = struct.unpack_from("<I", self._pager.read(page_id), 0)
        if live > 1 or pointer.page_id == self._current_page:
            self._live[pointer.page_id] = live - 1
        else:
            del self._live[pointer.page_id]
            self._free_pages.append(pointer.page_id)

    def _free_space(self, page_id: int) -> int:
        buffer = self._pager.read(page_id)
        slot_count, free_offset = _HEADER.unpack_from(buffer, 0)
        directory_end = _HEADER.size + slot_count * _SLOT.size
        return free_offset - directory_end

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #

    def read(self, pointer: RecordPointer) -> bytes:
        """Fetch the full payload of a record.

        Raises:
            RecordError: for pointers that do not name a stored record.
        """
        try:
            buffer = self._pager.read(pointer.page_id)
        except Exception as exc:  # PageError
            raise RecordError(f"bad record pointer {pointer}: {exc}") from exc
        slot_count, _ = _HEADER.unpack_from(buffer, 0)
        if not 0 <= pointer.slot < slot_count:
            raise RecordError(
                f"page {pointer.page_id} has {slot_count} slots, "
                f"no slot {pointer.slot}"
            )
        offset, length = _SLOT.unpack_from(
            buffer, _HEADER.size + pointer.slot * _SLOT.size
        )
        total_length, continuation = _SEGMENT.unpack_from(buffer, offset)
        parts = [bytes(buffer[offset + _SEGMENT.size : offset + length])]
        got = length - _SEGMENT.size
        page_id = continuation
        while page_id != _NO_PAGE:
            overflow = self._pager.read(page_id)
            (page_id,) = struct.unpack_from("<I", overflow, 0)
            take = min(self._pager.page_size - 4, total_length - got)
            parts.append(bytes(overflow[4 : 4 + take]))
            got += take
        payload = b"".join(parts)
        if len(payload) != total_length:
            raise RecordError(
                f"record {pointer} truncated: expected {total_length} bytes, "
                f"got {len(payload)}"
            )
        return payload
