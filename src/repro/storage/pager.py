"""Fixed-size page manager with an mmap-backed bounded buffer pool.

All persistent structures (record files, the B+tree) allocate and access
pages exclusively through a :class:`Pager`.  The pager counts *logical*
accesses and *physical* (cache-miss) accesses separately; the experiment
harness uses these counters to report I/O behaviour — e.g. the clustered
index's sequential advantage — independently of wall-clock noise.

A pager can be file-backed or purely in-memory (``path=None``).  The
in-memory mode still goes through the same buffer-pool accounting, so
benchmarks measuring page-touch counts behave identically; it never
evicts (there is nothing to evict *to*).

File-backed pagers are the out-of-core substrate (DESIGN.md §11):

* **Reads** that miss the pool are served from a shared read-only
  ``mmap`` of the backing file — the kernel's page cache is the second
  cache tier, and residency is bounded by the pool, not the file size.
  Pages past the mapped region (allocated but not yet written back)
  fall back to ``pread`` with zero-extension.
* **The buffer pool is bounded** at ``cache_pages`` frames with LRU
  eviction.  Evicting a dirty frame writes it back first (the map is
  ``MAP_SHARED`` over the same file, so a later miss re-reads exactly
  what was evicted).  Pinned frames (:meth:`pin`) are skipped by the
  eviction scan, which lets callers mutate a page buffer in place
  across intervening pager calls and then :meth:`mark_dirty` it.
* **Counters** — hits, misses, evictions — publish into a ``repro.obs``
  registry under ``pager.*`` (:meth:`PagerStats.publish`), so ``repro
  stats`` and ``repro trace`` can show pool residency behaviour.
"""

from __future__ import annotations

import mmap
import os
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import PageError
from repro.obs.registry import CounterBlock

#: Default page size in bytes.  4 KiB matches the paper-era commodity
#: filesystem block size the original Berkeley DB deployment would use.
PAGE_SIZE = 4096

#: Default buffer-pool capacity in pages (1 MiB at the default page
#: size) — the value ``FixIndexConfig.page_cache_pages`` defaults to.
DEFAULT_CACHE_PAGES = 256


@dataclass
class PagerStats(CounterBlock):
    """Access counters, all monotonically increasing.

    Attributes:
        logical_reads: every ``read`` call.
        physical_reads: reads that missed the buffer pool.
        logical_writes: every ``write`` call.
        physical_writes: dirty-page evictions plus final flush writes.
        allocations: pages ever allocated.
        evictions: frames pushed out of the bounded pool (clean or
            dirty; dirty evictions also count a physical write).
    """

    PREFIX = "pager."

    logical_reads: int = 0
    physical_reads: int = 0
    logical_writes: int = 0
    physical_writes: int = 0
    allocations: int = 0
    evictions: int = 0

    @property
    def cache_hits(self) -> int:
        """Reads served from the pool."""
        return self.logical_reads - self.physical_reads

    @property
    def hit_rate(self) -> float:
        """Pool hit rate over all logical reads (0.0 when idle)."""
        return self.cache_hits / self.logical_reads if self.logical_reads else 0.0

    def publish(self, registry, prefix: str = PREFIX) -> None:
        """The counters, plus the derived ``cache_hits`` counter and
        ``hit_rate`` gauge.

        Aggregated totals (``combine``) stay monotone as long as the
        same pager set is summed each time, which is how the index-level
        publishers use this."""
        super().publish(registry, prefix)
        registry.sync_counter(prefix + "cache_hits", self.cache_hits)
        registry.gauge(prefix + "hit_rate").set(self.hit_rate)


@dataclass
class _Frame:
    data: bytearray
    dirty: bool = field(default=False)
    pins: int = field(default=0)


class Pager:
    """Page allocator and bounded buffer pool.

    Args:
        path: backing file path, or ``None`` for a purely in-memory pager.
        page_size: bytes per page.
        cache_pages: buffer-pool capacity in pages; only meaningful for
            file-backed pagers (the in-memory pager keeps everything).
    """

    def __init__(
        self,
        path: str | None = None,
        page_size: int = PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        if page_size < 64:
            raise PageError(f"page size {page_size} too small")
        if cache_pages < 1:
            raise PageError(f"need at least one cache page, got {cache_pages}")
        self.page_size = page_size
        self.stats = PagerStats()
        self._path = path
        self._cache_pages = cache_pages
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._page_count = 0
        self._closed = False
        self._map: mmap.mmap | None = None
        self._map_pages = 0
        self._map_touches = 0
        if path is None:
            self._fd: int | None = None
        else:
            self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            size = os.fstat(self._fd).st_size
            if size % page_size:
                raise PageError(
                    f"file size {size} is not a multiple of page size {page_size}"
                )
            self._page_count = size // page_size

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return self._page_count

    @property
    def in_memory(self) -> bool:
        """True when there is no backing file."""
        return self._fd is None

    @property
    def path(self) -> str | None:
        """The backing file path (``None`` for in-memory pagers).
        Build workers use it to reopen a spilled store read-only in
        another process after the coordinator flushes."""
        return self._path

    @property
    def cache_pages(self) -> int:
        """Buffer-pool capacity in pages."""
        return self._cache_pages

    @property
    def resident_pages(self) -> int:
        """Frames currently held by the buffer pool."""
        return len(self._frames)

    def allocate(self) -> int:
        """Allocate a fresh zeroed page and return its id."""
        self._check_open()
        page_id = self._page_count
        self._page_count += 1
        self.stats.allocations += 1
        self._install(page_id, bytearray(self.page_size), dirty=True)
        return page_id

    def read(self, page_id: int) -> bytearray:
        """Return the page contents (a live buffer; mutate then ``write``
        or :meth:`mark_dirty` — pin the page first when other pager calls
        can happen in between, or the frame may be evicted).

        Raises:
            PageError: for out-of-range ids.
        """
        self._check_open()
        self._check_range(page_id)
        self.stats.logical_reads += 1
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            return frame.data
        self.stats.physical_reads += 1
        data = self._read_backing(page_id)
        self._install(page_id, data, dirty=False)
        return data

    def write(self, page_id: int, data: bytes | bytearray) -> None:
        """Replace the page contents.

        Raises:
            PageError: for out-of-range ids or wrong-sized data.
        """
        self._check_open()
        self._check_range(page_id)
        if len(data) != self.page_size:
            raise PageError(
                f"write of {len(data)} bytes to page of {self.page_size}"
            )
        self.stats.logical_writes += 1
        buffer = data if isinstance(data, bytearray) else bytearray(data)
        self._install(page_id, buffer, dirty=True)

    def mark_dirty(self, page_id: int) -> None:
        """Mark an in-pool page as modified in place (after mutating the
        buffer returned by :meth:`read`)."""
        self._check_open()
        frame = self._frames.get(page_id)
        if frame is None:
            raise PageError(f"page {page_id} not resident; read it first")
        frame.dirty = True
        self.stats.logical_writes += 1

    def pin(self, page_id: int) -> "_PinGuard":
        """Pin a resident page so eviction skips it (context manager).

        Use around read-mutate-``mark_dirty`` sequences that perform
        other pager calls in between::

            with pager.pin(page_id):
                buffer = pager.read(page_id)
                ...  # other reads/allocations may evict unpinned frames
                pager.mark_dirty(page_id)

        Raises:
            PageError: when the page is not resident (read it first) or
                out of range.
        """
        self._check_open()
        self._check_range(page_id)
        frame = self._frames.get(page_id)
        if frame is None:
            raise PageError(f"page {page_id} not resident; read it first")
        frame.pins += 1
        return _PinGuard(self, page_id)

    def _unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is not None and frame.pins > 0:
            frame.pins -= 1

    def flush(self) -> None:
        """Write every dirty page to the backing file (no-op in memory)."""
        self._check_open()
        if self._fd is None:
            return
        for page_id, frame in self._frames.items():
            if frame.dirty:
                self._write_backing(page_id, frame.data)
                frame.dirty = False

    def close(self) -> None:
        """Flush and release the backing file."""
        if self._closed:
            return
        self.flush()
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._closed = True

    def size_bytes(self) -> int:
        """Total size of the paged store in bytes."""
        return self._page_count * self.page_size

    def copy_to(self, path: str) -> None:
        """Materialize every page into a file at ``path``.

        Used to persist in-memory pagers (flush dirty frames first when
        copying a file-backed pager so the copy is current).  Copying a
        file-backed pager onto its own backing file degenerates to a
        flush — the pages are already exactly where they belong.
        """
        self.flush()
        if self._path is not None:
            try:
                if os.path.exists(path) and os.path.samefile(self._path, path):
                    return
            except OSError:
                pass
        with open(path, "wb") as handle:
            for page_id in range(self._page_count):
                handle.write(bytes(self.read(page_id)))

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise PageError("pager is closed")

    def _check_range(self, page_id: int) -> None:
        if not 0 <= page_id < self._page_count:
            raise PageError(
                f"page {page_id} out of range (have {self._page_count} pages)"
            )

    def _install(self, page_id: int, data: bytearray, dirty: bool) -> None:
        frame = self._frames.get(page_id)
        if frame is not None:
            frame.data = data
            frame.dirty = frame.dirty or dirty
            self._frames.move_to_end(page_id)
        else:
            self._frames[page_id] = _Frame(data, dirty)
        self._evict_if_needed()

    def _evict_if_needed(self) -> None:
        if self._fd is None:
            return  # in-memory pager keeps everything resident
        overflow = len(self._frames) - self._cache_pages
        if overflow <= 0:
            return
        # LRU sweep from the cold end; pinned frames are skipped (they
        # rotate to the hot end so the sweep terminates).
        scanned = 0
        limit = len(self._frames)
        while overflow > 0 and scanned < limit:
            victim_id, victim = next(iter(self._frames.items()))
            scanned += 1
            if victim.pins > 0:
                self._frames.move_to_end(victim_id)
                continue
            del self._frames[victim_id]
            if victim.dirty:
                self._write_backing(victim_id, victim.data)
            self.stats.evictions += 1
            overflow -= 1

    def _read_backing(self, page_id: int) -> bytearray:
        if self._fd is None:
            # In-memory pager: a miss can only mean the frame was never
            # created, which _install prevents; treat as zero page.
            return bytearray(self.page_size)
        if page_id >= self._map_pages:
            self._remap()
        if page_id < self._map_pages:
            offset = page_id * self.page_size
            assert self._map is not None
            data = bytearray(self._map[offset : offset + self.page_size])
            self._map_touches += 1
            if self._map_touches >= 4 * self._cache_pages:
                self._advise_cold()
            return data
        # Past the mapped region even after remap: allocated but never
        # written back (or truncated by a crash) — zero-extend.
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) < self.page_size:
            data = data.ljust(self.page_size, b"\x00")
        return bytearray(data)

    def _remap(self) -> None:
        """(Re)map the backing file read-only to its current size."""
        assert self._fd is not None
        size = os.fstat(self._fd).st_size
        pages = size // self.page_size
        if pages <= self._map_pages:
            return
        if self._map is not None:
            self._map.close()
            self._map = None
            self._map_pages = 0
        self._map = mmap.mmap(
            self._fd, pages * self.page_size, access=mmap.ACCESS_READ
        )
        self._map_pages = pages

    def _advise_cold(self) -> None:
        """Drop the mapping's resident pages back to the OS.

        The frame cache is the buffer pool; letting the read mapping
        accumulate every touched file page would grow RSS with corpus
        size regardless of ``cache_pages``.  MADV_DONTNEED on a
        read-only file mapping discards nothing — dropped pages fault
        back in from the page cache / disk on the next miss.
        """
        self._map_touches = 0
        if self._map is None or not hasattr(mmap, "MADV_DONTNEED"):
            return
        try:
            self._map.madvise(mmap.MADV_DONTNEED)
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def _write_backing(self, page_id: int, data: bytearray) -> None:
        assert self._fd is not None
        os.pwrite(self._fd, bytes(data), page_id * self.page_size)
        self.stats.physical_writes += 1


class _PinGuard:
    """Context manager returned by :meth:`Pager.pin`."""

    __slots__ = ("_pager", "_page_id")

    def __init__(self, pager: Pager, page_id: int) -> None:
        self._pager = pager
        self._page_id = page_id

    def __enter__(self) -> "_PinGuard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pager._unpin(self._page_id)
