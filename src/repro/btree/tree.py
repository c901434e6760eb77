"""A B+tree over pager pages.

Design notes:

* **Byte keys.** Keys and values are opaque byte strings; ordering is
  memcmp.  Composite-key encodings live in :mod:`repro.btree.keys`.
* **Duplicates.** Equal keys may appear many times (FIX inserts one entry
  per element, and many elements share a feature key on regular data).
  Inserts route equal keys right; scans route left, so a range scan
  starting at ``k`` always finds the first of ``k``'s duplicates even
  when a split straddled them.
* **Buffering.** Nodes are kept as parsed Python objects in a node table
  and serialized to their pages on :meth:`flush` (or when persisting).
  The tree counts node visits (``stats.node_visits``) as the
  implementation-independent I/O proxy used by the benchmarks; after a
  flush, every node occupies exactly one page, so ``size_bytes`` is a
  faithful on-disk footprint.
* **Split policy.** A node splits when its serialized form no longer fits
  a page; the split is by entry count, which is near-byte-balanced
  because FIX keys are similar lengths.
* **Deletes** are lazy (no rebalancing): the workloads here are
  build-once/query-many, exactly the paper's setting, but delete support
  keeps the structure honest as a general index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import BTreeError
from repro.btree.node import (
    INTERNAL_BASE_SIZE,
    INTERNAL_ENTRY_OVERHEAD,
    LEAF_BASE_SIZE,
    LEAF_ENTRY_OVERHEAD,
    NO_LEAF,
    InternalNode,
    LeafNode,
    deserialize_node,
)
from repro.obs.registry import CounterBlock
from repro.storage.pager import Pager


@dataclass
class BTreeStats(CounterBlock):
    """Operation counters (monotonic)."""

    PREFIX = "btree."

    node_visits: int = 0
    leaf_scans: int = 0
    splits: int = 0
    inserts: int = 0
    deletes: int = 0
    node_evictions: int = 0


@dataclass
class _Slot:
    node: LeafNode | InternalNode
    dirty: bool = field(default=True)


class BPlusTree:
    """B+tree with duplicate keys over a :class:`Pager`.

    Args:
        pager: backing pager (in-memory by default).
        node_cache: maximum parsed nodes kept resident, or ``None`` for
            an unbounded table (the historical behavior — right for
            in-memory trees, where evicting would only add re-parse
            work).  With a bound, cold nodes are LRU-evicted: dirty
            ones are serialized to their page first, so with a
            file-backed pager the tree operates out of core.
    """

    def __init__(
        self, pager: Pager | None = None, node_cache: int | None = None
    ) -> None:
        if node_cache is not None and node_cache < 1:
            raise BTreeError(f"node_cache must be >= 1, got {node_cache}")
        self._pager = pager if pager is not None else Pager()
        self.stats = BTreeStats()
        self._nodes: "OrderedDict[int, _Slot]" = OrderedDict()
        self._node_cache = node_cache
        # Mutating operations hold parsed node objects as locals across
        # nested node-table calls; eviction is deferred while > 0 so a
        # held node cannot be serialized mid-mutation (its slot must
        # also stay resident for ``_dirty``).
        self._hold = 0
        self._entry_count = 0
        root = LeafNode()
        self._root_page = self._adopt(root)
        # Largest key+value pair we accept: a quarter page, so a split of
        # any overfull node always produces two fitting halves.
        self._max_pair = self._pager.page_size // 4

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def pager(self) -> Pager:
        """Backing pager (exposed for size/I/O accounting)."""
        return self._pager

    @property
    def root_page(self) -> int:
        """Current root page id (changes when the root splits)."""
        return self._root_page

    def __len__(self) -> int:
        return self._entry_count

    def height(self) -> int:
        """Levels from root to leaf (a lone leaf root has height 1)."""
        levels = 1
        node = self._node(self._root_page, count=False)
        while isinstance(node, InternalNode):
            levels += 1
            node = self._node(node.children[0], count=False)
        return levels

    def node_count(self) -> int:
        """Number of *resident* (parsed) nodes.  Equals the page count
        for a freshly built tree; a reopened tree faults nodes in
        lazily, so use :meth:`size_bytes` for the on-disk footprint."""
        return len(self._nodes)

    def size_bytes(self) -> int:
        """On-disk footprint: every allocated page (one per node)."""
        return self._pager.size_bytes()

    # ------------------------------------------------------------------ #
    # Insert
    # ------------------------------------------------------------------ #

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert one ``(key, value)`` entry; duplicates accumulate."""
        if len(key) + len(value) > self._max_pair:
            raise BTreeError(
                f"entry of {len(key) + len(value)} bytes exceeds the "
                f"{self._max_pair}-byte pair limit"
            )
        self.stats.inserts += 1
        self._hold += 1
        try:
            split = self._insert_into(self._root_page, key, value)
            if split is not None:
                separator, right_page = split
                new_root = InternalNode([separator], [self._root_page, right_page])
                self._root_page = self._adopt(new_root)
        finally:
            self._hold -= 1
        self._evict_nodes()
        self._entry_count += 1

    def _insert_into(
        self, page_id: int, key: bytes, value: bytes
    ) -> tuple[bytes, int] | None:
        """Recursive insert; returns ``(separator, new_right_page)`` when
        the target node split, else ``None``."""
        node = self._node(page_id)
        if isinstance(node, LeafNode):
            position = bisect_right(node.keys, key)
            node.keys.insert(position, key)
            node.values.insert(position, value)
            self._dirty(page_id)
            if node.serialized_size() > self._pager.page_size:
                return self._split_leaf(page_id, node)
            return None
        child_index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right_page = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right_page)
        self._dirty(page_id)
        if node.serialized_size() > self._pager.page_size:
            return self._split_internal(page_id, node)
        return None

    def _split_leaf(self, page_id: int, node: LeafNode) -> tuple[bytes, int]:
        self.stats.splits += 1
        middle = len(node.keys) // 2
        right = LeafNode(node.keys[middle:], node.values[middle:], node.next_leaf)
        right_page = self._adopt(right)
        del node.keys[middle:]
        del node.values[middle:]
        node.next_leaf = right_page
        self._dirty(page_id)
        return right.keys[0], right_page

    def _split_internal(self, page_id: int, node: InternalNode) -> tuple[bytes, int]:
        self.stats.splits += 1
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = InternalNode(node.keys[middle + 1 :], node.children[middle + 1 :])
        right_page = self._adopt(right)
        del node.keys[middle:]
        del node.children[middle + 1 :]
        self._dirty(page_id)
        return separator, right_page

    # ------------------------------------------------------------------ #
    # Bulk load
    # ------------------------------------------------------------------ #

    @classmethod
    def bulk_load(
        cls,
        pairs: list[tuple[bytes, bytes]],
        pager: Pager | None = None,
        fill_factor: float = 0.9,
        node_cache: int | None = None,
    ) -> "BPlusTree":
        """Build a tree bottom-up from **key-sorted** pairs.

        Leaves are packed to ``fill_factor`` of a page and chained, then
        internal levels are packed the same way — the standard sorted
        bulk load, used by the clustered index construction (whose
        entries are already sorted for the copy store).

        A leaf is installed into the node table only once its
        ``next_leaf`` link is final (the successor's page is allocated
        the moment a leaf closes), so a bounded ``node_cache`` may
        evict it immediately — page allocation order, and therefore the
        on-disk layout, is identical to the unbounded build.

        Raises:
            BTreeError: when ``pairs`` is not sorted by key.
        """
        tree = cls(pager, node_cache=node_cache)
        if not pairs:
            return tree
        for i in range(len(pairs) - 1):
            if pairs[i][0] > pairs[i + 1][0]:
                raise BTreeError("bulk_load requires key-sorted input")
        budget = int(tree._pager.page_size * fill_factor)

        # Pack leaves left to right.  ``full`` defers closing an
        # overfull leaf until the next pair proves a successor exists,
        # so the tail leaf keeps ``next_leaf = NO_LEAF`` without ever
        # allocating a page for an empty successor.
        level: list[tuple[int, bytes]] = []  # (page_id, first key) per node
        current = LeafNode()
        current_page = tree._pager.allocate()
        size = LEAF_BASE_SIZE  # running ``current.serialized_size()``
        full = False
        for key, value in pairs:
            if len(key) + len(value) > tree._max_pair:
                raise BTreeError(
                    f"entry of {len(key) + len(value)} bytes exceeds the "
                    f"{tree._max_pair}-byte pair limit"
                )
            if full:
                next_page = tree._pager.allocate()
                current.next_leaf = next_page
                level.append((current_page, current.keys[0]))
                tree._install(current_page, current)
                current = LeafNode()
                current_page = next_page
                size = LEAF_BASE_SIZE
                full = False
            current.keys.append(key)
            current.values.append(value)
            size += LEAF_ENTRY_OVERHEAD + len(key) + len(value)
            if size > budget:
                full = True
        level.append((current_page, current.keys[0]))
        tree._install(current_page, current)

        # Reuse the root page allocated by __init__ for the final root.
        spare_root_page = tree._root_page

        # Build internal levels.
        while len(level) > 1:
            parents: list[tuple[int, bytes]] = []
            index = 0
            while index < len(level):
                node = InternalNode([], [level[index][0]])
                first_key = level[index][1]
                size = INTERNAL_BASE_SIZE  # running ``node.serialized_size()``
                index += 1
                while index < len(level):
                    page_id, key = level[index]
                    size += INTERNAL_ENTRY_OVERHEAD + len(key)
                    if size > budget:
                        break
                    node.keys.append(key)
                    node.children.append(page_id)
                    index += 1
                parents.append((tree._adopt(node), first_key))
            level = parents
        final_page, _ = level[0]
        # Swap the built root into the pre-allocated root page so open()
        # semantics stay simple (root never moves after a bulk load).
        # With a bounded node table, the final node may already have
        # been evicted to its page; fault it back for the move.
        slot = tree._nodes.pop(final_page, None)
        if slot is not None:
            root_node = slot.node
        else:
            root_node = deserialize_node(tree._pager.read(final_page))
        tree._install(spare_root_page, root_node)
        tree._root_page = spare_root_page
        tree._entry_count = len(pairs)
        return tree

    # ------------------------------------------------------------------ #
    # Lookup and scans
    # ------------------------------------------------------------------ #

    def search(self, key: bytes) -> list[bytes]:
        """All values stored under exactly ``key``."""
        return [value for _, value in self.scan(start=key, end=key + b"\x00")]

    def scan(
        self,
        start: bytes | None = None,
        end: bytes | None = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``start <= key < end`` in order.

        ``None`` bounds are open.  This walks the linked leaf chain, so a
        scan's node visits are its leaf touches plus one root-to-leaf
        descent.
        """
        page_id = self._leaf_for(start)
        position = None
        while page_id != NO_LEAF:
            node = self._node(page_id)
            if not isinstance(node, LeafNode):  # pragma: no cover - defensive
                raise BTreeError(f"page {page_id} in leaf chain is not a leaf")
            self.stats.leaf_scans += 1
            if position is None:
                position = 0 if start is None else bisect_left(node.keys, start)
            while position < len(node.keys):
                key = node.keys[position]
                if end is not None and key >= end:
                    return
                yield key, node.values[position]
                position += 1
            page_id = node.next_leaf
            position = 0

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Every entry in key order."""
        return self.scan()

    def _leaf_for(self, key: bytes | None) -> int:
        """Descend to the leaf that may contain the first key >= ``key``."""
        page_id = self._root_page
        node = self._node(page_id)
        while isinstance(node, InternalNode):
            if key is None:
                page_id = node.children[0]
            else:
                # bisect_left: when key equals a separator, go left — a
                # split may have left equal keys in the left sibling.
                page_id = node.children[bisect_left(node.keys, key)]
            node = self._node(page_id)
        return page_id

    # ------------------------------------------------------------------ #
    # Delete
    # ------------------------------------------------------------------ #

    def delete(self, key: bytes, value: bytes | None = None) -> bool:
        """Remove one entry with ``key`` (and ``value``, when given).

        Lazy deletion: nodes may underflow; structure is untouched.
        Returns ``True`` when an entry was removed.
        """
        self._hold += 1
        try:
            return self._delete_held(key, value)
        finally:
            self._hold -= 1
            self._evict_nodes()

    def _delete_held(self, key: bytes, value: bytes | None) -> bool:
        page_id = self._leaf_for(key)
        while page_id != NO_LEAF:
            node = self._node(page_id)
            assert isinstance(node, LeafNode)
            position = bisect_left(node.keys, key)
            while position < len(node.keys) and node.keys[position] == key:
                if value is None or node.values[position] == value:
                    del node.keys[position]
                    del node.values[position]
                    self._dirty(page_id)
                    self._entry_count -= 1
                    self.stats.deletes += 1
                    return True
                position += 1
            if position < len(node.keys):
                return False  # passed all duplicates of `key`
            page_id = node.next_leaf
        return False

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Serialize every dirty node to its page and flush the pager."""
        for page_id, slot in self._nodes.items():
            if slot.dirty:
                self._pager.write(page_id, slot.node.serialize(self._pager.page_size))
                slot.dirty = False
        self._pager.flush()

    @classmethod
    def open(
        cls,
        pager: Pager,
        root_page: int,
        entry_count: int,
        node_cache: int | None = None,
    ) -> "BPlusTree":
        """Reattach to a tree previously :meth:`flush`\\ ed to ``pager``."""
        if node_cache is not None and node_cache < 1:
            raise BTreeError(f"node_cache must be >= 1, got {node_cache}")
        tree = cls.__new__(cls)
        tree._pager = pager
        tree.stats = BTreeStats()
        tree._nodes = OrderedDict()
        tree._node_cache = node_cache
        tree._hold = 0
        tree._root_page = root_page
        tree._entry_count = entry_count
        tree._max_pair = pager.page_size // 4
        return tree

    # ------------------------------------------------------------------ #
    # Node table
    # ------------------------------------------------------------------ #

    def _adopt(self, node: LeafNode | InternalNode) -> int:
        page_id = self._pager.allocate()
        self._install(page_id, node)
        return page_id

    def _install(self, page_id: int, node: LeafNode | InternalNode) -> None:
        self._nodes[page_id] = _Slot(node, dirty=True)
        self._nodes.move_to_end(page_id)
        self._evict_nodes()

    def _node(self, page_id: int, count: bool = True) -> LeafNode | InternalNode:
        if count:
            self.stats.node_visits += 1
        slot = self._nodes.get(page_id)
        if slot is None:
            node = deserialize_node(self._pager.read(page_id))
            slot = _Slot(node, dirty=False)
            self._nodes[page_id] = slot
            self._evict_nodes()
        else:
            self._nodes.move_to_end(page_id)
        return slot.node

    def _dirty(self, page_id: int) -> None:
        self._nodes[page_id].dirty = True

    def _evict_nodes(self) -> None:
        """Trim the node table to ``node_cache`` entries, coldest first.
        Deferred while a mutating operation holds node objects."""
        if self._node_cache is None or self._hold:
            return
        while len(self._nodes) > self._node_cache:
            page_id, slot = self._nodes.popitem(last=False)
            if slot.dirty:
                self._pager.write(
                    page_id, slot.node.serialize(self._pager.page_size)
                )
            self.stats.node_evictions += 1

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`BTreeError` on
        violation.  Used by tests and available for debugging."""
        # 1. Keys globally sorted along the leaf chain and count matches.
        previous: bytes | None = None
        seen = 0
        page_id = self._leftmost_leaf()
        while page_id != NO_LEAF:
            node = self._node(page_id, count=False)
            assert isinstance(node, LeafNode)
            for key in node.keys:
                if previous is not None and key < previous:
                    raise BTreeError("leaf chain keys out of order")
                previous = key
                seen += 1
            page_id = node.next_leaf
        if seen != self._entry_count:
            raise BTreeError(
                f"entry count {self._entry_count} != {seen} entries in leaves"
            )
        # 2. Separator bounds hold on every internal node.
        self._check_subtree(self._root_page, None, None)

    def _leftmost_leaf(self) -> int:
        page_id = self._root_page
        node = self._node(page_id, count=False)
        while isinstance(node, InternalNode):
            page_id = node.children[0]
            node = self._node(page_id, count=False)
        return page_id

    def _check_subtree(
        self, page_id: int, low: bytes | None, high: bytes | None
    ) -> None:
        node = self._node(page_id, count=False)
        if isinstance(node, LeafNode):
            for key in node.keys:
                if low is not None and key < low:
                    raise BTreeError("leaf key below subtree lower bound")
                if high is not None and key > high:
                    raise BTreeError("leaf key above subtree upper bound")
            return
        keys = node.keys
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise BTreeError("internal node keys out of order")
        for i, child in enumerate(node.children):
            child_low = low if i == 0 else keys[i - 1]
            child_high = high if i == len(keys) else keys[i]
            self._check_subtree(child, child_low, child_high)
