"""B+tree node layouts and page (de)serialization.

Leaf page::

    [u8 type=1][u16 n][u32 next_leaf][(u16 klen, u16 vlen)*n][keys+values packed]

Internal page::

    [u8 type=2][u16 n][u32 children]*(n+1) [(u16 klen)*n][keys packed]

An internal node with ``n`` separator keys has ``n + 1`` children;
child ``i`` holds keys ``< keys[i]`` (strictly, with duplicates of a
separator going right — see tree.py's routing rule).
"""

from __future__ import annotations

import struct

from repro.errors import BTreeError

LEAF_TYPE = 1
INTERNAL_TYPE = 2
NO_LEAF = 0xFFFFFFFF

_LEAF_HEADER = struct.Struct("<BHI")  # type, n, next_leaf
_LEAF_ENTRY = struct.Struct("<HH")  # key length, value length
_INTERNAL_HEADER = struct.Struct("<BH")  # type, n
_CHILD = struct.Struct("<I")
_KLEN = struct.Struct("<H")

#: serialized bytes of a leaf with no entries, and what an entry adds on
#: top of its key and value; the same for an internal node with one
#: child, and what each further (separator key, child) adds on top of
#: the key.  A bulk load keeps a running size from these.
LEAF_BASE_SIZE = _LEAF_HEADER.size
LEAF_ENTRY_OVERHEAD = _LEAF_ENTRY.size
INTERNAL_BASE_SIZE = _INTERNAL_HEADER.size + _CHILD.size
INTERNAL_ENTRY_OVERHEAD = _CHILD.size + _KLEN.size


class LeafNode:
    """A leaf holding sorted ``(key, value)`` byte pairs; duplicates allowed."""

    __slots__ = ("keys", "values", "next_leaf")

    def __init__(
        self,
        keys: list[bytes] | None = None,
        values: list[bytes] | None = None,
        next_leaf: int = NO_LEAF,
    ) -> None:
        self.keys = keys if keys is not None else []
        self.values = values if values is not None else []
        self.next_leaf = next_leaf

    def serialized_size(self) -> int:
        """Bytes this node occupies when serialized."""
        payload = sum(len(k) + len(v) for k, v in zip(self.keys, self.values))
        return LEAF_BASE_SIZE + LEAF_ENTRY_OVERHEAD * len(self.keys) + payload

    def serialize(self, page_size: int) -> bytearray:
        size = self.serialized_size()
        if size > page_size:
            raise BTreeError(f"leaf of {size} bytes exceeds page size {page_size}")
        buffer = bytearray(page_size)
        _LEAF_HEADER.pack_into(buffer, 0, LEAF_TYPE, len(self.keys), self.next_leaf)
        offset = _LEAF_HEADER.size
        for key, value in zip(self.keys, self.values):
            _LEAF_ENTRY.pack_into(buffer, offset, len(key), len(value))
            offset += _LEAF_ENTRY.size
        for key, value in zip(self.keys, self.values):
            buffer[offset : offset + len(key)] = key
            offset += len(key)
            buffer[offset : offset + len(value)] = value
            offset += len(value)
        return buffer

    @classmethod
    def deserialize(cls, buffer: bytes | bytearray) -> "LeafNode":
        node_type, count, next_leaf = _LEAF_HEADER.unpack_from(buffer, 0)
        if node_type != LEAF_TYPE:
            raise BTreeError(f"expected leaf page, found type {node_type}")
        lengths = []
        offset = _LEAF_HEADER.size
        for _ in range(count):
            lengths.append(_LEAF_ENTRY.unpack_from(buffer, offset))
            offset += _LEAF_ENTRY.size
        keys: list[bytes] = []
        values: list[bytes] = []
        for klen, vlen in lengths:
            keys.append(bytes(buffer[offset : offset + klen]))
            offset += klen
            values.append(bytes(buffer[offset : offset + vlen]))
            offset += vlen
        return cls(keys, values, next_leaf)


class InternalNode:
    """An internal node with ``len(keys) + 1`` children."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list[bytes], children: list[int]) -> None:
        if len(children) != len(keys) + 1:
            raise BTreeError(
                f"internal node with {len(keys)} keys needs "
                f"{len(keys) + 1} children, got {len(children)}"
            )
        self.keys = keys
        self.children = children

    def serialized_size(self) -> int:
        """Bytes this node occupies when serialized."""
        return (
            INTERNAL_BASE_SIZE
            + INTERNAL_ENTRY_OVERHEAD * len(self.keys)
            + sum(len(k) for k in self.keys)
        )

    def serialize(self, page_size: int) -> bytearray:
        size = self.serialized_size()
        if size > page_size:
            raise BTreeError(
                f"internal node of {size} bytes exceeds page size {page_size}"
            )
        buffer = bytearray(page_size)
        _INTERNAL_HEADER.pack_into(buffer, 0, INTERNAL_TYPE, len(self.keys))
        offset = _INTERNAL_HEADER.size
        for child in self.children:
            _CHILD.pack_into(buffer, offset, child)
            offset += _CHILD.size
        for key in self.keys:
            _KLEN.pack_into(buffer, offset, len(key))
            offset += _KLEN.size
        for key in self.keys:
            buffer[offset : offset + len(key)] = key
            offset += len(key)
        return buffer

    @classmethod
    def deserialize(cls, buffer: bytes | bytearray) -> "InternalNode":
        node_type, count = _INTERNAL_HEADER.unpack_from(buffer, 0)
        if node_type != INTERNAL_TYPE:
            raise BTreeError(f"expected internal page, found type {node_type}")
        offset = _INTERNAL_HEADER.size
        children: list[int] = []
        for _ in range(count + 1):
            (child,) = _CHILD.unpack_from(buffer, offset)
            children.append(child)
            offset += _CHILD.size
        lengths: list[int] = []
        for _ in range(count):
            (klen,) = _KLEN.unpack_from(buffer, offset)
            lengths.append(klen)
            offset += _KLEN.size
        keys: list[bytes] = []
        for klen in lengths:
            keys.append(bytes(buffer[offset : offset + klen]))
            offset += klen
        return cls(keys, children)


def deserialize_node(buffer: bytes | bytearray) -> LeafNode | InternalNode:
    """Dispatch on the page-type byte."""
    node_type = buffer[0]
    if node_type == LEAF_TYPE:
        return LeafNode.deserialize(buffer)
    if node_type == INTERNAL_TYPE:
        return InternalNode.deserialize(buffer)
    raise BTreeError(f"unknown B+tree page type {node_type}")
