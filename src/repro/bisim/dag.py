"""Small DAG utilities over bisimulation graphs.

These helpers are shared by the spectral-matrix builder (which needs the
edge list in a deterministic order), the F&B baseline, and the test suite
(canonical keys give a cheap isomorphism test for minimal graphs).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from hashlib import blake2b

from repro.bisim.graph import BisimGraph, BisimVertex

#: Digest width of a structural vertex signature, in bytes.
SIGNATURE_BYTES = 16


def edges(graph: BisimGraph) -> Iterator[tuple[BisimVertex, BisimVertex]]:
    """Yield every (parent, child) vertex pair reachable from the root.

    Order is deterministic: parents in reachability (DFS from root, vid
    tie-broken) order, children in vid order.
    """
    for parent in topological_order(graph):
        for child in parent.children:
            yield parent, child


def edge_count(graph: BisimGraph) -> int:
    """Number of edges reachable from the root."""
    return sum(1 for _ in edges(graph))


def reachable_vertices(root: BisimVertex) -> list[BisimVertex]:
    """All vertices reachable from ``root``, in discovery (DFS) order."""
    seen: set[int] = set()
    order: list[BisimVertex] = []
    stack = [root]
    while stack:
        vertex = stack.pop()
        if vertex.vid in seen:
            continue
        seen.add(vertex.vid)
        order.append(vertex)
        # Reverse so lower-vid children are discovered first.
        stack.extend(reversed(vertex.children))
    return order


def topological_order(graph: BisimGraph) -> list[BisimVertex]:
    """Reachable vertices in a parent-before-child order.

    Builder vids are assigned bottom-up, so descending vid order over the
    reachable set is a valid topological order of the DAG.
    """
    return sorted(reachable_vertices(graph.root), key=lambda v: -v.vid)


def canonical_key(vertex: BisimVertex, _memo: dict[int, object] | None = None) -> object:
    """A hashable key identical for (and only for) bisimilar vertices.

    Defined recursively as ``(label, frozenset of child keys)``.  For
    *minimal* graphs (anything a :class:`BisimGraphBuilder` produces) two
    graphs are isomorphic exactly when their roots' canonical keys are
    equal, which gives the test suite a decidable graph-equality check.
    """
    memo: dict[int, object] = {} if _memo is None else _memo
    # Iterative post-order to avoid recursion limits on deep graphs.
    stack: list[tuple[BisimVertex, bool]] = [(vertex, False)]
    while stack:
        node, ready = stack.pop()
        if node.vid in memo:
            continue
        if ready:
            memo[node.vid] = (node.label, frozenset(memo[c.vid] for c in node.children))
            continue
        stack.append((node, True))
        for child in node.children:
            if child.vid not in memo:
                stack.append((child, False))
    return memo[vertex.vid]


def graphs_isomorphic(left: BisimGraph, right: BisimGraph) -> bool:
    """Isomorphism test for two *minimal* bisimulation graphs."""
    return canonical_key(left.root) == canonical_key(right.root)


def vertex_signature(
    vertex: BisimVertex, _memo: dict[int, bytes] | None = None
) -> bytes:
    """A compact (16-byte) digest form of :func:`canonical_key`.

    Defined bottom-up as ``blake2b(label · 0x00 · sorted child
    signatures)``: a function of the vertex's label and the *set* of
    child signatures only, so it is invariant under vertex ids,
    discovery order, and the document the structure came from.  For
    minimal graphs, equal signatures mean bisimilar structures (up to
    blake2b collisions — negligible at 128 bits), which makes the digest
    usable both as a content address (the spectral feature cache) and as
    a canonical sort key (the matrix builder's vertex order).

    Pass a shared ``_memo`` (vid → digest) to amortize over many
    vertices of one graph.
    """
    memo: dict[int, bytes] = {} if _memo is None else _memo
    stack: list[tuple[BisimVertex, bool]] = [(vertex, False)]
    while stack:
        node, ready = stack.pop()
        if node.vid in memo:
            continue
        if ready:
            memo[node.vid] = signature_of(
                node.label, [memo[child.vid] for child in node.children]
            )
            continue
        stack.append((node, True))
        for child in node.children:
            if child.vid not in memo:
                stack.append((child, False))
    return memo[vertex.vid]


def signature_of(label: str, child_signatures: Iterable[bytes]) -> bytes:
    """One step of :func:`vertex_signature`: the digest of a vertex
    labelled ``label`` whose children digest to ``child_signatures``."""
    digest = blake2b(digest_size=SIGNATURE_BYTES)
    digest.update(label.encode("utf-8"))
    digest.update(b"\x00")
    for child_signature in sorted(child_signatures):
        digest.update(child_signature)
    return digest.digest()
