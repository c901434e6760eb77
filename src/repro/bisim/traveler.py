"""BISIM-TRAVELER (Section 4.4): depth-limited unfolding of a vertex.

``GEN-SUBPATTERN`` cannot simply take the sub-DAG below a vertex, because
cutting a bisimulation graph at depth ``L`` re-introduces structural
repetition: the truncated unfolding "is no longer a bisimulation graph"
(the paper's bib example: the depth-2 subgraph at ``bib`` repeats
``article``).  The traveler therefore *replays* the unfolding into the
open/close handlers of a fresh :class:`BisimGraphBuilder`, which
re-minimizes it into a proper bisimulation graph of the depth-``L``
pattern.

Unfolding a DAG can explode exponentially, so the traveler takes a cap on
the number of opens and raises :class:`PatternTooLargeError` when it
is exceeded — the index construction catches this and falls back to the
paper's artificial all-covering feature range.
"""

from __future__ import annotations

from repro.errors import PatternTooLargeError
from repro.bisim.builder import BisimGraphBuilder
from repro.bisim.graph import BisimGraph, BisimVertex


def depth_limited_graph(
    vertex: BisimVertex,
    depth_limit: int,
    max_opens: int | None = None,
) -> BisimGraph:
    """Re-minimized bisimulation graph of ``vertex``'s unfolding down to
    ``depth_limit`` — what GEN-SUBPATTERN indexes.

    The root of the unfolding is at depth 1, so a ``depth_limit`` of ``k``
    produces a ``k``-pattern.  A ``depth_limit <= 0`` means *unlimited*
    (unfold the full height of the vertex — used when the whole pattern
    should be indexed).

    Children are visited in vid order, making the replay — and therefore
    the re-minimized graph and its features — deterministic.

    Args:
        vertex: unfolding root.
        depth_limit: maximum pattern depth, or ``<= 0`` for unlimited.
        max_opens: optional cap on the unfolding's node count.

    Raises:
        PatternTooLargeError: when the unfolding exceeds ``max_opens``.
    """
    if depth_limit <= 0:
        depth_limit = vertex.height
    builder = BisimGraphBuilder()
    opens = 0
    # Iterative DFS.  Stack holds (vertex, depth) to open, or a close marker.
    stack: list[tuple[BisimVertex, int] | None] = [(vertex, 1)]
    while stack:
        item = stack.pop()
        if item is None:
            builder.close()
            continue
        node, depth = item
        opens += 1
        if max_opens is not None and opens > max_opens:
            raise PatternTooLargeError(
                f"depth-{depth_limit} unfolding of vertex {node.vid} exceeds "
                f"{max_opens} nodes",
                size=opens,
            )
        builder.open(node.label, -1)
        stack.append(None)
        if depth < depth_limit:
            for child in reversed(node.children):
                stack.append((child, depth + 1))
    return builder.finish()
