"""Bisimulation graph data structures.

The graph is built bottom-up (children always exist before their parents),
so derived quantities — the *height* of each vertex and hence the depth of
the whole graph — are computed incrementally at vertex-creation time for
free.  Vertices are immutable once created; the builder owns mutation.
"""

from __future__ import annotations

from collections.abc import Iterator


class BisimVertex:
    """One equivalence class of XML nodes.

    Attributes:
        vid: dense integer id, assigned in creation (bottom-up) order.
            Because construction is bottom-up, ``vid`` order is a reverse
            topological order: every child has a smaller vid than each of
            its parents.
        label: element tag shared by all nodes in the class.
        children: deduplicated child vertices, sorted by vid for
            determinism.
        height: height of the unfolding rooted here; a leaf has height 1.
        extent_size: how many XML nodes map to this class.
        extent: preorder ids of those nodes, if the builder was asked to
            record them (``record_extents=True``); otherwise ``None``.
    """

    __slots__ = ("vid", "label", "children", "height", "extent_size", "extent")

    def __init__(self, vid: int, label: str, children: tuple["BisimVertex", ...]) -> None:
        self.vid = vid
        self.label = label
        self.children = children
        self.height = 1 + max((c.height for c in children), default=0)
        self.extent_size = 0
        self.extent: list[int] | None = None

    def out_degree(self) -> int:
        """Number of distinct child classes."""
        return len(self.children)

    def is_leaf(self) -> bool:
        """True when this class has no children."""
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BisimVertex(vid={self.vid}, label={self.label!r}, "
            f"children={len(self.children)}, height={self.height})"
        )


class BisimGraph:
    """A minimal downward-bisimulation DAG of a tree (or forest unit).

    Attributes:
        root: the vertex every tree root maps to.
        vertices: all vertices, indexed by vid (creation order, which is a
            reverse topological order of the DAG).
    """

    __slots__ = ("root", "vertices")

    def __init__(self, root: BisimVertex, vertices: list[BisimVertex]) -> None:
        self.root = root
        self.vertices = vertices

    # ------------------------------------------------------------------ #
    # Measurements
    # ------------------------------------------------------------------ #

    def vertex_count(self) -> int:
        """Number of equivalence classes."""
        return len(self.vertices)

    def edge_count(self) -> int:
        """Number of distinct (parent-class, child-class) edges."""
        return sum(len(v.children) for v in self.vertices)

    def depth(self) -> int:
        """Depth of the graph = height of the root vertex.

        This is ``G.dep`` in Algorithm 1: the depth limit that covers the
        entire structure.
        """
        return self.root.height

    def labels(self) -> set[str]:
        """The set of labels appearing in the graph."""
        return {v.label for v in self.vertices}

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #

    def iter_reachable(self) -> Iterator[BisimVertex]:
        """Vertices reachable from the root (the whole graph when built
        from a single document, but a depth-limited view may not use all)."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            vertex = stack.pop()
            if vertex.vid in seen:
                continue
            seen.add(vertex.vid)
            yield vertex
            stack.extend(vertex.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BisimGraph(vertices={self.vertex_count()}, "
            f"edges={self.edge_count()}, depth={self.depth()})"
        )
