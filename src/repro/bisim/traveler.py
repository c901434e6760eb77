"""BISIM-TRAVELER (Section 4.4): the depth-limited pattern of a vertex.

``GEN-SUBPATTERN`` cannot simply take the sub-DAG below a vertex, because
cutting a bisimulation graph at depth ``L`` re-introduces structural
repetition: the truncated unfolding "is no longer a bisimulation graph"
(the paper's bib example: the depth-2 subgraph at ``bib`` repeats
``article``).  The paper re-minimizes by replaying the unfolded tree
through a second CONSTRUCT-ENTRIES, but the unfolding can be
exponentially larger than the DAG.  Here the DAG is truncated in place:
the depth-``d`` view of a vertex is ``(label, {depth-(d-1) views of its
children})`` and two views are bisimilar exactly when those pairs are
equal, so interning the pairs bottom-up over the distinct ``(vertex,
remaining depth)`` classes yields the minimal graph directly, in work
bounded by DAG size × depth.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import attrgetter

from repro.errors import PatternTooLargeError
from repro.bisim.graph import BisimGraph, BisimVertex


class PatternTable:
    """The depth-limited patterns of one source graph, interned together.

    The source is a graph of :class:`BisimVertex` objects — then
    :meth:`pattern` takes a vertex — or, given ``dag`` and ``shapes``,
    the vertices of a :class:`~repro.core.structure.StructureDag` by id:
    ``shapes`` maps each vertex a truncation can reach to its height and
    its children as the DAG interned them (``(height, child ids)``, what
    the build's walk leaves), and labels are read off the DAG.

    The ``(source vertex, remaining depth) → pattern vertex`` memo and
    the ``(label, child pattern vids) → pattern vertex`` intern table
    persist across :meth:`pattern` calls, so the patterns of all of a
    graph's vertices share their sub-patterns: one table per source
    graph.  Interning a vertex beyond ``max_vertices`` raises
    :class:`PatternTooLargeError`.
    """

    def __init__(
        self,
        max_vertices: int | None = None,
        dag=None,
        shapes: Mapping[int, tuple[int, tuple[int, ...]]] | None = None,
    ) -> None:
        self.max_vertices = max_vertices
        self.vertices: list[BisimVertex] = []
        #: (label, *sorted child pattern vids) → pattern vertex.
        self._interned: dict[tuple, BisimVertex] = {}
        #: remaining depth → source vertex → pattern vertex.
        self._memo: dict[int, dict] = {}
        #: source vertex → (height, children); filled as met for a graph
        #: of vertex objects.
        self._shapes = {} if shapes is None else shapes
        self._label_of = attrgetter("label") if dag is None else dag.label_of

    def pattern(self, vertex, depth_limit: int) -> BisimGraph:
        """Minimal bisimulation graph of ``vertex``'s unfolding down to
        ``depth_limit`` (``<= 0``: its full height), root at depth 1.
        Its ``vertices`` is the whole table; the pattern is what its
        ``root`` reaches."""
        memo, shapes = self._memo, self._shapes
        if vertex not in shapes:
            self._describe(vertex)
        # A view deeper than the vertex is tall is its full view: clamping
        # folds all such states into one.
        height = shapes[vertex][0]
        if depth_limit <= 0 or depth_limit > height:
            depth_limit = height
        # Explicit stack (Treebank-deep graphs overflow recursion).  A
        # state whose child states are not all interned yet goes back
        # under them and is revisited once they are.
        stack = [(vertex, depth_limit)]
        while stack:
            node, depth = stack.pop()
            at_depth = memo.get(depth)
            if at_depth is None:
                at_depth = memo[depth] = {}
            elif node in at_depth:
                continue
            child_vids = set()
            missing = []
            if depth > 1:
                for child in shapes[node][1]:
                    below = shapes[child][0]
                    if below >= depth:
                        below = depth - 1
                    found = memo.get(below)
                    found = found.get(child) if found is not None else None
                    if found is None:
                        missing.append((child, below))
                    else:
                        child_vids.add(found.vid)
            if missing:
                stack.append((node, depth))
                stack.extend(missing)
            else:
                at_depth[node] = self._intern(self._label_of(node), sorted(child_vids))
        return BisimGraph(memo[depth_limit][vertex], self.vertices)

    def _describe(self, vertex: BisimVertex) -> None:
        """Enter ``vertex`` and everything below it into the shapes."""
        shapes = self._shapes
        pending = [vertex]
        while pending:
            node = pending.pop()
            if node not in shapes:
                shapes[node] = (node.height, node.children)
                pending.extend(node.children)

    def _intern(self, label: str, child_vids: list[int]) -> BisimVertex:
        signature = (label, *child_vids)
        found = self._interned.get(signature)
        if found is None:
            vertices = self.vertices
            if self.max_vertices is not None and len(vertices) >= self.max_vertices:
                raise PatternTooLargeError(
                    f"pattern has more than {self.max_vertices} vertices",
                    size=len(vertices) + 1,
                )
            children = tuple(vertices[vid] for vid in child_vids)
            found = BisimVertex(len(vertices), label, children)
            vertices.append(found)
            self._interned[signature] = found
        return found


def depth_limited_graph(
    vertex: BisimVertex,
    depth_limit: int,
    max_vertices: int | None = None,
) -> BisimGraph:
    """Re-minimized bisimulation graph of ``vertex``'s unfolding down to
    ``depth_limit`` — what GEN-SUBPATTERN indexes.

    The root of the unfolding is at depth 1, so a ``depth_limit`` of ``k``
    produces a ``k``-pattern; ``depth_limit <= 0`` means *unlimited* (the
    full height of the vertex).  Children are in vid order and every
    vertex of the result is reachable from its root.

    Raises:
        PatternTooLargeError: when the pattern has more than
            ``max_vertices`` vertices.
    """
    return PatternTable(max_vertices).pattern(vertex, depth_limit)
