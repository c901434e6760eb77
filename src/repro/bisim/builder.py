"""Single-pass bisimulation-graph construction (Algorithm 1, CONSTRUCT-ENTRIES).

The paper specifies CONSTRUCT-ENTRIES as a pair of SAX handlers over a
``PathStack``; :meth:`BisimGraphBuilder.open` and
:meth:`BisimGraphBuilder.close` are those handlers.  The builder keeps:

* ``PathStack`` — one frame per currently-open element, holding the label,
  the set of child vertex ids accumulated so far, and the element's
  storage pointer (exactly the ``(sig, start_ptr)`` pairs of the paper);
* a signature map ``sig -> vertex`` so that structurally identical
  subtrees collapse into one vertex (``sig`` is the label plus the
  *set* of child vertices — Definition 3's downward bisimilarity).

``close`` resolves the completed element's signature to a vertex
(creating one if needed) and returns the ``(vertex, start_ptr)`` pair.
:meth:`BisimGraphBuilder.walk` drives the handlers over a numbered tree,
which is the only document representation the parser produces.

This builder is a *view*: it gives one document's graph as vertex
objects, for query twigs, the F&B baseline, the ablations and the tests.
Index construction runs the same walk in
:meth:`repro.core.construction.EntryGenerator.entries_for`, with the
collection-wide structure DAG as its signature map — every close is
interned there directly, and GEN-SUBPATTERN hangs off each close (one
B-tree entry per element, Theorem 4) — so the two number a document's
classes in the same first-close order.

Text is ignored unless a ``text_label`` mapping is supplied, in which
case each text node becomes a leaf child vertex labeled by the mapped
value — this is the Section 4.6 value extension, where the map is a
hash into a small domain.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.errors import BisimulationError
from repro.bisim.graph import BisimGraph, BisimVertex
from repro.xmltree.model import Document, Element

Signature = tuple[str, frozenset[int]]


class _Frame:
    """A PathStack frame for one open element."""

    __slots__ = ("label", "child_vids", "start_ptr")

    def __init__(self, label: str, start_ptr: int) -> None:
        self.label = label
        self.child_vids: set[int] = set()
        self.start_ptr = start_ptr


class BisimGraphBuilder:
    """Incremental bisimulation-graph builder: Algorithm 1's handlers.

    Args:
        record_extents: when ``True``, each vertex records the preorder
            ids of the XML nodes in its extent (useful for evaluation and
            tests; off by default to keep construction lean).
        text_label: optional mapping from a text value to a synthetic
            label; when given, text nodes participate in the structure as
            leaf children (the value extension of Section 4.6).

    The builder may be given several complete documents in sequence
    (a *forest*); in that case the final graph's root is a synthetic
    vertex labeled ``#forest`` whose children are the document roots.
    This is how the collection-as-one-unit tests exercise it; FIX itself
    builds one graph per document.
    """

    FOREST_LABEL = "#forest"

    def __init__(
        self,
        record_extents: bool = False,
        text_label: Callable[[str], str] | None = None,
    ) -> None:
        self._record_extents = record_extents
        self._text_label = text_label
        self._sig_map: dict[Signature, BisimVertex] = {}
        self._vertices: list[BisimVertex] = []
        self._stack: list[_Frame] = []
        self._root_vids: set[int] = set()
        self._roots: list[BisimVertex] = []

    # ------------------------------------------------------------------ #
    # The handlers
    # ------------------------------------------------------------------ #

    def open(self, label: str, start_ptr: int) -> None:
        """Open handler: push a PathStack frame for a ``label`` element
        stored at ``start_ptr``."""
        self._stack.append(_Frame(label, start_ptr))

    def text(self, value: str, start_ptr: int) -> None:
        """Character data of the innermost open element; a leaf child
        when the builder has a ``text_label``, otherwise ignored."""
        if not self._stack:
            raise BisimulationError("text outside any element")
        if self._text_label is None:
            return
        vertex = self._intern(self._text_label(value), frozenset())
        self._note_extent(vertex, start_ptr)
        self._stack[-1].child_vids.add(vertex.vid)

    def close(self) -> tuple[BisimVertex, int]:
        """Close handler: pop the innermost frame, resolve its signature
        to a vertex and return ``(vertex, start_ptr)``."""
        if not self._stack:
            raise BisimulationError("close with no open element")
        frame = self._stack.pop()
        vertex = self._intern(frame.label, frozenset(frame.child_vids))
        self._note_extent(vertex, frame.start_ptr)
        if self._stack:
            self._stack[-1].child_vids.add(vertex.vid)
        elif vertex.vid not in self._root_vids:
            self._root_vids.add(vertex.vid)
            self._roots.append(vertex)
        return vertex, frame.start_ptr

    def walk(self, root: Element) -> Iterator[tuple[BisimVertex, int]]:
        """Run the handlers over the subtree at ``root`` and yield each
        :meth:`close` result.

        Elements open in preorder, with ``node_id`` as ``start_ptr``.  A
        node's text children are registered right after its open, before
        its element children (child *sets* make the interleaving
        immaterial to the graph, but it fixes the vertex numbering).
        Text is only visited when the builder has a ``text_label``.
        """
        with_text = self._text_label is not None
        pending: list[Element | None] = [root]  # ``None``: a pending close
        while pending:
            node = pending.pop()
            if node is None:
                yield self.close()
                continue
            self.open(node.tag, node.node_id)
            pending.append(None)
            elements = []
            for child in node.children:
                if isinstance(child, Element):
                    elements.append(child)
                elif with_text:
                    self.text(child.value, child.node_id)
            pending.extend(reversed(elements))

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def finish(self) -> BisimGraph:
        """Return the completed graph.

        Raises :class:`BisimulationError` if elements remain open or no
        element was ever closed.
        """
        if self._stack:
            raise BisimulationError(
                f"{len(self._stack)} element(s) still open"
            )
        if not self._roots:
            raise BisimulationError("no element was closed")
        if len(self._roots) == 1:
            root = self._roots[0]
        else:
            # Forest: tie the distinct document-root classes under one
            # synthetic vertex so the result is a single rooted DAG.
            root = self._intern(
                self.FOREST_LABEL, frozenset(v.vid for v in self._roots)
            )
        return BisimGraph(root, self._vertices)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _intern(self, label: str, child_vids: frozenset[int]) -> BisimVertex:
        """Return the vertex for ``(label, child_vids)``, creating it if new."""
        sig: Signature = (label, child_vids)
        vertex = self._sig_map.get(sig)
        if vertex is None:
            children = tuple(
                sorted((self._vertices[vid] for vid in child_vids), key=lambda v: v.vid)
            )
            vertex = BisimVertex(len(self._vertices), label, children)
            self._vertices.append(vertex)
            self._sig_map[sig] = vertex
        return vertex

    def _note_extent(self, vertex: BisimVertex, start_ptr: int) -> None:
        vertex.extent_size += 1
        if self._record_extents:
            if vertex.extent is None:
                vertex.extent = []
            vertex.extent.append(start_ptr)


def bisim_graph_of_document(
    document: Document | Element,
    record_extents: bool = False,
    text_label: Callable[[str], str] | None = None,
) -> BisimGraph:
    """Build the bisimulation graph of a document or subtree.

    Text nodes are only walked when ``text_label`` is provided, since the
    pure structural graph ignores them anyway.
    """
    root = document.root if isinstance(document, Document) else document
    builder = BisimGraphBuilder(record_extents=record_extents, text_label=text_label)
    for _ in builder.walk(root):
        pass
    return builder.finish()
