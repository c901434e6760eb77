"""XML tree node types.

The model is deliberately small: elements, text nodes, and a document
wrapper.  Two design points matter for the rest of the system:

* Every node carries a **preorder identifier** (``node_id``), assigned by
  the parser as it scans or by :meth:`Document.renumber` for a hand-built
  tree.  Preorder ids double as *storage pointers*
  into the primary store (the ``start_ptr`` of the paper's Algorithm 1) and
  as region-encoding ``start`` values for the structural-join baseline.
* Elements also carry the matching ``end`` preorder bound and their
  ``level`` (depth below the document node), which together form the
  classic ``(start, end, level)`` region encoding used by structural joins
  and by ancestor/descendant tests.

Attributes are parsed and preserved for round-tripping but are *not* part
of the structural model that FIX indexes (the paper indexes element and,
optionally, text nodes only).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator


class Node:
    """Common base for :class:`Element` and :class:`Text`."""

    __slots__ = ("parent", "node_id")

    parent: Element | None
    node_id: int

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent upward to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class Text(Node):
    """A text node.  ``value`` is the (whitespace-stripped) character data."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.parent = None
        self.node_id = -1
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.value if len(self.value) <= 24 else self.value[:21] + "..."
        return f"Text({shown!r})"


class Element(Node):
    """An element node with a tag, optional attributes, and children.

    Children are ordered and may be a mix of :class:`Element` and
    :class:`Text` nodes.  ``end`` and ``level`` are filled in by the parser
    or by :meth:`Document.renumber`.
    """

    __slots__ = ("tag", "attributes", "children", "end", "level")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None) -> None:
        self.parent = None
        self.node_id = -1
        self.tag = tag
        self.attributes: dict[str, str] = attributes or {}
        self.children: list[Node] = []
        self.end: int = -1
        self.level: int = -1

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def add_element(self, tag: str, attributes: dict[str, str] | None = None) -> "Element":
        """Create, attach, and return a new child element."""
        child = Element(tag, attributes)
        self.append(child)
        return child

    def add_text(self, value: str) -> Text:
        """Create, attach, and return a new text child."""
        child = Text(value)
        self.append(child)
        return child

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def child_elements(self) -> Iterator["Element"]:
        """Yield element children only, in document order."""
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def text_children(self) -> Iterator[Text]:
        """Yield text children only, in document order."""
        for child in self.children:
            if isinstance(child, Text):
                yield child

    def text(self) -> str:
        """Concatenated text of the *direct* text children."""
        return "".join(t.value for t in self.text_children())

    def iter(self) -> Iterator["Element"]:
        """Preorder traversal of this element and all descendant elements."""
        stack: list[Element] = [self]
        while stack:
            node = stack.pop()
            yield node
            # Push children reversed so the leftmost child is visited first.
            stack.extend(reversed(list(node.child_elements())))

    def descendants(self) -> Iterator["Element"]:
        """Preorder traversal of descendant elements, excluding ``self``."""
        it = self.iter()
        next(it)  # drop self
        yield from it

    def find_all(self, tag: str) -> Iterator["Element"]:
        """Yield ``self`` and descendants whose tag equals ``tag``."""
        for node in self.iter():
            if node.tag == tag:
                yield node

    def contains(self, other: "Element") -> bool:
        """Region-encoding ancestor-or-self test.

        Requires the tree to be numbered (it belongs to a :class:`Document`).
        """
        return self.node_id <= other.node_id and other.node_id <= self.end

    # ------------------------------------------------------------------ #
    # Measurements
    # ------------------------------------------------------------------ #

    def depth(self) -> int:
        """Height of the subtree rooted here, counting this node as 1.

        A leaf element has depth 1.  This is the quantity the paper's
        depth-limit parameter ``L`` is compared against.
        """
        best = 1
        stack: list[tuple[Element, int]] = [(self, 1)]
        while stack:
            node, d = stack.pop()
            if d > best:
                best = d
            for child in node.child_elements():
                stack.append((child, d + 1))
        return best

    def size(self) -> int:
        """Number of element nodes in the subtree rooted here."""
        return sum(1 for _ in self.iter())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, children={len(self.children)})"


class Document:
    """A parsed XML document: a root element plus id bookkeeping.

    The *document node* of the XPath data model (the invisible parent of
    the root element) is represented by the Document object itself; twig
    queries whose first axis is ``/`` or ``//`` are anchored at it.
    """

    __slots__ = ("root", "doc_id", "_count", "_max_depth", "_by_id", "_ids")

    def __init__(
        self,
        root: Element,
        doc_id: int = 0,
        *,
        numbering: tuple[list[Element], list[int], int, int] | None = None,
    ) -> None:
        """``numbering`` is for :func:`~repro.xmltree.parser.parse_xml` only:
        the elements in preorder, their ids, the node count and the maximum
        depth it assigned while scanning — what :meth:`renumber` computes."""
        self.root = root
        self.doc_id = doc_id
        if numbering is None:
            self.renumber()
        else:
            self._by_id, self._ids, self._count, self._max_depth = numbering

    # ------------------------------------------------------------------ #
    # Numbering
    # ------------------------------------------------------------------ #

    def renumber(self) -> None:
        """(Re)assign preorder ids, region bounds, and levels.

        Element ids are consecutive preorder integers starting at 0 for the
        root.  Text nodes receive ids in the same sequence (they occupy
        preorder slots) so that a text node can also be addressed by a
        storage pointer.  ``end`` of an element is the largest id in its
        subtree.
        """
        counter = 0
        max_depth = 0
        by_id: list[Element] = []
        ids: list[int] = []
        # Iterative preorder with explicit post-visit actions to set `end`.
        stack: list[tuple[Node, int, bool]] = [(self.root, 1, False)]
        while stack:
            node, level, done = stack.pop()
            if done:
                assert isinstance(node, Element)
                # All descendants have been numbered; counter-1 is the last.
                node.end = counter - 1
                continue
            node.node_id = counter
            counter += 1
            if isinstance(node, Element):
                node.level = level
                by_id.append(node)
                ids.append(node.node_id)
                if level > max_depth:
                    max_depth = level
                stack.append((node, level, True))
                for child in reversed(node.children):
                    stack.append((child, level + 1, False))
        self._count = counter
        self._max_depth = max_depth
        self._by_id = by_id
        self._ids = ids

    # ------------------------------------------------------------------ #
    # Lookups and measurements
    # ------------------------------------------------------------------ #

    def element_count(self) -> int:
        """Number of element nodes in the document."""
        return len(self._by_id)

    def node_count(self) -> int:
        """Number of element plus text nodes."""
        return self._count

    def max_depth(self) -> int:
        """Depth of the deepest element (root is at depth 1)."""
        return self._max_depth

    def elements(self) -> Iterator[Element]:
        """All elements in document (preorder) order."""
        return iter(self._by_id)

    def element_at(self, node_id: int) -> Element:
        """Return the element with preorder id ``node_id``.

        Raises :class:`KeyError` if ``node_id`` does not name an element
        (it may name a text node or be out of range).
        """
        ids = self._ids
        index = bisect_left(ids, node_id)
        if index < len(ids) and ids[index] == node_id:
            return self._by_id[index]
        raise KeyError(f"no element with node_id {node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Document(doc_id={self.doc_id}, elements={self.element_count()}, "
            f"depth={self.max_depth()})"
        )
