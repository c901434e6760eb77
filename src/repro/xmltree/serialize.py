"""Serialize the in-memory model back to XML text.

``parse_xml(serialize(doc))`` reproduces ``doc`` structurally (tags,
attributes, stripped text) — this round-trip is property-tested.  The
serializer is also what the primary storage engine uses to persist
documents and subtrees as byte records.
"""

from __future__ import annotations

from repro.xmltree.model import Document, Element, Node, Text

_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for raw, escaped in _TEXT_ESCAPES:
        value = value.replace(raw, escaped)
    return value


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for raw, escaped in _ATTR_ESCAPES:
        value = value.replace(raw, escaped)
    return value


def serialize_fragment(root: Element, indent: int | None = None) -> str:
    """Serialize the subtree rooted at ``root`` (no XML declaration).

    Args:
        root: subtree root element.
        indent: when given, pretty-print with this many spaces per level;
            when ``None`` (default) produce compact output with no
            inter-element whitespace, which round-trips exactly because
            the parser strips whitespace-only text.
    """
    parts: list[str] = []
    level = 0
    # No recursion: a document may nest deeper than the interpreter's stack.
    pending: list[Node | str] = [root]  # a string is a queued end tag
    while pending:
        node = pending.pop()
        opened = 0
        if isinstance(node, str):
            level -= 1
            text = node
        elif isinstance(node, Text):
            text = escape_text(node.value)
        else:
            assert isinstance(node, Element)
            attrs = ""
            if node.attributes:
                attrs = "".join(
                    f' {name}="{escape_attribute(value)}"'
                    for name, value in node.attributes.items()
                )
            if node.children:
                text = f"<{node.tag}{attrs}>"
                pending.append(f"</{node.tag}>")
                pending.extend(reversed(node.children))
                opened = 1
            else:
                text = f"<{node.tag}{attrs}/>"
        parts.append(text if indent is None else f"{' ' * (indent * level)}{text}\n")
        level += opened
    return "".join(parts)


def serialize(document: Document, indent: int | None = None) -> str:
    """Serialize a whole document, prefixed with an XML declaration."""
    body = serialize_fragment(document.root, indent=indent)
    newline = "\n" if indent is not None else ""
    return f'<?xml version="1.0" encoding="UTF-8"?>{newline}{body}'
