"""In-memory XML data model, parser and serializer.

This subpackage is the substrate that the rest of the reproduction is built
on.  The numbered tree is the only document representation between the
parser and the index: :func:`parse_xml` builds it in one scan, and every
consumer (the bisimulation builder's walk, the encoder seeding pre-pass,
the navigational matcher, the primary store) reads it directly.  The
paper's Algorithm 1 is written as SAX handlers; those handlers are
:class:`repro.bisim.BisimGraphBuilder`'s ``open`` / ``close``, driven by
a walk of this tree.

Public surface:

* :class:`~repro.xmltree.model.Element`, :class:`~repro.xmltree.model.Text`,
  :class:`~repro.xmltree.model.Document` — the node types.
* :func:`~repro.xmltree.parser.parse_xml` / ``parse_xml_file`` — a
  dependency-free XML parser (elements, attributes, text, CDATA, comments,
  processing instructions, the five predefined entities, and numeric
  character references).
* :func:`~repro.xmltree.serialize.serialize` — the inverse of the parser.
"""

from repro.xmltree.model import Document, Element, Node, Text
from repro.xmltree.parser import parse_xml, parse_xml_file
from repro.xmltree.serialize import serialize, serialize_fragment

__all__ = [
    "Document",
    "Element",
    "Node",
    "Text",
    "parse_xml",
    "parse_xml_file",
    "serialize",
    "serialize_fragment",
]
