"""A dependency-free, one-pass XML parser.

Covers the subset of XML needed by the reproduction (and by the paper's
data sets): elements, attributes, character data, CDATA sections,
comments, processing instructions, an optional XML declaration and
DOCTYPE (both skipped), the five predefined entities, and decimal /
hexadecimal character references.  Namespaces are treated lexically
(prefixed names are kept verbatim as tags), matching how the paper
treats labels.  Whitespace-only text between elements is dropped — the
paper's data model has no use for indentation text nodes.

:func:`parse_xml` is the only scanner of XML text in the package: one
loop that matches one token pattern at each ``<`` and builds the
numbered tree as it goes, so nothing walks the tree a second time;
whatever the pattern misses goes to :func:`_other_markup`.
"""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError
from repro.xmltree.model import Document, Element, Text

# XML names: the practical superset — ASCII name chars plus everything
# from U+0080 up (the spec's NameStartChar ranges are almost exactly
# that): a letter, "_" or ":", then any run of those, digits, "-" and
# ".".  Each class is spelled as the ASCII characters it excludes: a
# range reaching U+10FFFF admits the same code points but takes fifty
# times as long to compile, and the name is in every pattern below.
_NAME_START = r"[^\x00-\x39\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NAME_CHAR = r"[^\x00-\x2c\x2f\x3b-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NAME = _NAME_START + _NAME_CHAR + "*"
_ATTR = r"""\s+(%s)\s*=\s*(?:"([^"]*)"|'([^']*)')""" % _NAME
_ATTR_RUN = r"""(?:\s+%s\s*=\s*(?:"[^"]*"|'[^']*'))*""" % _NAME
# Every pattern is compiled with re.ASCII so that ``\s`` is the six ASCII
# whitespace characters, none of which is a name character: no two
# adjacent quantifiers can trade characters, which keeps a failing match
# linear in the input (a run of U+00A0 is a name, not a run of spaces).
_NAME_RE = re.compile(_NAME, re.ASCII)
_ATTR_RE = re.compile(_ATTR, re.ASCII)
_ATTR_RUN_RE = re.compile(_ATTR_RUN, re.ASCII)
# Start tag: name, attribute run, "/" if self-closing.  End tag: name.
_TOKEN_RE = re.compile(
    r"<(?:(%s)(%s)\s*(?:(/)\s*)?|/(%s)\s*)>" % (_NAME, _ATTR_RUN, _NAME), re.ASCII
)
# What else may follow "<": a comment, a processing instruction, or a
# CDATA section, whose text is the group.
_OTHER_RE = re.compile(r"<!--.*?-->|<\?.*?\?>|<!\[CDATA\[(.*?)]]>", re.DOTALL)
_UNTERMINATED = (
    ("<!--", "comment"),
    ("<![CDATA[", "CDATA section"),
    ("<?", "processing instruction"),
)
_ENTITY_RE = re.compile(r"&(#x[0-9a-fA-F]+|#[0-9]+|[A-Za-z]+);")

_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}


def _expand_entities(text: str, base_pos: int) -> str:
    """Expand predefined and numeric character references in ``text``."""

    def repl(match: re.Match[str]) -> str:
        body = match.group(1)
        if body[0] != "#":
            if body in _PREDEFINED:
                return _PREDEFINED[body]
            problem = f"unknown entity &{body};"
        else:
            code = int(body[2:], 16) if body[1] == "x" else int(body[1:])
            if (  # the Char production of XML 1.0
                0x20 <= code <= 0xD7FF
                or code in (0x9, 0xA, 0xD)
                or 0xE000 <= code <= 0xFFFD
                or 0x10000 <= code <= 0x10FFFF
            ):
                return chr(code)
            problem = f"character reference &{body}; is not an XML character"
        raise XMLSyntaxError(problem, base_pos + match.start())

    return _ENTITY_RE.sub(repl, text)


def _attributes(run: str, base_pos: int) -> dict[str, str]:
    """The attributes of one start tag; a repeated name keeps its last value."""
    if "&" not in run:
        return {name: dq or sq for name, dq, sq in _ATTR_RE.findall(run)}
    return {
        attr[1]: _expand_entities(attr[2] or attr[3] or "", base_pos + attr.start())
        for attr in _ATTR_RE.finditer(run)
    }


def parse_xml(source: str, doc_id: int = 0) -> Document:
    """Parse an XML string into a :class:`Document`.

    Raises:
        XMLSyntaxError: on malformed input.
    """
    find = source.find
    token = _TOKEN_RE.match
    elements: list[Element] = []
    ids: list[int] = []
    root: Element | None = None
    parent: Element | None = None  # innermost open element
    level = 0  # of ``parent``
    max_depth = 0
    counter = 0  # next preorder id; elements and text share the sequence
    pos = 0

    while True:
        lt = find("<", pos)
        if lt != pos:
            # Character data before the next markup.
            if lt == -1:
                if source[pos:].strip():
                    raise XMLSyntaxError("character data after document end", pos)
                break
            value = source[pos:lt].strip()
            if value:
                if parent is None:
                    raise XMLSyntaxError("character data outside root element", pos)
                text = Text(_expand_entities(value, pos) if "&" in value else value)
                text.parent = parent
                text.node_id = counter
                counter += 1
                parent.children.append(text)
        match = token(source, lt)
        if match is None:
            pos, value = _other_markup(source, lt, parent is not None, root is not None)
            if value:
                parent.add_text(value).node_id = counter
                counter += 1
            continue
        pos = match.end()
        tag, run, slash, name = match.groups()
        if name is not None:  # end tag
            if parent is None:
                raise XMLSyntaxError(f"end tag </{name}> with no open element", lt)
            if parent.tag != name:
                raise XMLSyntaxError(
                    f"end tag </{name}> does not match <{parent.tag}>", lt
                )
            parent.end = counter - 1
            parent = parent.parent
            level -= 1
            continue
        # Start tag (possibly self-closing).
        if parent is None and root is not None:
            raise XMLSyntaxError("multiple root elements", lt)
        element = Element(tag, _attributes(run, match.start(2)) if run else None)
        if parent is None:
            root = element
        else:
            element.parent = parent
            parent.children.append(element)
        element.node_id = counter
        elements.append(element)
        ids.append(counter)
        counter += 1
        element.level = level + 1
        if level >= max_depth:
            max_depth = level + 1
        if slash:
            element.end = element.node_id
        else:
            parent = element
            level += 1

    if parent is not None:
        raise XMLSyntaxError(
            f"document ended with {level} unclosed element(s): "
            f"<{parent.tag}> still open",
            len(source),
        )
    if root is None:
        raise XMLSyntaxError("no root element found", 0)
    return Document(root, doc_id, numbering=(elements, ids, counter, max_depth))


def _other_markup(
    source: str, lt: int, in_root: bool, seen_root: bool
) -> tuple[int, str]:
    """Skip the comment, processing instruction, CDATA section or DOCTYPE
    at ``lt``: the offset after it, and a CDATA section's stripped text
    (else ``""``).  Anything else there is a syntax error, diagnosed here."""
    match = _OTHER_RE.match(source, lt)
    if match is not None:
        if match.group(1) is None:
            return match.end(), ""
        if not in_root:
            raise XMLSyntaxError("CDATA outside root element", lt)
        return match.end(), match.group(1).strip()
    for opener, what in _UNTERMINATED:
        if source.startswith(opener, lt):
            raise XMLSyntaxError(f"unterminated {what}", lt)
    if source.startswith("!DOCTYPE", lt + 1):
        # Skip the declaration, including an internal subset.
        depth = 0
        for i in range(lt, len(source)):
            ch = source[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                return i + 1, ""
        raise XMLSyntaxError("unterminated DOCTYPE", lt)
    if source.startswith("/", lt + 1):
        name = _NAME_RE.match(source, lt + 2)
        if name is None:
            raise XMLSyntaxError("malformed end tag", lt)
        if source.find(">", name.end()) == -1:
            raise XMLSyntaxError("unterminated end tag", lt)
        raise XMLSyntaxError("junk in end tag", name.end())
    name = _NAME_RE.match(source, lt + 1)
    if name is None:
        raise XMLSyntaxError("malformed start tag", lt)
    if seen_root and not in_root:
        raise XMLSyntaxError("multiple root elements", lt)
    run = _ATTR_RUN_RE.match(source, name.end())
    _attributes(run.group(), run.start())  # an entity error comes first
    if source.find(">", run.end()) == -1:
        raise XMLSyntaxError("unterminated start tag", lt)
    raise XMLSyntaxError(f"junk in start tag <{name.group()}>", run.end())


def parse_xml_file(path: str, doc_id: int = 0, encoding: str = "utf-8") -> Document:
    """Parse the XML file at ``path`` into a :class:`Document`."""
    with open(path, encoding=encoding) as handle:
        return parse_xml(handle.read(), doc_id=doc_id)
