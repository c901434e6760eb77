"""Unit tests for the XML parser and serializer."""

from __future__ import annotations

import time
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.errors import XMLSyntaxError
from repro.xmltree import (
    Document,
    Element,
    Text,
    parse_xml,
    serialize,
    serialize_fragment,
)


class TestParserBasics:
    def test_single_element(self):
        doc = parse_xml("<a/>")
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse_xml("<a><b><c/></b><d/></a>")
        assert [e.tag for e in doc.root.iter()] == ["a", "b", "c", "d"]

    def test_text_content(self):
        doc = parse_xml("<a>hello</a>")
        assert doc.root.text() == "hello"

    def test_mixed_content(self):
        doc = parse_xml("<a>x<b>y</b>z</a>")
        assert doc.root.text() == "xz"
        b = next(doc.root.find_all("b"))
        assert b.text() == "y"

    def test_whitespace_only_text_dropped(self):
        doc = parse_xml("<a>\n  <b/>\n</a>")
        assert doc.root.text() == ""
        assert doc.root.size() == 2

    def test_preorder_ids_count_text_in_place(self):
        doc = parse_xml('<a k="v">s<b>t</b><c/>u</a>')
        assert [
            (getattr(n, "tag", None) or n.value, n.node_id)
            for n in document_order(doc.root)
        ] == [("a", 0), ("s", 1), ("b", 2), ("t", 3), ("c", 4), ("u", 5)]
        assert [(e.node_id, e.end) for e in doc.elements()] == [(0, 5), (2, 3), (4, 4)]
        assert [e.attributes for e in doc.elements()] == [{"k": "v"}, {}, {}]

    def test_attributes(self):
        doc = parse_xml('<a id="1" name=\'x y\'/>')
        assert doc.root.attributes == {"id": "1", "name": "x y"}

    def test_xml_declaration_and_comment_skipped(self):
        doc = parse_xml('<?xml version="1.0"?><!-- hi --><a/><!-- bye -->')
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse_xml('<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>')
        assert doc.root.text() == "t"

    def test_processing_instruction_skipped(self):
        doc = parse_xml("<a><?target data?><b/></a>")
        assert doc.root.size() == 2

    def test_cdata(self):
        doc = parse_xml("<a><![CDATA[<raw> & data]]></a>")
        assert doc.root.text() == "<raw> & data"

    def test_entities_in_text(self):
        doc = parse_xml("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>")
        assert doc.root.text() == "<x> & \"y\" 'z'"

    def test_numeric_character_references(self):
        doc = parse_xml("<a>&#65;&#x42;</a>")
        assert doc.root.text() == "AB"

    def test_entities_in_attributes(self):
        doc = parse_xml('<a t="&amp;&lt;"/>')
        assert doc.root.attributes["t"] == "&<"

    def test_namespace_prefixes_kept_verbatim(self):
        doc = parse_xml("<ns:a><ns:b/></ns:a>")
        assert doc.root.tag == "ns:a"


def expat_shape(source):
    """``(tag, attributes, text runs)`` per element in preorder, as
    stdlib expat reads ``source``.  A run is the stripped character data
    between two element boundaries; comments, PIs and CDATA edges split
    it into pieces that are stripped one by one, as the parser does."""
    shape, open_elements, pieces = [], [], []

    def end_piece(*_):
        piece = "".join(pieces).strip()
        pieces.clear()
        if piece:
            open_elements[-1][-1] += piece

    def end_run():
        end_piece()
        if open_elements and open_elements[-1][-1]:
            open_elements[-1].append("")

    def start(tag, attributes):
        end_run()
        shape.append((tag, attributes, [""]))
        open_elements.append(shape[-1][2])

    def end(_tag):
        end_run()
        open_elements.pop()

    reader = expat.ParserCreate()
    reader.buffer_text = True
    reader.StartElementHandler = start
    reader.EndElementHandler = end
    reader.CharacterDataHandler = pieces.append
    reader.CommentHandler = end_piece
    reader.ProcessingInstructionHandler = end_piece
    reader.StartCdataSectionHandler = end_piece
    reader.EndCdataSectionHandler = end_piece
    reader.Parse(source, True)
    return [(tag, attrs, [run for run in runs if run]) for tag, attrs, runs in shape]


def parsed_shape(document):
    """The same shape from a parsed :class:`Document`."""
    shape = []
    for element in document.elements():
        runs = [""]
        for child in element.children:
            if isinstance(child, Text):
                runs[-1] += child.value
            elif runs[-1]:
                runs.append("")
        shape.append((element.tag, element.attributes, [run for run in runs if run]))
    return shape


def clone(element):
    """An unnumbered copy of the subtree, built through the public
    constructors."""
    copy = Element(element.tag, dict(element.attributes))
    for child in element.children:
        if isinstance(child, Text):
            copy.add_text(child.value)
        else:
            copy.append(clone(child))
    return copy


def document_order(element):
    """Every node of a numbered tree, text in place."""
    yield element
    for child in element.children:
        if isinstance(child, Text):
            yield child
        else:
            yield from document_order(child)


def numbering(document):
    return [
        (e.tag, e.node_id, e.end, e.level, [c.node_id for c in e.children])
        for e in document.elements()
    ] + [document.element_count(), document.node_count(), document.max_depth()]


def check_against_oracles(source):
    document = parse_xml(source)
    assert parsed_shape(document) == expat_shape(source)
    # The numbering the scanner assigned is what a second walk assigns.
    assert numbering(document) == numbering(Document(clone(document.root)))
    not_elements = {-1, document.node_count()}
    for element in document.elements():
        assert document.element_at(element.node_id) is element
        for child in element.children:
            assert child.parent is element
            if isinstance(child, Text):
                not_elements.add(child.node_id)
    for node_id in not_elements:
        with pytest.raises(KeyError):
            document.element_at(node_id)
    # Elements and text share one preorder sequence, text in place, and
    # elements() is the element subsequence of it (tags and attributes
    # were checked against expat above).
    nodes = list(document_order(document.root))
    assert [node.node_id for node in nodes] == list(range(document.node_count()))
    assert [n for n in nodes if isinstance(n, Element)] == list(document.elements())


# Characters that mean the same to both parsers anywhere in content:
# no markup, no "]" (a stray "]]>" is an error only to expat), no "\r"
# (expat normalises line ends).
TEXT = "abcXYZ019 .,;:!?(){}=/>_-\n\té中\U0001F600"
NAMES = st.sampled_from(["a", "b", "c", "ns:d", "e-f", "g.h", "_i", "é"])
SPACE = st.text(" \n\t", max_size=2)
REFERENCES = st.sampled_from(
    ["&lt;", "&gt;", "&amp;", "&apos;", "&quot;", "&#65;", "&#x42;", "&#233;"]
    + ["&#x4E2D;", "&#128512;", "&#x10FFFF;"]
)


@st.composite
def attribute_runs(draw):
    run = ""
    for name in draw(st.lists(NAMES, unique=True, max_size=3)):
        quote = draw(st.sampled_from("'\""))
        other = "'" if quote == '"' else '"'
        # expat turns tabs and newlines in a value into spaces.
        plain = st.text(TEXT.replace("\n", "").replace("\t", "") + other, max_size=6)
        value = "".join(draw(st.lists(plain | REFERENCES, max_size=3)))
        run += f"{draw(SPACE) or ' '}{name}{draw(SPACE)}={draw(SPACE)}{quote}{value}{quote}"
    return run


def elements(content):
    def render(name, attributes, space, children, closing_space):
        if not children:
            return f"<{name}{attributes}{space}/>"
        body = "".join(children)
        return f"<{name}{attributes}{space}>{body}</{name}{closing_space}>"

    return st.builds(
        render, NAMES, attribute_runs(), SPACE, st.lists(content, max_size=4), SPACE
    )


MISC = st.one_of(
    SPACE,
    st.text(TEXT.replace("-", ""), max_size=8).map(lambda t: f"<!--{t}-->"),
    st.text(TEXT.replace("?", ""), max_size=8).map(lambda t: f"<?pi {t}?>"),
)
CONTENT = st.recursive(
    st.one_of(
        MISC,
        REFERENCES,
        st.text(TEXT, max_size=8),
        st.text(TEXT + "<&", max_size=8).map(lambda t: f"<![CDATA[{t}]]>"),
    ),
    elements,
    max_leaves=25,
)
DOCUMENTS = st.builds(
    "{}{}{}{}{}{}".format,
    st.sampled_from(["", '<?xml version="1.0"?>']),
    MISC,
    st.sampled_from(["", "<!DOCTYPE a [<!ELEMENT a ANY> <!ATTLIST a b CDATA #IMPLIED>]>"]),
    MISC,
    elements(CONTENT),
    MISC,
)


class TestAgainstOracles:
    """The scanner against stdlib expat (same tags, attributes and text)
    and against :meth:`Document.renumber` (same numbering)."""

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_generated_documents(self, source):
        check_against_oracles(source)

    @pytest.mark.parametrize("name", ["xbench", "treebank", "dblp", "xmark"])
    def test_dataset_documents(self, name):
        document = load_dataset(name, 0.02, seed=7).documents[0]
        check_against_oracles(serialize(document, indent=1))
        check_against_oracles(serialize(document))


MALFORMED = [
    "",
    "just text",
    "<a>",
    "<a></b>",
    "</a>",
    "<a/><b/>",
    "<a><b></a></b>",
    "<a>&unknown;</a>",
    "<a",
    "<a b=c/>",
    "<!-- unterminated <a/>",
    "<![CDATA[ unterminated <a/>",
    "<a/>trailing",
    "text<a/>",
    "<a>&#1114112;</a>",
    "<a>&#99999999999999999999;</a>",
    "<a>&#xD800;</a>",
    "<a>&#0;</a>",
]


class TestParserErrors:
    @pytest.mark.parametrize("source", MALFORMED)
    def test_malformed_input_raises(self, source):
        with pytest.raises(XMLSyntaxError):
            parse_xml(source)

    @pytest.mark.parametrize("source", MALFORMED)
    def test_expat_rejects_it_too(self, source):
        with pytest.raises(expat.ExpatError):
            expat_shape(source)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml("<a>&nope;</a>")
        assert excinfo.value.position is not None

    # Recorded from the hand-written tokenizer this parser replaced:
    # every diagnosis keeps its message and its offset.
    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("text<a/>", "character data outside root element", 0),
            ("<a/> x <b/>", "character data outside root element", 4),
            ("<a/>trailing", "character data after document end", 4),
            ("<a>>/a>", "character data after document end", 3),
            ("<a/><![CDATA[x]]>", "CDATA outside root element", 4),
            ("<a><!-- x</a>", "unterminated comment", 3),
            ("<!-->", "unterminated comment", 0),
            ("<a><![CDATA[x</a>", "unterminated CDATA section", 3),
            ("<a><?pi x</a>", "unterminated processing instruction", 3),
            ("<!DOCTYPE a [ <!ELEMENT a> ", "unterminated DOCTYPE", 0),
            ("<a><b x='1'", "unterminated start tag", 3),
            ("<a></a x", "unterminated end tag", 3),
            ("<a>< b/></a>", "malformed start tag", 3),
            ("<a><!ELEMENT x></a>", "malformed start tag", 3),
            ("<![CDATA", "malformed start tag", 0),
            ("<a></ a>", "malformed end tag", 3),
            ('<a b="1"c="2"/>', "junk in start tag <a>", 8),
            ("<a b=c/>", "junk in start tag <a>", 2),
            ('<a b="1" / x></a>', "junk in start tag <a>", 8),
            ("<a/ />", "junk in start tag <a>", 2),
            ("<a b='1 >", "junk in start tag <a>", 2),
            ("<a></a junk>", "junk in end tag", 6),
            ("<a/></a>", "end tag </a> with no open element", 4),
            ("<a><b></c></b></a>", "end tag </c> does not match <b>", 6),
            ("<a></a><b/>", "multiple root elements", 7),
            ('<a/><b t="&nope;"/>', "multiple root elements", 4),
            ("<a/><b junk>", "multiple root elements", 4),
            (
                "<a><b><c>",
                "document ended with 3 unclosed element(s): <c> still open",
                9,
            ),
            ("<!-- only -->", "no root element found", 0),
            ("<a>  x &nope; y</a>", "unknown entity &nope;", 5),
            ('<a s="1" t="x&nope;"/>', "unknown entity &nope;", 9),
            ('<a t="&nope;" junk>', "unknown entity &nope;", 2),
            ("<a>x &#xFFFE;</a>", "character reference &#xFFFE; is not", 5),
        ],
    )
    def test_message_and_offset(self, source, message, position):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml(source)
        assert str(excinfo.value).startswith(message)
        assert excinfo.value.position == position

    @pytest.mark.parametrize(
        "source",
        [
            "<a" + " " * 200_000 + "x></a>",
            "<a " + " ".join(f'k{i}="{i}"' for i in range(25_000)) + " junk></a>",
            "<r><b" + " " * 200_000,
            # U+00A0 is a name character here, never tag whitespace.
            "<a " + "\u00a0" * 200_000 + "!></a>",
        ],
        ids=["spaces-then-junk", "attributes-then-junk", "unterminated", "nbsp"],
    )
    def test_rejection_is_linear(self, source):
        started = time.perf_counter()
        with pytest.raises(XMLSyntaxError):
            parse_xml(source)
        assert time.perf_counter() - started < 1.0


class TestParserLeniencies:
    def test_duplicate_attribute_keeps_the_last(self):
        assert parse_xml("<a b='1' b=\"2\"/>").root.attributes == {"b": "2"}

    @pytest.mark.parametrize("source", ["<a / >", "<a></a >", "<a\n/>", "<a ></a\t>"])
    def test_spaces_before_the_closing_bracket(self, source):
        assert serialize_fragment(parse_xml(source).root) == "<a/>"

    def test_text_is_stripped_before_expansion(self):
        assert parse_xml("<a> &#32;x&#32; </a>").root.text() == " x "

    def test_cdata_is_not_expanded(self):
        assert parse_xml("<a><![CDATA[ &amp; ]]></a>").root.text() == "&amp;"

    def test_comment_splits_text_into_two_nodes(self):
        root = parse_xml("<a>x<!--c-->y<![CDATA[z]]></a>").root
        assert [(t.value, t.node_id) for t in root.children] == [
            ("x", 1),
            ("y", 2),
            ("z", 3),
        ]
        assert root.end == 3

class TestSerializer:
    def test_compact_roundtrip(self):
        source = '<a x="1"><b>hello &amp; goodbye</b><c/></a>'
        doc = parse_xml(source)
        again = parse_xml(serialize(doc))
        assert serialize(again) == serialize(doc)

    def test_pretty_print_roundtrips_structurally(self):
        doc = parse_xml("<a><b>t</b><c/></a>")
        pretty = serialize(doc, indent=2)
        assert "\n" in pretty
        again = parse_xml(pretty)
        assert [e.tag for e in again.root.iter()] == [e.tag for e in doc.root.iter()]
        assert next(again.root.find_all("b")).text() == "t"

    def test_fragment_has_no_declaration(self):
        doc = parse_xml("<a><b/></a>")
        fragment = serialize_fragment(doc.root)
        assert not fragment.startswith("<?xml")
        assert fragment == "<a><b/></a>"

    def test_escaping(self):
        root = Element("a", {"k": 'v"<'})
        root.add_text("<&>")
        text = serialize_fragment(root)
        assert "&lt;&amp;&gt;" in text
        assert "&quot;" in text
        reparsed = parse_xml(text)
        assert reparsed.root.text() == "<&>"
        assert reparsed.root.attributes["k"] == 'v"<'
