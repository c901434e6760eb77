"""Recursive-descent parser for the supported path-expression fragment.

All twenty queries published in the paper's evaluation section parse with
this grammar (there is a round-trip test enumerating them).
"""

from __future__ import annotations

import re

from repro.errors import QuerySyntaxError, UnsupportedQueryError
from repro.query.ast import Axis, PathExpr, Predicate, Step

# A NameTest: an ASCII letter, "_" or any character from U+0080 up, then
# any run of those, digits, "-" and ".".  Each class is spelled as the
# ASCII characters it excludes: a range reaching U+10FFFF admits the
# same code points but is slow to compile.
_NAME_START = r"[^\x00-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NAME_CHAR = r"[^\x00-\x2c\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f]"
_NAME_RE = re.compile(_NAME_START + _NAME_CHAR + "*")
_UNSUPPORTED_KINDTESTS = {
    "node", "text", "comment", "processing-instruction", "element", "attribute",
}


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # ------------------------------------------------------------------ #
    # Character-level helpers
    # ------------------------------------------------------------------ #

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def _peek(self, token: str) -> bool:
        self._skip_ws()
        return self.text.startswith(token, self.pos)

    def _accept(self, token: str) -> bool:
        if self._peek(token):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._accept(token):
            raise QuerySyntaxError(f"expected {token!r}", self.pos)

    def _fail(self, message: str) -> None:
        raise QuerySyntaxError(message, self.pos)

    # ------------------------------------------------------------------ #
    # Grammar
    # ------------------------------------------------------------------ #

    def parse(self) -> PathExpr:
        self._skip_ws()
        if not self.text.strip():
            self._fail("empty path expression")
        steps = [self._step(self._axis(required=True))]
        while self._peek("/"):
            steps.append(self._step(self._axis(required=True)))
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail(f"trailing input {self.text[self.pos:]!r}")
        return PathExpr(tuple(steps))

    def _axis(self, required: bool) -> Axis:
        if self._accept("//"):
            return Axis.DESCENDANT
        if self._accept("/"):
            return Axis.CHILD
        if required:
            self._fail("expected '/' or '//'")
        return Axis.CHILD

    def _step(self, axis: Axis) -> Step:
        self._skip_ws()
        if self._peek("@"):
            raise UnsupportedQueryError("attribute axis is not supported")
        if self._peek("*"):
            raise UnsupportedQueryError("wildcard NameTest is not supported")
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            self._fail("expected a name test")
        name = match.group(0)
        self.pos = match.end()
        if self._peek("::"):
            raise UnsupportedQueryError(
                f"axis {name!r} is not supported (only '/' and '//')"
            )
        if name in _UNSUPPORTED_KINDTESTS and self._peek("("):
            raise UnsupportedQueryError(f"KindTest {name}() is not supported")
        predicates: list[Predicate] = []
        while self._peek("["):
            predicates.append(self._predicate())
        return Step(axis, name, tuple(predicates))

    def _predicate(self) -> Predicate:
        self._expect("[")
        self._skip_ws()
        # Leading "." selects the context node; ".//x" makes the first
        # predicate step a descendant step.
        if self._accept("."):
            if not self._peek("/"):
                self._fail("expected '/' or '//' after '.' in predicate")
            first_axis = self._axis(required=True)
        else:
            first_axis = Axis.CHILD
            if self._peek("/"):
                # "[/x]" — an absolute path inside a predicate is outside
                # the fragment.
                raise UnsupportedQueryError(
                    "absolute paths inside predicates are not supported"
                )
        steps = [self._step(first_axis)]
        while self._peek("/"):
            steps.append(self._step(self._axis(required=True)))
        value: str | None = None
        self._skip_ws()
        if self._accept("="):
            value = self._literal()
        elif self._peek("<") or self._peek(">") or self._peek("!"):
            raise UnsupportedQueryError(
                "only '=' value comparisons are supported"
            )
        self._expect("]")
        return Predicate(PathExpr(tuple(steps)), value)

    def _literal(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "\"'":
            self._fail("expected a quoted string literal")
        quote = self.text[self.pos]
        end = self.text.find(quote, self.pos + 1)
        if end < 0:
            self._fail("unterminated string literal")
        value = self.text[self.pos + 1 : end]
        self.pos = end + 1
        return value


def parse_query(text: str) -> PathExpr:
    """Parse a path expression.

    Raises:
        QuerySyntaxError: malformed input.
        UnsupportedQueryError: valid XPath outside the supported fragment
            (other axes, wildcards, KindTests, non-equality comparisons).
    """
    return _Parser(text).parse()
