"""The answer check.

Ground truth is :mod:`repro.query.match` — the brute-force matcher the
whole reproduction is defined against — run over the harness's own trees,
never through the index or the store under test:

* collection index (``depth_limit == 0``): a unit is a document; it is an
  answer iff the query matches it (``query_matches_document``);
* depth-limited index: a unit is an element; the answers are the elements
  the query root binds to (``matching_elements``).

A returned pointer the oracle rejects is a *failure*.  An oracle answer
the index did not return is a *miss*: the Theorem-5 gap of DESIGN.md §5a,
which the published algorithm has by design — reported, not failed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.query import matching_elements, query_matches_document, twig_of
from repro.xmltree import Document

Pointer = tuple[int, int]


def expected_answers(
    query: str, documents: dict[int, Document], depth_limit: int
) -> set[Pointer]:
    """Oracle answers of ``query`` over ``documents`` (``doc_id -> tree``)."""
    twig = twig_of(query)
    if depth_limit <= 0:
        return {
            (doc_id, document.root.node_id)
            for doc_id, document in documents.items()
            if query_matches_document(twig, document)
        }
    return {
        (doc_id, element.node_id)
        for doc_id, document in documents.items()
        for element in matching_elements(twig, document)
    }


@dataclass
class AnswerCheck:
    """Tally of one workload's checked operations."""

    attempted: int = 0
    failed: int = 0
    #: oracle answers over all checked queries, and how many were missed.
    expected: int = 0
    missed: int = 0
    #: first few failures, for the report.
    problems: list[str] = field(default_factory=list)
    _digest: "hashlib._Hash" = field(
        default_factory=lambda: hashlib.blake2b(digest_size=16), repr=False
    )

    def operation(self, ok: bool, what: str = "") -> None:
        """Count one operation that is checked some other way (an exit
        code, an exception, agreement with an earlier answer)."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)

    def answer(self, query: str, returned: list[Pointer], truth: set[Pointer]) -> None:
        """Check one query's pointer list against the oracle's answers
        and fold it into the checksum."""
        self.attempted += 1
        wrong = [pointer for pointer in returned if pointer not in truth]
        if wrong or len(set(returned)) != len(returned):
            self.fail(f"{query}: {len(wrong)} pointer(s) the oracle rejects")
        self.expected += len(truth)
        self.missed += len(truth.difference(returned))
        self._digest.update(query.encode("utf-8"))
        for doc_id, node_id in returned:
            self._digest.update(b"%d,%d;" % (doc_id, node_id))
        self._digest.update(b"\n")

    @property
    def checksum(self) -> str:
        """blake2b over every checked query and its pointer list: two
        runs of one seed must print the same value."""
        return self._digest.hexdigest()

    @property
    def missed_answer_ratio(self) -> float:
        return self.missed / self.expected if self.expected else 0.0


def pointers(results) -> list[Pointer]:
    """``NodePointer`` list -> plain tuples."""
    return [(pointer.doc_id, pointer.node_id) for pointer in results]
