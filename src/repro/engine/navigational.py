"""NoK-style navigational twig evaluation.

The NoK processor the paper pairs FIX with ([32] in the paper) evaluates
a twig by navigating the document in order, matching the pattern tree
against the node being visited.  This implementation follows that shape:

* a document-order traversal proposes every element whose tag equals the
  query root's NameTest as a binding;
* each proposal is verified by navigating only the element's subtree
  (child edges step down one level, descendant edges walk the subtree),
  with per-document memoization so overlapping verifications — e.g. in
  recursive data — are not repeated;
* counters record elements visited, so benches can report work done
  independent of wall time.

The same verifier doubles as FIX's *refinement* operator: for an index
candidate the engine verifies the leading-axis-rewritten query rooted at
exactly that element (Algorithm 2, lines 7-12).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import CounterBlock
from repro.query.ast import Axis
from repro.query.twig import QueryNode, TwigQuery
from repro.storage.primary import NodePointer, PrimaryXMLStore
from repro.xmltree.model import Document, Element


@dataclass
class EngineStats(CounterBlock):
    """Work counters (monotonic)."""

    PREFIX = "engine."

    elements_scanned: int = 0
    verifications: int = 0
    documents_opened: int = 0


class NavigationalEngine:
    """Navigational twig matcher over a :class:`PrimaryXMLStore`."""

    def __init__(self, store: PrimaryXMLStore) -> None:
        self._store = store
        self.stats = EngineStats()

    # ------------------------------------------------------------------ #
    # Full evaluation (the no-index baseline)
    # ------------------------------------------------------------------ #

    def evaluate(self, twig: TwigQuery) -> list[NodePointer]:
        """Evaluate over every stored document; returns root bindings."""
        results: list[NodePointer] = []
        for doc_id in self._store.doc_ids():
            document = self._store.get_document(doc_id)
            self.stats.documents_opened += 1
            for element in self.evaluate_document(twig, document):
                results.append(NodePointer(doc_id, element.node_id))
        return results

    def evaluate_document(
        self, twig: TwigQuery, document: Document
    ) -> list[Element]:
        """Root bindings of ``twig`` within one document, in order."""
        memo: dict[tuple[int, int], bool] = {}
        if twig.leading_axis is Axis.CHILD:
            candidates: list[Element] = [document.root]
        else:
            candidates = []
            for element in document.elements():
                self.stats.elements_scanned += 1
                if element.tag == twig.root.label:
                    candidates.append(element)
        return [
            element
            for element in candidates
            if self._verify(twig.root, element, memo)
        ]

    # ------------------------------------------------------------------ #
    # Refinement (Algorithm 2's second phase)
    # ------------------------------------------------------------------ #

    def refine(self, twig: TwigQuery, element: Element) -> bool:
        """Does the (already leading-axis-rewritten) twig match with its
        root bound to ``element``?"""
        return self._verify(twig.root, element, {})

    def refine_group(
        self, twig: TwigQuery, document: Document, node_ids: list[int]
    ) -> list[bool]:
        """Refine several candidates of one already-loaded document.

        The verification memo is shared across the whole group (it is
        keyed by (query node, element), so overlapping subtrees — e.g.
        nested candidates in recursive data — are verified once), which
        is the point of grouping refinement by document.
        """
        memo: dict[tuple[int, int], bool] = {}
        self.stats.documents_opened += 1
        return [
            self._verify(twig.root, document.element_at(node_id), memo)
            for node_id in node_ids
        ]

    # ------------------------------------------------------------------ #
    # Verification core
    # ------------------------------------------------------------------ #

    def _verify(
        self,
        node: QueryNode,
        element: Element,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        key = (id(node), element.node_id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        self.stats.verifications += 1
        result = self._verify_uncached(node, element, memo)
        memo[key] = result
        return result

    def _verify_uncached(
        self,
        node: QueryNode,
        element: Element,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        if node.label != element.tag:
            return False
        if node.value is not None and not any(
            text.value == node.value for text in element.text_children()
        ):
            return False
        for axis, child in node.edges:
            if axis is Axis.CHILD:
                hit = False
                for candidate in element.child_elements():
                    self.stats.elements_scanned += 1
                    if self._verify(child, candidate, memo):
                        hit = True
                        break
            else:
                hit = self._verify_descendant(child, element, memo)
            if not hit:
                return False
        return True

    def _verify_descendant(
        self,
        node: QueryNode,
        element: Element,
        memo: dict[tuple[int, int], bool],
    ) -> bool:
        stack = list(element.child_elements())
        while stack:
            candidate = stack.pop()
            self.stats.elements_scanned += 1
            if self._verify(node, candidate, memo):
                return True
            stack.extend(candidate.child_elements())
        return False
