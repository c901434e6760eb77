"""Region-encoding structural-join twig evaluation.

The join-based operator family ([3], [7] in the paper) evaluates twigs
over per-label element lists carrying ``(start, end, level)`` region
encodings.  This engine computes, bottom-up over the query tree, the set
of elements that can bind each query node, using sorted-list semi-joins:

* descendant edge: parent survives if some element of the child set has
  ``parent.start < child.start <= parent.end``;
* child edge: additionally ``child.level == parent.level + 1``.

Both tests run on start-sorted arrays with binary search, so a semi-join
costs ``O((|P| + |C|) log |C|)`` rather than the nested-loop product.
The engine serves as the second no-index baseline and as an alternative
refinement backend.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.query.ast import Axis
from repro.query.twig import QueryNode, TwigQuery
from repro.storage.primary import NodePointer, PrimaryXMLStore
from repro.xmltree.model import Document, Element


@dataclass(frozen=True, slots=True)
class _Region:
    start: int
    end: int
    level: int


class _LabelLists:
    """Per-document inverted lists: label -> start-sorted regions, plus a
    value map for text-equality predicates."""

    def __init__(self, document: Document) -> None:
        self.by_label: dict[str, list[_Region]] = {}
        self.values: dict[int, set[str]] = {}
        for element in document.elements():
            region = _Region(element.node_id, element.end, element.level)
            self.by_label.setdefault(element.tag, []).append(region)
            texts = {text.value for text in element.text_children()}
            if texts:
                self.values[element.node_id] = texts
        # Documents enumerate elements in preorder, so lists are already
        # start-sorted; assert cheaply in debug runs.
        for regions in self.by_label.values():
            assert all(
                regions[i].start < regions[i + 1].start
                for i in range(len(regions) - 1)
            )

    def regions(self, label: str) -> list[_Region]:
        return self.by_label.get(label, [])


class _SubtreeLabelLists(_LabelLists):
    """Inverted lists restricted to one element's subtree (used by the
    refinement interface, where the binding scope is a candidate unit)."""

    def __init__(self, root: Element) -> None:  # noqa: D401 - see base
        self.by_label = {}
        self.values = {}
        for element in root.iter():
            region = _Region(element.node_id, element.end, element.level)
            self.by_label.setdefault(element.tag, []).append(region)
            texts = {text.value for text in element.text_children()}
            if texts:
                self.values[element.node_id] = texts


class StructuralJoinEngine:
    """Structural-join twig matcher over a :class:`PrimaryXMLStore`."""

    def __init__(self, store: PrimaryXMLStore) -> None:
        self._store = store
        # Keyed by object identity (documents from different sources can
        # share doc_id 0, e.g. clustered copy units); the document is
        # kept in the value to anchor the id.
        self._lists_cache: dict[int, tuple[Document, _LabelLists]] = {}
        #: semi-join invocations performed (work counter for benches).
        self.joins_performed = 0

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, twig: TwigQuery) -> list[NodePointer]:
        """Evaluate over every stored document; returns root bindings."""
        results: list[NodePointer] = []
        for doc_id in self._store.doc_ids():
            document = self._store.get_document(doc_id)
            for region in self.evaluate_document(twig, document):
                results.append(NodePointer(doc_id, region.start))
        return results

    def evaluate_document(
        self, twig: TwigQuery, document: Document
    ) -> list[_Region]:
        """Root bindings of ``twig`` within one document (as regions)."""
        lists = self._lists_for(document)
        bindings = self._bindings(twig.root, lists)
        if twig.leading_axis is Axis.CHILD:
            bindings = [region for region in bindings if region.start == 0]
        return bindings

    def evaluate_elements(
        self, twig: TwigQuery, document: Document
    ) -> list[Element]:
        """Like :meth:`evaluate_document` but resolves to elements."""
        return [
            document.element_at(region.start)
            for region in self.evaluate_document(twig, document)
        ]

    # ------------------------------------------------------------------ #
    # Refinement interface (same contract as NavigationalEngine)
    # ------------------------------------------------------------------ #

    def refine(self, twig: TwigQuery, element: Element) -> bool:
        """Does the twig match with its root bound to ``element``?

        Runs the bottom-up semi-joins over inverted lists built for the
        element's *subtree* only, then checks that the subtree root is a
        root binding — the same contract as the navigational refiner,
        with join-based mechanics.
        """
        lists = _SubtreeLabelLists(element)
        bindings = self._bindings(twig.root, lists)
        return any(region.start == element.node_id for region in bindings)

    def refine_group(
        self, twig: TwigQuery, document: Document, node_ids: list[int]
    ) -> list[bool]:
        """Refine several candidates of one already-loaded document.

        One bottom-up semi-join pass over the whole document's inverted
        lists answers every candidate at once: the region-containment
        predicate already confines matches to each binding's subtree, so
        membership in the document-wide root-binding set is equivalent
        to the per-subtree :meth:`refine` result.
        """
        lists = self._lists_for(document)
        bindings = {region.start for region in self._bindings(twig.root, lists)}
        return [node_id in bindings for node_id in node_ids]

    # ------------------------------------------------------------------ #
    # Bottom-up semi-joins
    # ------------------------------------------------------------------ #

    def _bindings(self, node: QueryNode, lists: _LabelLists) -> list[_Region]:
        candidates = lists.regions(node.label)
        if node.value is not None:
            candidates = [
                region
                for region in candidates
                if node.value in lists.values.get(region.start, ())
            ]
        for axis, child in node.edges:
            if not candidates:
                break
            child_bindings = self._bindings(child, lists)
            candidates = self._semijoin(candidates, child_bindings, axis)
        return candidates

    def _semijoin(
        self,
        parents: list[_Region],
        children: list[_Region],
        axis: Axis,
    ) -> list[_Region]:
        """Parents with at least one child/descendant among ``children``."""
        self.joins_performed += 1
        if not children:
            return []
        starts = [child.start for child in children]
        survivors: list[_Region] = []
        for parent in parents:
            low = bisect_right(starts, parent.start)
            high = bisect_left(starts, parent.end, lo=low)
            # children[low:high+1] are those with start in (p.start, p.end].
            if axis is Axis.DESCENDANT:
                if low < len(children) and children[low].start <= parent.end:
                    survivors.append(parent)
                continue
            target_level = parent.level + 1
            for child in children[low : high + 1]:
                if child.start > parent.end:
                    break
                if child.level == target_level:
                    survivors.append(parent)
                    break
        return survivors

    # ------------------------------------------------------------------ #
    # List cache
    # ------------------------------------------------------------------ #

    def _lists_for(self, document: Document) -> _LabelLists:
        cached = self._lists_cache.get(id(document))
        if cached is not None and cached[0] is document:
            return cached[1]
        if len(self._lists_cache) >= 128:
            self._lists_cache.clear()
        lists = _LabelLists(document)
        self._lists_cache[id(document)] = (document, lists)
        return lists
