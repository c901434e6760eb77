"""Implementation-independent metrics (Section 6.2).

For a query over an index the paper defines::

    sel = 1 - rst / ent     (selectivity)
    pp  = 1 - cdt / ent     (pruning power)
    fpr = 1 - rst / cdt     (false-positive ratio)

where ``ent`` is the number of index entries, ``cdt`` the number of
candidates the pruning phase returns, and ``rst`` the number of entries
that produce at least one final result.  ``rst`` is computed against the
brute-force ground truth of :mod:`repro.query.match`, never against the
index — which also lets this reproduction *measure* false negatives
(true results the index pruned; see DESIGN.md §5a), a quantity the paper
assumes to be identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.index import FixIndex
from repro.core.processor import FixQueryProcessor
from repro.query.ast import Axis
from repro.query.decompose import decompose
from repro.query.match import matches_at, query_matches_document
from repro.query.twig import TwigQuery, twig_of
from repro.storage import NodePointer


@dataclass
class PruningMetrics:
    """The Section 6.2 triple, plus false-negative accounting."""

    ent: int
    cdt: int
    rst: int
    false_negatives: int = 0
    #: the true-result units, for downstream checks.
    true_units: set[NodePointer] = field(default_factory=set, repr=False)

    # Division guards: each ratio is undefined when its denominator is
    # zero but its numerator is not (e.g. ``cdt > 0`` with ``ent == 0``
    # would make the triple internally inconsistent), so all three
    # return NaN for that case — consistently, rather than the old
    # asymmetric mix of silent zeros.  A 0/0 ratio is vacuous (nothing
    # to measure) and stays 0.0, preserving the empty-index behaviour.

    @property
    def sel(self) -> float:
        """Selectivity: fraction of entries that produce no result."""
        if self.ent:
            return 1.0 - self.rst / self.ent
        return 0.0 if self.rst == 0 else float("nan")

    @property
    def pp(self) -> float:
        """Pruning power: fraction of entries the index pruned."""
        if self.ent:
            return 1.0 - self.cdt / self.ent
        return 0.0 if self.cdt == 0 else float("nan")

    @property
    def fpr(self) -> float:
        """False-positive ratio among the candidates."""
        if self.cdt:
            return 1.0 - self.rst / self.cdt
        return 0.0 if self.rst == 0 else float("nan")

    def as_row(self) -> tuple[float, float, float]:
        """``(sel, pp, fpr)`` for table printing."""
        return self.sel, self.pp, self.fpr


def true_result_units(index: FixIndex, twig: TwigQuery) -> set[NodePointer]:
    """Ground truth: the units of ``index`` that produce >= 1 result.

    * Collection index (depth limit 0): a unit is a document; it produces
      a result iff the original query matches it.
    * Depth-limited index: a unit is an element; it produces a result iff
      the leading-axis-rewritten query matches rooted at that element
      (``//``-leading), or the element is the document root and the query
      matches there (``/``-leading).
    """
    units: set[NodePointer] = set()
    if index.config.depth_limit <= 0:
        for doc_id in index.store.doc_ids():
            document = index.store.get_document(doc_id)
            if query_matches_document(twig, document):
                units.add(NodePointer(doc_id, document.root.node_id))
        return units
    for doc_id in index.store.doc_ids():
        document = index.store.get_document(doc_id)
        memo: dict[tuple[int, int], bool] = {}
        if twig.leading_axis is Axis.CHILD:
            if matches_at(twig.root, document.root, memo):
                units.add(NodePointer(doc_id, document.root.node_id))
            continue
        for element in document.elements():
            if element.tag == twig.root.label and matches_at(
                twig.root, element, memo
            ):
                units.add(NodePointer(doc_id, element.node_id))
    return units


def evaluate_pruning(
    index: FixIndex,
    query: TwigQuery | str,
    processor: FixQueryProcessor | None = None,
) -> PruningMetrics:
    """Compute ``(sel, pp, fpr)`` and false negatives for one query."""
    twig = query if isinstance(query, TwigQuery) else twig_of(query)
    processor = processor or FixQueryProcessor(index)
    candidates = {entry.pointer for entry in processor.prune(twig)}
    truth = true_result_units(index, twig)
    missed = truth - candidates
    return PruningMetrics(
        ent=index.entry_count,
        cdt=len(candidates),
        rst=len(truth),
        false_negatives=len(missed),
        true_units=truth,
    )


@dataclass
class MetricAverages:
    """Aggregates over a query batch (Figure 5's bars)."""

    queries: int = 0
    sel_sum: float = 0.0
    pp_sum: float = 0.0
    fpr_sum: float = 0.0
    false_negatives: int = 0

    def add(self, metrics: PruningMetrics) -> None:
        self.queries += 1
        self.sel_sum += metrics.sel
        self.pp_sum += metrics.pp
        self.fpr_sum += metrics.fpr
        self.false_negatives += metrics.false_negatives

    @property
    def avg_sel(self) -> float:
        return self.sel_sum / self.queries if self.queries else 0.0

    @property
    def avg_pp(self) -> float:
        return self.pp_sum / self.queries if self.queries else 0.0

    @property
    def avg_fpr(self) -> float:
        return self.fpr_sum / self.queries if self.queries else 0.0


def classify_selectivity(sel: float) -> str:
    """The paper's informal hi / md / lo buckets.

    Queries with selectivity very close to 0 or 1 are excluded from its
    random batches ("we eliminated queries that have selectivity 0 and
    1"); the thresholds here are the ones the representative-query lists
    imply: >= 0.9 high, >= 0.4 medium, else low.
    """
    if sel >= 0.9:
        return "hi"
    if sel >= 0.4:
        return "md"
    return "lo"
