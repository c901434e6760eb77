"""Query evaluation engines.

FIX is a *pruning* index: it needs a refinement processor to validate
candidates, and it is benchmarked against full evaluators running with
no index support (Figure 6).  This package provides:

* :class:`~repro.engine.navigational.NavigationalEngine` — a NoK-style
  navigational twig matcher.  Used (a) standalone over the whole primary
  store as the no-index baseline, and (b) as the refinement operator run
  on candidates the FIX index returns.
* :class:`~repro.engine.structural_join.StructuralJoinEngine` — the
  classic region-encoding structural-join evaluator, the "join-based"
  operator family the paper cites; a second baseline and an alternative
  refinement backend.

Both engines answer the same question — which elements can the query
root bind to — so their outputs are directly comparable to the ground
truth in :mod:`repro.query.match` (and are tested against it).

Both also satisfy the refinement contract FIX couples with (``refine``,
``refine_group``, ``evaluate_document``); :func:`refine_candidates` is
the one place Algorithm 2's refinement rule is applied to it.
"""

from repro.engine.navigational import EngineStats, NavigationalEngine
from repro.engine.structural_join import StructuralJoinEngine
from repro.query.ast import Axis
from repro.query.twig import TwigQuery
from repro.xmltree.model import Document

__all__ = [
    "EngineStats",
    "NavigationalEngine",
    "StructuralJoinEngine",
    "refine_candidates",
]


def refine_candidates(
    refiner, twig: TwigQuery, tree: Document, node_ids: list[int]
) -> list[bool]:
    """One verdict per candidate ``node_ids`` of one fetched ``tree`` (a
    primary document, or a clustered copy unit whose only candidate is
    its root).

    A ``/``-leading twig (what refinement runs on depth-limited indexes,
    Algorithm 2 lines 7-8) must bind each candidate element itself.  A
    ``//``-leading twig only reaches refinement on collection indexes,
    where a unit survives iff the query matches anywhere inside it — one
    evaluation answers every candidate of the tree.
    """
    if twig.leading_axis is Axis.CHILD:
        return refiner.refine_group(twig, tree, node_ids)
    return [bool(refiner.evaluate_document(twig, tree))] * len(node_ids)
