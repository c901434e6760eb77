"""FIX: Feature-based Indexing Technique for XML Documents — a complete
reproduction of Zhang, Özsu, Ilyas & Aboulnaga (UWaterloo TR CS-2006-07).

Quickstart::

    from repro import (
        FixIndex, FixIndexConfig, FixQueryProcessor, PrimaryXMLStore,
        parse_xml,
    )

    store = PrimaryXMLStore()
    store.add_document(parse_xml("<bib><article><author/></article></bib>"))
    index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
    processor = FixQueryProcessor(index)
    result = processor.query("//article[author]")
    print(result.results)        # pointers to matching units
    print(result.candidate_count)

See ``examples/`` for runnable end-to-end scenarios, ``DESIGN.md`` for the
system inventory, and ``EXPERIMENTS.md`` for the paper-vs-measured record.

``import repro`` loads no subpackage: each name in ``__all__`` imports
its module at first use (PEP 562), so a command-line process pays only
for the layers its subcommand runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.query import TwigQuery
    from repro.xmltree import Document, Element

#: public name -> defining module, by layer.
_EXPORTS = {
    # XML data model and parsing
    "Document": "repro.xmltree",
    "Element": "repro.xmltree",
    "Text": "repro.xmltree",
    "parse_xml": "repro.xmltree",
    "serialize": "repro.xmltree",
    # Primary storage
    "NodePointer": "repro.storage",
    "PrimaryXMLStore": "repro.storage",
    # Path expressions and the ground-truth matcher
    "TwigQuery": "repro.query",
    "decompose": "repro.query",
    "matching_elements": "repro.query",
    "parse_query": "repro.query",
    "query_matches_document": "repro.query",
    "twig_of": "repro.query",
    # Spectral feature keys (Section 3)
    "EdgeLabelEncoder": "repro.spectral",
    "FeatureKey": "repro.spectral",
    "FeatureRange": "repro.spectral",
    # The FIX index (Algorithm 1) and its persistence
    "FixIndex": "repro.core.index",
    "FixIndexConfig": "repro.core.index",
    "ValueHasher": "repro.core.values",
    "load_index": "repro.core.persistence",
    "save_index": "repro.core.persistence",
    # Query processing (Algorithm 2) and the optimizer
    "FixQueryProcessor": "repro.core.processor",
    "FixQueryResult": "repro.core.processor",
    "PlanCache": "repro.core.plan",
    "QueryPlan": "repro.core.plan",
    "AccessPath": "repro.core.optimizer",
    "CostModel": "repro.core.optimizer",
    "QueryOptimizer": "repro.core.optimizer",
    "FeatureHistogram": "repro.core.stats",
    "PruningMetrics": "repro.core.metrics",
    "evaluate_pruning": "repro.core.metrics",
    # Refinement engines and the comparison indexes
    "NavigationalEngine": "repro.engine",
    "StructuralJoinEngine": "repro.engine",
    "FBEvaluator": "repro.fb",
    "FBIndex": "repro.fb",
    "SpatialFeatureIndex": "repro.spatial",
    # Observability
    "MetricsRegistry": "repro.obs",
    "Obs": "repro.obs",
    "ObsConfig": "repro.obs",
    "Tracer": "repro.obs",
    # Errors
    "ReproError": "repro.errors",
}


def select(document: Document, query: TwigQuery | str) -> list[Element]:
    """Evaluate a path expression against one in-memory document.

    A convenience wrapper over the ground-truth matcher for scripts and
    tests that just want answers without building an index::

        from repro import parse_xml, select

        doc = parse_xml("<bib><article><author/></article></bib>")
        for element in select(doc, "//article[author]"):
            print(element.tag, element.node_id)

    For repeated queries over large data, build a :class:`FixIndex` and
    use :class:`FixQueryProcessor` instead.
    """
    from repro.query import TwigQuery, matching_elements, twig_of

    twig = query if isinstance(query, TwigQuery) else twig_of(query)
    return matching_elements(twig, document)


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "select"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
