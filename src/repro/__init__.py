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
"""

from repro.core import (
    FeatureHistogram,
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    FixQueryResult,
    PlanCache,
    PruningMetrics,
    QueryPlan,
    ValueHasher,
    evaluate_pruning,
)
from repro.core.optimizer import AccessPath, CostModel, QueryOptimizer
from repro.core.persistence import load_index, save_index
from repro.obs import MetricsRegistry, Obs, ObsConfig, Tracer
from repro.spatial import SpatialFeatureIndex
from repro.engine import NavigationalEngine, StructuralJoinEngine
from repro.errors import ReproError
from repro.fb import FBEvaluator, FBIndex
from repro.query import (
    TwigQuery,
    decompose,
    matching_elements,
    parse_query,
    query_matches_document,
    twig_of,
)
from repro.spectral import EdgeLabelEncoder, FeatureKey, FeatureRange
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import Document, Element, Text, parse_xml, serialize


def select(document: Document, query: "TwigQuery | str") -> list[Element]:
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
    twig = query if isinstance(query, TwigQuery) else twig_of(query)
    return matching_elements(twig, document)

__version__ = "1.0.0"

__all__ = [
    "AccessPath",
    "CostModel",
    "Document",
    "QueryOptimizer",
    "SpatialFeatureIndex",
    "EdgeLabelEncoder",
    "Element",
    "FBEvaluator",
    "FBIndex",
    "FeatureHistogram",
    "FeatureKey",
    "FeatureRange",
    "FixIndex",
    "FixIndexConfig",
    "FixQueryProcessor",
    "FixQueryResult",
    "MetricsRegistry",
    "NavigationalEngine",
    "NodePointer",
    "Obs",
    "ObsConfig",
    "Tracer",
    "PlanCache",
    "PrimaryXMLStore",
    "PruningMetrics",
    "QueryPlan",
    "ReproError",
    "StructuralJoinEngine",
    "Text",
    "TwigQuery",
    "ValueHasher",
    "decompose",
    "matching_elements",
    "query_matches_document",
    "evaluate_pruning",
    "load_index",
    "save_index",
    "select",
    "parse_query",
    "parse_xml",
    "serialize",
    "twig_of",
]
