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
from repro.obs import MetricsRegistry
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


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One query's observable cost, as reported by the processor."""

    source: str
    candidate_count: int
    result_count: int
    plan_seconds: float
    prune_seconds: float
    refine_seconds: float
    plan_cached: bool
    documents_fetched: int
    workers: int

    @property
    def false_positive_rate(self) -> float:
        """``fpr`` of this single query (0 for an empty candidate set)."""
        if not self.candidate_count:
            return 0.0
        return 1.0 - self.result_count / self.candidate_count

    @property
    def seconds(self) -> float:
        return self.plan_seconds + self.prune_seconds + self.refine_seconds


def publish_query_metrics(registry: MetricsRegistry, result) -> None:
    """Record one query's observable cost into ``registry``.

    The single write path for per-query metrics (DESIGN.md §10): the
    processor calls it on its obs registry, and
    :class:`QueryMetricsLog` calls it on its backing registry, so both
    views agree on metric names — ``query.count``,
    ``query.plan_cache.hits/misses``, the candidate counter,
    phase-second counters, and the latency histograms.
    """
    registry.counter("query.count").inc()
    registry.counter(
        "query.plan_cache.hits" if result.plan_cached else "query.plan_cache.misses"
    ).inc()
    registry.counter("query.candidates").inc(result.candidate_count)
    registry.counter("query.results").inc(result.result_count)
    registry.counter("query.documents_fetched").inc(result.documents_fetched)
    registry.counter("query.refine.fetches_avoided").inc(result.fetches_avoided)
    registry.counter("query.refine.dag_verdicts").inc(result.dag_verdicts)
    registry.counter("query.refine.dag_reused").inc(result.dag_reused)
    registry.counter("query.phase_seconds.plan").inc(result.plan_seconds)
    registry.counter("query.phase_seconds.prune").inc(result.prune_seconds)
    registry.counter("query.phase_seconds.refine").inc(result.refine_seconds)
    registry.histogram("query.seconds").observe(result.seconds)
    registry.histogram("query.refine_seconds").observe(result.refine_seconds)
    # The quantile sketches behind p50/p95/p99 reporting (DESIGN.md
    # §13): total latency plus the per-phase split, one observation per
    # query.
    registry.sketch("query.seconds").observe(result.seconds)
    registry.sketch("query.plan_seconds").observe(result.plan_seconds)
    registry.sketch("query.prune_seconds").observe(result.prune_seconds)
    registry.sketch("query.refine_seconds").observe(result.refine_seconds)
    registry.gauge("query.workers").set(result.workers)


class QueryMetricsLog:
    """Rolling per-query metrics sink for :class:`FixQueryProcessor`.

    Pass one as ``metrics_log=`` and every ``query()`` call appends a
    :class:`QueryRecord`; :meth:`summary` aggregates candidates, FP
    rates, phase timings, and plan-cache hit rate.

    Under ``repro.obs`` the log is a *view over a metrics registry*:
    totals come from the registry's ``query.*`` instruments (so they
    survive window eviction), while the bounded ``records`` window
    keeps the per-query detail for windowed statistics.  The backing
    registry is private by default; pass the processor's
    ``obs.registry`` to share one set of counters (the processor then
    skips its own publishing — no double counting).
    """

    def __init__(
        self, capacity: int = 4096, registry: MetricsRegistry | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"need a positive capacity, got {capacity}")
        self._capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self.records: list[QueryRecord] = []

    @property
    def total_queries(self) -> int:
        """Total queries ever recorded (survives window eviction)."""
        return int(self.registry.counter("query.count").value)

    def record(self, source: str, result) -> None:
        """Append one processor result (duck-typed ``FixQueryResult``)."""
        self.records.append(
            QueryRecord(
                source=source,
                candidate_count=result.candidate_count,
                result_count=result.result_count,
                plan_seconds=result.plan_seconds,
                prune_seconds=result.prune_seconds,
                refine_seconds=result.refine_seconds,
                plan_cached=result.plan_cached,
                documents_fetched=result.documents_fetched,
                workers=result.workers,
            )
        )
        publish_query_metrics(self.registry, result)
        if len(self.records) > self._capacity:
            del self.records[: len(self.records) - self._capacity]

    def __len__(self) -> int:
        return len(self.records)

    def summary(self) -> dict:
        """Aggregates over the log (JSON-friendly).

        Totals read the backing registry (all recorded queries);
        ``queries`` and ``avg_false_positive_rate`` describe the
        bounded window, which is all a rolling view can say about
        per-query distributions.
        """
        n = len(self.records)
        if not n and not self.total_queries:
            return {"queries": 0}
        counters = self.registry.snapshot()["counters"]
        hits = counters.get("query.plan_cache.hits", 0.0)
        misses = counters.get("query.plan_cache.misses", 0.0)
        return {
            "queries": n,
            "total_queries": self.total_queries,
            "candidates": int(counters.get("query.candidates", 0)),
            "results": int(counters.get("query.results", 0)),
            "avg_false_positive_rate": (
                sum(r.false_positive_rate for r in self.records) / n
                if n
                else 0.0
            ),
            "plan_cache_hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "documents_fetched": int(counters.get("query.documents_fetched", 0)),
            "plan_seconds": counters.get("query.phase_seconds.plan", 0.0),
            "prune_seconds": counters.get("query.phase_seconds.prune", 0.0),
            "refine_seconds": counters.get("query.phase_seconds.refine", 0.0),
        }


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
