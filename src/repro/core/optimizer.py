"""Access-path selection (the Section 5 cost discussion, made concrete).

The paper sketches the optimizer's job: check index coverage, then
estimate the candidate count from a histogram on the primary sort key
(λ_max) to decide whether the index is worth using.  This module
implements that decision:

* coverage check (depth limit, value support) — a non-covered query must
  fall back to a full scan;
* candidate-count estimation via
  :class:`~repro.core.stats.FeatureHistogram`;
* a simple cost model::

      cost(index scan) = descent + cdt_estimate * candidate_cost
      cost(full scan)  = total_units * scan_cost

  with ``candidate_cost > scan_cost`` reflecting that refining a
  candidate through a pointer (random access + verification) is more
  expensive per unit than streaming past it in document order;
* :func:`choose_access_path`, the one rule that splits the index side
  into the structure scan and the index scan, which
  :class:`~repro.core.processor.FixQueryProcessor` applies to every
  query it runs (DESIGN.md §14);
* an :class:`ExplainedPlan` that records the decision and its inputs —
  the EXPLAIN output — and executes the chosen path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.index import FixIndex
from repro.core.stats import FeatureHistogram
from repro.engine.navigational import NavigationalEngine
from repro.query.twig import TwigQuery, twig_of

if TYPE_CHECKING:
    from repro.core.processor import FixQueryResult


class AccessPath(Enum):
    """The three available plans."""

    #: judge the twig root's candidate vertices on the structure DAG
    #: and expand the accepted ones through their extents.
    STRUCTURE_SCAN = "structure-scan"
    #: the paper's pipeline: B-tree range scan, then refinement.
    INDEX_SCAN = "index-scan"
    FULL_SCAN = "full-scan"


@dataclass(frozen=True, slots=True)
class CostModel:
    """Relative per-unit costs (dimensionless; only ratios matter).

    Defaults encode the paper's qualitative story: following a pointer
    and running refinement on a candidate costs several times a
    sequential scan step, plus a fixed B-tree descent charge.
    """

    descent_cost: float = 30.0
    candidate_cost: float = 6.0
    scan_cost: float = 1.0


def choose_access_path(twig: TwigQuery, explicit_refiner: bool) -> AccessPath:
    """The one rule between :attr:`AccessPath.STRUCTURE_SCAN` and
    :attr:`AccessPath.INDEX_SCAN`.

    A twig with a value literal keeps the index scan (a verdict is
    about structure only), and so does a processor given an explicit
    ``refiner=`` (the paper's FIX + NoK pairing: the caller asked for
    trees).  Every other twig takes the structure scan: no measured
    query on the harness corpora ran faster through pruning +
    refinement (DESIGN.md §14), so there is no cost to weigh yet.
    """
    if explicit_refiner or twig.has_values():
        return AccessPath.INDEX_SCAN
    return AccessPath.STRUCTURE_SCAN


def shard_scan_cost(
    histogram: FeatureHistogram,
    query_key,
    anchored: bool = True,
    model: CostModel | None = None,
) -> float:
    """Estimated cost of running one shard's pruning scan for a query
    feature key: a B-tree descent plus the histogram's candidate
    estimate, under the same :class:`CostModel` the access-path chooser
    uses.  A sharded coordinator orders its scatter most-selective-
    shard-first by this number (DESIGN.md §11)."""
    model = model or CostModel()
    estimate = histogram.estimate_candidates(query_key, anchored=anchored)
    return model.descent_cost + estimate * model.candidate_cost


@dataclass
class ExplainedPlan:
    """A chosen plan plus everything that went into choosing it."""

    query: TwigQuery
    path: AccessPath
    covered: bool
    estimated_candidates: float
    total_units: int
    index_cost: float
    scan_cost: float
    reason: str

    def describe(self) -> str:
        """A human-readable EXPLAIN string."""
        return (
            f"plan: {self.path.value}\n"
            f"  covered by index:     {self.covered}\n"
            f"  total units:          {self.total_units}\n"
            f"  estimated candidates: {self.estimated_candidates:.0f}\n"
            f"  est. index cost:      {self.index_cost:.0f}\n"
            f"  est. full-scan cost:  {self.scan_cost:.0f}\n"
            f"  reason:               {self.reason}"
        )


class QueryOptimizer:
    """Choose and run the cheaper access path for each query."""

    def __init__(
        self,
        index: FixIndex,
        histogram: FeatureHistogram | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        # Imported here: the processor applies this module's rule.
        from repro.core.processor import FixQueryProcessor

        self.index = index
        self.histogram = histogram or FeatureHistogram(index)
        self.cost_model = cost_model or CostModel()
        self._processor = FixQueryProcessor(index)
        self._scanner = NavigationalEngine(index.store)

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan(self, query: TwigQuery | str) -> ExplainedPlan:
        """Pick an access path without executing anything: the full scan
        or the index by the cost model, and then, on the index side,
        the structure or the index scan by :func:`choose_access_path`."""
        twig = query if isinstance(query, TwigQuery) else twig_of(query)
        total_units = self.index.entry_count
        model = self.cost_model
        scan_cost = total_units * model.scan_cost

        if not self.index.covers(twig):
            return ExplainedPlan(
                query=twig,
                path=AccessPath.FULL_SCAN,
                covered=False,
                estimated_candidates=float(total_units),
                total_units=total_units,
                index_cost=float("inf"),
                scan_cost=scan_cost,
                reason=(
                    "query not covered by the index (depth or value "
                    "support) — the index could miss answers"
                ),
            )

        # The top fragment's key and anchoring as the processor will
        # scan them (``build_plan``'s rule): on a collection index a
        # ``//``-leading query scans every label.
        scan = self._processor.plan_for(twig)
        estimate = self.histogram.estimate_candidates(
            scan.feature_keys[0], anchored=scan.anchored[0]
        )
        index_cost = model.descent_cost + estimate * model.candidate_cost
        if index_cost <= scan_cost:
            path = choose_access_path(twig, explicit_refiner=False)
            reason = (
                f"estimated {estimate:.0f} candidates; index cost "
                f"{index_cost:.0f} <= scan cost {scan_cost:.0f}"
            )
            if path is AccessPath.STRUCTURE_SCAN:
                reason += "; no value literal: answered on the structure DAG"
        else:
            path = AccessPath.FULL_SCAN
            reason = (
                f"estimated {estimate:.0f} candidates; pruning too weak "
                f"(index cost {index_cost:.0f} > scan cost {scan_cost:.0f})"
            )
        return ExplainedPlan(
            query=twig,
            path=path,
            covered=True,
            estimated_candidates=estimate,
            total_units=total_units,
            index_cost=index_cost,
            scan_cost=scan_cost,
            reason=reason,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, query: TwigQuery | str) -> tuple[ExplainedPlan, FixQueryResult]:
        """Plan and run; every path returns the same result shape."""
        from repro.core.processor import FixQueryResult

        plan = self.plan(query)
        if plan.path is not AccessPath.FULL_SCAN:
            return plan, self._processor.query(plan.query)
        started = time.perf_counter()
        pointers = self._scan(plan.query)
        elapsed = time.perf_counter() - started
        result = FixQueryResult(
            results=pointers,
            candidate_count=plan.total_units,
            prune_seconds=0.0,
            refine_seconds=elapsed,
            access_path=AccessPath.FULL_SCAN,
        )
        return plan, result

    def _scan(self, twig: TwigQuery):
        """Full navigational evaluation, shaped like index results.

        For a collection index the unit is the document (return one
        pointer per matching document root); for a subpattern index the
        unit is the element (return every binding).
        """
        pointers = self._scanner.evaluate(twig)
        if self.index.config.depth_limit <= 0:
            from repro.storage import NodePointer

            seen: set[int] = set()
            units = []
            for pointer in pointers:
                if pointer.doc_id not in seen:
                    seen.add(pointer.doc_id)
                    units.append(NodePointer(pointer.doc_id, 0))
            return units
        return pointers
