"""Query plans and the per-processor plan cache.

Algorithm 2's lines 1-5 — parse the path expression, decompose it at
interior ``//`` edges, extract each pruning fragment's feature key —
are pure functions of the query text and the index's encoder.  A
:class:`QueryPlan` captures that work once; a :class:`PlanCache`
memoizes plans per (query source, index generation), so repeated
queries pay only the scan and the refinement.

Only the index scan reads the keys, so a plan computes them — the
coverage check and the eigensolve inside :meth:`FixIndex.query_features`,
which runs on the same real-arithmetic kernel of
:mod:`repro.spectral.kernel` as the build — the first time
:attr:`QueryPlan.feature_keys` is read, and keeps them.  A structure
scan never reads them: its plan is the parse, the decomposition and the
refined twig, and a twig deeper than the index's depth limit still has
one (coverage limits the B-tree's patterns, not the DAG).

Plans are invalidated by *epoch*, scoped per root label: a plan records
the epoch it was computed under and the root labels of its pruning
fragments, and stays valid while no mutation has touched any of those
labels (``EpochSnapshot.max_epoch_over(plan.labels) <= plan.generation``).
This is sound because the encoder assigns edge-label codes in first-seen
order and never reassigns them — a cached plan's feature keys stay
byte-valid forever, so only entry-population changes (which a mutation
confines to the touched root labels) matter to plan freshness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.epoch import EpochSnapshot
from repro.query.ast import Axis
from repro.query.decompose import decompose
from repro.query.twig import TwigQuery, twig_of
from repro.spectral import FeatureKey


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """Everything the query pipeline needs that is derivable from the
    query text alone (under one index generation)."""

    #: the query's surface syntax (cache key; may be empty for
    #: hand-built twigs, which are then never cached).
    source: str
    #: the parsed query tree.
    twig: TwigQuery
    #: the fragments that participate in pruning: only the top twig for
    #: depth-limited indexes, every decomposed fragment for collection
    #: indexes (Section 5).
    fragments: tuple[TwigQuery, ...]
    #: per-fragment: does the root label anchor the scan?
    anchored: tuple[bool, ...]
    #: the twig refinement runs (leading ``//`` rewritten to ``/`` for
    #: depth-limited indexes — Algorithm 2, line 8).
    refined: TwigQuery
    #: drop non-root candidates before refinement (``/``-rooted queries
    #: on depth-limited indexes, where subpattern entries exist for
    #: every element but only the document root can bind).
    root_filter: bool
    #: the index epoch the plan was computed under.
    generation: int
    #: root labels of the pruning fragments (their feature keys' labels)
    #: — the plan's invalidation scope (a mutation touching none of them
    #: keeps the plan valid).
    labels: frozenset[str] = frozenset()
    #: the index the plan was made for, which computes the keys.
    index: object = field(default=None, repr=False, compare=False)
    _keys: tuple[FeatureKey, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def feature_keys(self) -> tuple[FeatureKey, ...]:
        """One feature key per pruning fragment, computed at the first
        read and kept (a cached plan never solves twice).

        Raises:
            IndexCoverageError: when the index cannot answer a pruning
                fragment without false negatives.
        """
        if self._keys is None:
            # Two queries reading a cached plan at once may both compute
            # the keys; they compute the same bytes, so either may win.
            keys = []
            for fragment in self.fragments:
                self.index.ensure_covers(fragment)
                keys.append(self.index.query_features(fragment))
            object.__setattr__(self, "_keys", tuple(keys))
        return self._keys


def build_plan(index, query: TwigQuery | str) -> QueryPlan:
    """Plan ``query`` against ``index`` (Algorithm 2, lines 1-5; the
    keys of lines 3-5 on first use, :attr:`QueryPlan.feature_keys`).

    Raises:
        UnsupportedQueryError: malformed queries (via the parser).
    """
    twig = query if isinstance(query, TwigQuery) else twig_of(query)
    fragments = decompose(twig)
    depth_limited = index.config.depth_limit > 0
    if depth_limited or len(fragments) == 1:
        # Depth-limited index: only the top twig prunes (descendant
        # fragments can match below the indexed horizon).
        prune_fragments = (fragments[0],)
    else:
        # Collection index: every fragment prunes; candidates intersect.
        prune_fragments = tuple(fragments)
    refined = twig
    root_filter = False
    if depth_limited:
        if twig.leading_axis is Axis.DESCENDANT:
            refined = twig.with_child_leading_axis()
        else:
            root_filter = True
    return QueryPlan(
        source=twig.source,
        twig=twig,
        fragments=prune_fragments,
        anchored=tuple(
            depth_limited or fragment.leading_axis is Axis.CHILD
            for fragment in prune_fragments
        ),
        refined=refined,
        root_filter=root_filter,
        generation=index.generation,
        labels=frozenset(fragment.root_label for fragment in prune_fragments),
        index=index,
    )


class PlanCache:
    """Bounded LRU of :class:`QueryPlan`\\ s keyed by query source.

    A hit requires the cached plan to still be *valid* under the
    caller's :class:`~repro.core.epoch.EpochSnapshot`: no mutation has
    touched the plan's root labels since it was computed — plans over
    untouched labels survive mutations to other labels.  Stale plans
    are evicted on lookup.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"need a positive capacity, got {capacity}")
        self._capacity = capacity
        self._plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: hits served *across* a global-epoch change because the plan's
        #: labels were untouched — the plans label scoping retained.
        self.scoped_retained = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, source: str, snapshot: EpochSnapshot) -> QueryPlan | None:
        """The cached plan for ``source``, if still valid under
        ``snapshot``."""
        plan = self._plans.get(source)
        if plan is None:
            self.misses += 1
            return None
        if snapshot.max_epoch_over(plan.labels) > plan.generation:
            del self._plans[source]
            self.misses += 1
            return None
        self._plans.move_to_end(source)
        self.hits += 1
        if snapshot.epoch != plan.generation:
            self.scoped_retained += 1
        return plan

    def put(self, plan: QueryPlan) -> None:
        """Cache ``plan`` (no-op for sourceless hand-built twigs)."""
        if not plan.source:
            return
        self._plans[plan.source] = plan
        self._plans.move_to_end(plan.source)
        while len(self._plans) > self._capacity:
            self._plans.popitem(last=False)

    def stats_dict(self) -> dict:
        """Size and hit/miss accounting, for metrics publication
        (``query.plan_cache.*`` in the ``repro.obs`` registry)."""
        lookups = self.hits + self.misses
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "scoped_retained": self.scoped_retained,
        }

    def publish(self, registry, prefix: str = "plan_cache.") -> None:
        """Sync the cache accounting into a ``repro.obs`` registry
        (idempotent delta-sync; the size is a gauge).

        The ``plan_cache.*`` namespace is cache-level: it counts every
        lookup, including standalone ``prune()``/``plan_for()`` calls.
        The per-*query* hit counters (``query.plan_cache.hits``/
        ``.misses``) are published by the processor, once per query.
        """
        registry.sync_counter(prefix + "hits", self.hits)
        registry.sync_counter(prefix + "misses", self.misses)
        registry.sync_counter(prefix + "scoped_retained", self.scoped_retained)
        # The ISSUE's epoch-layer accounting: plans kept alive across
        # mutations by label scoping.
        registry.sync_counter("epoch.plans_retained", self.scoped_retained)
        registry.gauge(prefix + "plans").set(len(self._plans))

    def clear(self) -> None:
        self._plans.clear()
