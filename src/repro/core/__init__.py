"""FIX — the paper's primary contribution.

* :class:`~repro.core.index.FixIndex` — index construction (Algorithm 1)
  over a :class:`~repro.storage.primary.PrimaryXMLStore`, in clustered or
  unclustered form, purely structural or value-extended (Section 4.6).
* :class:`~repro.core.processor.FixQueryProcessor` — the two-phase query
  pipeline of Algorithm 2: feature-key pruning via B-tree range scan,
  then refinement with a navigational engine.
* :class:`~repro.core.values.ValueHasher` — the β-bucket value→label hash.
* :mod:`~repro.core.metrics` — the implementation-independent metrics of
  Section 6.2 (selectivity, pruning power, false-positive ratio) plus the
  false-negative accounting this reproduction adds (DESIGN.md §5a).
* :mod:`~repro.core.stats` — the λ_max histogram the paper suggests for
  optimizer cost estimation, with candidate-count estimation.

Importing this package imports none of its modules: each name below
loads its module at first use (PEP 562).
"""

from repro._lazy import lazy_exports

#: public name -> defining module, by layer.
_EXPORTS = {
    # Index construction and maintenance (Algorithm 1)
    "FixIndex": "repro.core.index",
    "FixIndexConfig": "repro.core.index",
    "IndexEntry": "repro.core.index",
    "StagedMutation": "repro.core.index",
    "ValueHasher": "repro.core.values",
    "ShardedFixIndex": "repro.core.sharding",
    "EpochManager": "repro.core.epoch",
    "EpochSnapshot": "repro.core.epoch",
    # Persistence and checking
    "load_index": "repro.core.persistence",
    "save_index": "repro.core.persistence",
    "VerificationReport": "repro.core.verify",
    "verify_index": "repro.core.verify",
    # Query processing (Algorithm 2)
    "FixQueryProcessor": "repro.core.processor",
    "FixQueryResult": "repro.core.processor",
    "PlanCache": "repro.core.plan",
    "QueryPlan": "repro.core.plan",
    "build_plan": "repro.core.plan",
    # Optimizer
    "AccessPath": "repro.core.optimizer",
    "CostModel": "repro.core.optimizer",
    "ExplainedPlan": "repro.core.optimizer",
    "QueryOptimizer": "repro.core.optimizer",
    "FeatureHistogram": "repro.core.stats",
    # Section 6.2 metrics
    "PruningMetrics": "repro.core.metrics",
    "evaluate_pruning": "repro.core.metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
