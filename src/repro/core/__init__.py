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
"""

from repro.core.epoch import EpochManager, EpochSnapshot
from repro.core.index import FixIndex, FixIndexConfig, IndexEntry, StagedMutation
from repro.core.metrics import PruningMetrics, evaluate_pruning
from repro.core.optimizer import AccessPath, CostModel, ExplainedPlan, QueryOptimizer
from repro.core.persistence import load_index, save_index
from repro.core.plan import PlanCache, QueryPlan, build_plan
from repro.core.processor import FixQueryProcessor, FixQueryResult
from repro.core.sharding import ShardedFixIndex
from repro.core.stats import FeatureHistogram
from repro.core.values import ValueHasher
from repro.core.verify import VerificationReport, verify_index

__all__ = [
    "AccessPath",
    "CostModel",
    "EpochManager",
    "EpochSnapshot",
    "ExplainedPlan",
    "FeatureHistogram",
    "StagedMutation",
    "QueryOptimizer",
    "FixIndex",
    "FixIndexConfig",
    "FixQueryProcessor",
    "FixQueryResult",
    "IndexEntry",
    "load_index",
    "save_index",
    "PlanCache",
    "PruningMetrics",
    "QueryPlan",
    "ShardedFixIndex",
    "ValueHasher",
    "build_plan",
    "evaluate_pruning",
    "VerificationReport",
    "verify_index",
]
