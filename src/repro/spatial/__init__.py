"""Multidimensional feature indexing (the paper's Section 8 future work).

The paper closes with: "We also plan to move the index to R-tree or
other high-dimensional indexing trees to gain further pruning power."
This package implements that plan:

* :class:`~repro.spatial.rtree.RTree` — a classic rectangle R-tree with
  quadratic split and STR bulk loading.
* :class:`~repro.spatial.feature_index.SpatialFeatureIndex` — a per-label
  R-tree over the ``(λ_min, λ_max)`` points of a built
  :class:`~repro.core.index.FixIndex`.  The pruning predicate
  ("indexed range contains query range", i.e. ``λ_min ≤ q_min ∧
  λ_max ≥ q_max``) is a quarter-plane **dominance query**, which the
  R-tree answers by descending only into rectangles intersecting the
  quarter-plane.

What the ablation found (``benchmarks/bench_ablation_rtree.py``): there
is no pruning power to gain.  Eigenvalue ranges of real anti-symmetric
matrices are symmetric, ``λ_min == -λ_max``, so the feature points lie
on one line, the dominance query is a threshold on λ_max, and the
B-tree's anchored range scan already visits exactly the candidates.
The query pipeline therefore prunes on the B-tree only; this package is
the measurement that says so.
"""

from repro.spatial.feature_index import SpatialFeatureIndex
from repro.spatial.rtree import RTree, Rect

__all__ = ["RTree", "Rect", "SpatialFeatureIndex"]
