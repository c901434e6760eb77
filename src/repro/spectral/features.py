"""Feature keys and the pruning predicate (Sections 3.3-3.4).

The indexed key is ``(root label, λ_max, λ_min)``.  Pruning keeps an
indexed pattern as a candidate iff its root label matches the query's and
its eigenvalue range *contains* the query's range (Theorem 3), widened by
a small guard band to absorb the numerical round-off the paper warns
about ("we can always choose a larger range for the indexed range").

Patterns too large to decompose are indexed under
:data:`ALL_COVERING_RANGE` — the paper's artificial ``[0, ∞]`` range —
which contains every query range by construction, trading pruning power
for completeness.

The key types need no numpy: only :func:`pattern_features` solves, and
it loads the eigensolver when first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.spectral.encoding import EdgeLabelEncoder

if TYPE_CHECKING:
    import numpy as np

    from repro.bisim.graph import BisimGraph

#: Guard band added to indexed ranges to absorb eigensolver round-off.
#: λ values for integer-weight matrices of a few thousand vertices are
#: O(1e4), and LAPACK's symmetric solver is backward-stable, so 1e-6
#: absolute slack is orders of magnitude above the true error while
#: adding essentially no false positives.
DEFAULT_GUARD_BAND = 1e-6


@dataclass(frozen=True, slots=True)
class FeatureRange:
    """An eigenvalue interval ``[lmin, lmax]``."""

    lmin: float
    lmax: float

    def contains(self, other: "FeatureRange", guard: float = DEFAULT_GUARD_BAND) -> bool:
        """True when ``other`` fits inside this range widened by ``guard``."""
        return (
            self.lmin - guard <= other.lmin
            and other.lmax <= self.lmax + guard
        )

    def is_all_covering(self) -> bool:
        """True for the artificial fallback range of over-large patterns."""
        return math.isinf(self.lmin) or math.isinf(self.lmax)

    def width(self) -> float:
        """Interval width (``inf`` for the all-covering range)."""
        return self.lmax - self.lmin


#: The paper's artificial range for patterns too large to extract
#: features from (Section 6.1): always returned as a candidate.
ALL_COVERING_RANGE = FeatureRange(-math.inf, math.inf)


@dataclass(frozen=True, slots=True)
class FeatureKey:
    """The full B-tree key: root label plus eigenvalue range."""

    root_label: str
    range: FeatureRange

    def covers(self, query: "FeatureKey", guard: float = DEFAULT_GUARD_BAND) -> bool:
        """The pruning predicate of Section 3.4.

        An indexed pattern survives pruning for ``query`` iff the root
        labels match and the indexed range contains the query range.
        """
        return self.root_label == query.root_label and self.range.contains(
            query.range, guard=guard
        )


def pattern_features(
    graph: BisimGraph,
    encoder: EdgeLabelEncoder,
    max_vertices: int | None = None,
) -> FeatureKey:
    """Extract the :class:`FeatureKey` of a twig pattern.

    Raises:
        PatternTooLargeError: when the graph exceeds ``max_vertices``
            (callers in index construction catch this and substitute
            :data:`ALL_COVERING_RANGE`).
    """
    from repro.spectral.eigen import graph_eigenvalue_range

    lmin, lmax = graph_eigenvalue_range(
        graph, encoder, max_vertices=max_vertices
    )
    return FeatureKey(graph.root.label, FeatureRange(lmin, lmax))


def spectrum_contains(
    indexed: np.ndarray,
    query: np.ndarray,
    tolerance: float = 1e-6,
) -> bool:
    """Multiset containment of spectra, with numerical tolerance.

    This is the stronger subset test the paper sketches in Section 3.3
    ("the set of eigenvalues of H are a subset of the eigenvalues of G")
    but rejects for the production index because of variable-size keys
    and round-off risk.  We implement it for the feature ablation: both
    inputs must be ascending (as returned by
    :func:`repro.spectral.eigen.spectrum`); every query eigenvalue must be
    matched by a distinct indexed eigenvalue within ``tolerance``.
    """
    i = 0
    n = indexed.size
    for value in query:
        # Advance to the first unconsumed indexed eigenvalue that is not
        # too far below `value`; both arrays ascend so a merge-scan works.
        while i < n and indexed[i] < value - tolerance:
            i += 1
        if i >= n or indexed[i] > value + tolerance:
            return False
        i += 1
    return True
