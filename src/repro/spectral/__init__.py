"""Spectral features of twig patterns (Section 3 of the paper).

Pipeline: a twig pattern (bisimulation graph) is translated into an
**anti-symmetric** matrix whose entry ``M[i, j]`` is a per-edge-label
integer weight and ``M[j, i]`` its negation (Section 3.2).  Multiplying
by the imaginary unit yields a Hermitian matrix with a real spectrum, and
Theorem 3's interlacing property guarantees that the eigenvalue range of
an induced subpattern is contained in that of the containing pattern —
the no-false-negative pruning rule.  The feature key actually indexed is
``(root label, λ_max, λ_min)`` (Section 3.4).

* :class:`~repro.spectral.encoding.EdgeLabelEncoder` — stable
  (parent label, child label) → weight assignment shared by index build
  and query time.
* :func:`~repro.spectral.matrix.pattern_matrix` — graph → anti-symmetric
  ``numpy`` matrix.
* :func:`~repro.spectral.eigen.eigenvalue_range` /
  :func:`~repro.spectral.eigen.spectrum` — λ extraction through the
  real-arithmetic closed-form/Gram-eigensolve kernel of
  :mod:`repro.spectral.kernel` (DESIGN.md §9).
* :func:`~repro.spectral.kernel.solve_batch` — size-bucketed stacked
  solves for the cache misses collected during entry generation.
* :class:`~repro.spectral.features.FeatureRange` /
  :class:`~repro.spectral.features.FeatureKey` — the index key, the
  containment predicate with its round-off guard band, and the
  all-covering fallback range for over-large patterns.

The encoder and the key types load with the package; the matrix, the
eigensolver and the kernel — the numpy half — load at their first use.
"""

from repro._lazy import lazy_exports
from repro.spectral.encoding import EdgeLabelEncoder
from repro.spectral.features import (
    ALL_COVERING_RANGE,
    DEFAULT_GUARD_BAND,
    FeatureKey,
    FeatureRange,
    pattern_features,
    spectrum_contains,
)

__all__ = [
    "ALL_COVERING_RANGE",
    "DEFAULT_GUARD_BAND",
    "EdgeLabelEncoder",
    "FeatureKey",
    "FeatureRange",
    "eigenvalue_range",
    "hermitian_of",
    "pattern_features",
    "pattern_matrix",
    "solve_batch",
    "spectrum",
    "spectrum_contains",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "eigenvalue_range": "repro.spectral.eigen",
        "hermitian_of": "repro.spectral.eigen",
        "spectrum": "repro.spectral.eigen",
        "pattern_matrix": "repro.spectral.matrix",
        "solve_batch": "repro.spectral.kernel",
    },
)
