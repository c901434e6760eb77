"""Eigenvalue extraction for anti-symmetric pattern matrices.

The paper's Theorem 3 proof multiplies the real anti-symmetric ``M`` by
the imaginary unit to obtain the Hermitian ``iM`` whose spectrum is
real; the seed implemented exactly that (``numpy.linalg.eigvalsh`` on
``1j * M`` — the O(n³) dense symmetric eigenproblem of the paper's cost
analysis).  Because ``M`` is real anti-symmetric, its eigenvalues come
in conjugate pairs ``±iσ_j`` where the ``σ_j`` are the *singular
values* of ``M``, so the same quantities are computable in pure real
arithmetic — closed forms for ``n ≤ 3``, a real symmetric Gram eigensolve otherwise — and
``λ_min = -λ_max`` holds exactly.  That real kernel
(:mod:`repro.spectral.kernel`, DESIGN.md §9) is the solver here; the
complex formulation is kept only as the oracle the spectral tests
compare it against.

A consequence worth documenting (see the feature ablation benchmark):
since the spectrum is symmetric about zero, the paper's ``(λ_min,
λ_max)`` pair carries one real degree of freedom; we keep both
components for interface fidelity, and the ablation bench quantifies
what a richer feature (a spectrum prefix with subset testing, sketched
in §3.3) would buy.
"""

from __future__ import annotations

import numpy as np

from repro.bisim.graph import BisimGraph
from repro.spectral.encoding import EdgeLabelEncoder
from repro.spectral.kernel import real_spectrum, singular_range
from repro.spectral.matrix import pattern_matrix


def hermitian_of(matrix: np.ndarray) -> np.ndarray:
    """Return ``iM``, the Hermitian equivalent of anti-symmetric ``M``."""
    return 1j * matrix


def spectrum(matrix: np.ndarray) -> np.ndarray:
    """Full real spectrum of anti-symmetric ``matrix``, ascending.

    These are the eigenvalues of ``iM`` — equivalently ``±σ_j`` for the
    singular values ``σ_j`` of ``M``.
    """
    return real_spectrum(matrix)


def eigenvalue_range(matrix: np.ndarray) -> tuple[float, float]:
    """``(λ_min, λ_max)`` of anti-symmetric ``matrix``.

    Exactly symmetric — ``λ_min == -λ_max`` — because the kernel
    returns ``(-σ_max, +σ_max)`` by construction.

    A 0x0 or 1x1 (single vertex, edgeless) pattern has the degenerate
    range ``(0.0, 0.0)``, which — correctly — is contained in every
    indexed range, since a single labeled node can be a subpattern of
    anything with a matching label.
    """
    return singular_range(matrix)


def graph_eigenvalue_range(
    graph: BisimGraph,
    encoder: EdgeLabelEncoder,
    max_vertices: int | None = None,
) -> tuple[float, float]:
    """Convenience: matrix construction + :func:`eigenvalue_range`.

    Raises:
        PatternTooLargeError: when the graph exceeds ``max_vertices``.
    """
    return eigenvalue_range(
        pattern_matrix(graph, encoder, max_vertices=max_vertices)
    )


def graph_spectrum(
    graph: BisimGraph,
    encoder: EdgeLabelEncoder,
    max_vertices: int | None = None,
) -> np.ndarray:
    """Convenience: matrix construction + :func:`spectrum`."""
    return spectrum(pattern_matrix(graph, encoder, max_vertices=max_vertices))
