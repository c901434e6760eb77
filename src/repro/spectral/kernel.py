"""Real-arithmetic batched spectral kernel (DESIGN.md §9).

The paper extracts ``(λ_min, λ_max)`` of an anti-symmetric pattern
matrix ``M`` by solving the complex Hermitian eigenproblem for ``iM``
(Section 3.3).  That works, but it is wasteful three times over:

1. **Complex arithmetic is unnecessary.**  A real anti-symmetric matrix
   is normal (``MᵀM = -M² = MMᵀ``), so its singular values are exactly
   the absolute values of its eigenvalues ``±iσ_j`` — the spectrum of
   ``iM`` is ``{±σ_j}`` (plus a zero for odd ``n``).  The feature range
   is therefore ``(-σ_max, +σ_max)``, and ``σ_max²`` is the top
   eigenvalue of the real *symmetric* Gram matrix ``MMᵀ`` — one real
   matmul plus a real symmetric eigensolve (dsyevd), a fraction of the
   zheevd path's flops and memory traffic.  Squaring is harmless for
   the *largest* singular value (the top Gram eigenvalue is computed
   to relative accuracy and the square root halves the error; observed
   agreement with the complex path is ~1e-12 even at ``n = 660``), and
   ``λ_min == -λ_max`` holds *exactly* by construction rather than up
   to solver round-off.  The full-``spectrum`` path (ablation bench)
   uses a genuine real SVD instead, which keeps the *small* singular
   values accurate too.

2. **Tiny patterns have closed forms.**  The characteristic polynomial
   of a 2x2 anti-symmetric matrix is ``λ² + w₀₁²`` and of a 3x3 one is
   ``λ(λ² + w₀₁² + w₀₂² + w₁₂²)``, so:

   * ``n ≤ 1`` → range ``(0, 0)``;
   * ``n = 2`` → ``±|w₀₁|``;
   * ``n = 3`` → ``±sqrt(w₀₁² + w₀₂² + w₁₂²)``.

   Most twig subpatterns a build produces are this small, and the
   closed forms cost arithmetic only — no LAPACK round-trip at all.

3. **Per-pattern dispatch overhead dominates small solves.**  Cache
   misses collected during entry generation are grouped by matrix
   dimension, stacked into ``(B, n, n)`` arrays, and solved with one
   stacked-LAPACK (gufunc) call per bucket, amortizing the Python →
   LAPACK round-trip across thousands of patterns.

Determinism contract: numpy's ``linalg`` gufuncs apply the same LAPACK
routine to each matrix of a stack independently, so the batched results
are **bitwise identical** to the per-matrix results, and the scalar
entry points below are implemented *through* the batched code path —
one pattern always produces the same key bytes no matter how (or
whether) it was batched.  This is what keeps the PR 1 byte-identity
guarantee (same B-tree bytes for any worker count / cache setting)
intact.

The paper's complex-Hermitian ``eigvalsh(iM)`` formulation survives
only as the oracle the spectral tests compare this kernel against
(``tests/test_spectral_kernel.py``); both agree within 1e-9 (observed
~1e-14), well inside ``DEFAULT_GUARD_BAND``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _real_tops(stack: np.ndarray) -> np.ndarray:
    """``σ_max`` per matrix of a same-dimension ``(B, n, n)`` stack."""
    n = stack.shape[-1]
    if n == 2:
        return np.abs(stack[:, 0, 1])
    if n == 3:
        return np.sqrt(
            stack[:, 0, 1] ** 2 + stack[:, 0, 2] ** 2 + stack[:, 1, 2] ** 2
        )
    # σ_max² = λ_max(MMᵀ): real matmul + real symmetric eigensolve,
    # faster than both zheevd(iM) and a real SVD at every n >= 4.
    gram = stack @ stack.transpose(0, 2, 1)
    return np.sqrt(np.linalg.eigvalsh(gram)[:, -1])


def solve_batch(
    matrices: Sequence[np.ndarray],
) -> tuple[list[tuple[float, float]], dict[int, int]]:
    """Feature ranges for a batch of anti-symmetric matrices.

    Matrices are grouped by dimension and each group is solved with one
    stacked call.  Results come back in input order.

    Returns:
        ``(ranges, buckets)`` — one ``(λ_min, λ_max)`` per input, and a
        ``dimension -> matrix count`` map of the non-trivial buckets
        actually dispatched (``n >= 2``; smaller patterns are answered
        in place).
    """
    ranges: list[tuple[float, float] | None] = [None] * len(matrices)
    buckets: dict[int, list[int]] = {}
    for position, matrix in enumerate(matrices):
        n = matrix.shape[0]
        if n <= 1:
            ranges[position] = (0.0, 0.0)
        else:
            buckets.setdefault(n, []).append(position)
    for positions in buckets.values():
        stack = np.stack([matrices[position] for position in positions])
        for position, top in zip(positions, _real_tops(stack)):
            value = float(top)
            ranges[position] = (-value, value)
    return ranges, {n: len(positions) for n, positions in buckets.items()}


def singular_range(matrix: np.ndarray) -> tuple[float, float]:
    """``(-σ_max, +σ_max)`` of one anti-symmetric matrix.

    Routed through :func:`solve_batch` so a pattern's range is bitwise
    identical whether it was solved alone or inside a bucket.
    """
    ranges, _ = solve_batch([np.asarray(matrix, dtype=np.float64)])
    return ranges[0]


def real_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Full ascending spectrum reconstructed from singular values.

    Anti-symmetric spectra are ``±σ`` pairs (eigenvalues ``±iσ_j``),
    so the ``n`` descending singular values arrive as equal pairs
    ``[σ₁, σ₁, σ₂, σ₂, …]`` plus a trailing zero when ``n`` is odd;
    taking every second one recovers the pair representatives and the
    spectrum is exactly symmetric by construction.  Used by the feature
    ablation's spectrum-subset variant.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    singular = np.linalg.svd(matrix, compute_uv=False)
    pairs = singular[0::2][: n // 2]
    return np.concatenate((-pairs, np.zeros(n % 2), pairs[::-1]))
