"""Anti-symmetric matrix representation of a twig pattern (Section 3.2).

Each reachable vertex of the bisimulation graph gets a matrix dimension.
The assignment is arbitrary up to permutation — eigenvalues are
permutation-invariant in exact arithmetic — but *floating-point*
``eigvalsh`` results can differ in the last ulp between permutations of
the same matrix.  The per-class key memo and the parallel build both
promise byte-identical keys for isomorphic patterns however and
wherever they are encountered, so the dimension order must be a
**canonical** function of the labeled structure: vertices are sorted by
their structural :func:`~repro.bisim.dag.vertex_signature` (vid as a
tie-break, reachable only in non-minimal graphs such as query twigs,
where bit-exactness is not required — containment checks carry a guard
band).  An edge ``(u, v)`` with encoded weight ``w`` sets ``M[i, j] = w``
and ``M[j, i] = -w``; all diagonal entries are 0 because the graph is
acyclic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PatternTooLargeError
from repro.bisim.dag import reachable_vertices, vertex_signature
from repro.bisim.graph import BisimGraph
from repro.spectral.encoding import EdgeLabelEncoder


def pattern_matrix(
    graph: BisimGraph,
    encoder: EdgeLabelEncoder,
    max_vertices: int | None = None,
    signatures: dict[int, bytes] | None = None,
) -> np.ndarray:
    """Build the anti-symmetric matrix of ``graph`` under ``encoder``.

    Args:
        graph: the twig pattern (bisimulation graph).
        encoder: shared edge-label encoder; unseen edge labels are
            assigned fresh codes (see
            :class:`~repro.spectral.encoding.EdgeLabelEncoder`).
        max_vertices: optional cap; exceeding it raises
            :class:`~repro.errors.PatternTooLargeError` so index
            construction can fall back to the all-covering range.
        signatures: optional vid → digest memo over ``graph``'s vertex
            space (:func:`~repro.bisim.dag.vertex_signature`'s
            ``_memo``), for a caller that has digested part of the graph
            already; it only saves recomputing the same digests.

    Returns:
        An ``(n, n)`` float64 array with ``M.T == -M``.
    """
    vertices = reachable_vertices(graph.root)
    n = len(vertices)
    if max_vertices is not None and n > max_vertices:
        raise PatternTooLargeError(
            f"pattern has {n} vertices, above the cap of {max_vertices}",
            size=n,
        )
    if signatures is None:
        signatures = {}
    vertices.sort(key=lambda vertex: (vertex_signature(vertex, signatures), vertex.vid))
    index_of = {vertex.vid: i for i, vertex in enumerate(vertices)}
    # Edge gathering stays in Python (the encoder is a Python dict) but
    # the n² matrix writes are fancy-indexed in one shot each way.
    rows: list[int] = []
    cols: list[int] = []
    weights: list[int] = []
    for parent in vertices:
        i = index_of[parent.vid]
        label = parent.label
        for child in parent.children:
            rows.append(i)
            cols.append(index_of[child.vid])
            weights.append(encoder.encode(label, child.label))
    matrix = np.zeros((n, n), dtype=np.float64)
    if rows:
        i = np.asarray(rows, dtype=np.intp)
        j = np.asarray(cols, dtype=np.intp)
        w = np.asarray(weights, dtype=np.float64)
        matrix[i, j] = w
        matrix[j, i] = -w
    return matrix
