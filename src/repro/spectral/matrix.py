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

from collections.abc import Sequence

import numpy as np

from repro.errors import PatternTooLargeError
from repro.bisim.dag import reachable_vertices, signature_of, vertex_signature
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
    return _antisymmetric(n, rows, cols, weights)


def dag_matrix(
    dag,
    vertices: Sequence[int],
    encoder: EdgeLabelEncoder,
    max_vertices: int | None = None,
    signatures: dict[int, bytes] | None = None,
) -> np.ndarray:
    """:func:`pattern_matrix` of a pattern read straight off a
    :class:`~repro.core.structure.StructureDag` — a document unit's
    graph, with no copy made.

    ``vertices`` are every vertex of ``dag`` the pattern's root reaches,
    each child before its parents (a walk's first-close order, or
    ascending ids).  ``signatures`` is a vertex → digest memo over
    ``dag``, so across calls each DAG vertex is digested once.  A DAG is
    minimal, so no two vertices share a digest and the dimension order
    — hence every byte of the matrix — is the one :func:`pattern_matrix`
    gives the same pattern as a :class:`BisimGraph`.
    """
    n = len(vertices)
    if max_vertices is not None and n > max_vertices:
        raise PatternTooLargeError(
            f"pattern has {n} vertices, above the cap of {max_vertices}",
            size=n,
        )
    if signatures is None:
        signatures = {}
    label_of, children_of = dag.label_of, dag.children_of
    for vertex in vertices:
        if vertex not in signatures:
            signatures[vertex] = signature_of(
                label_of(vertex), [signatures[child] for child in children_of(vertex)]
            )
    order = sorted(vertices, key=signatures.__getitem__)
    index_of = {vertex: i for i, vertex in enumerate(order)}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[int] = []
    for i, parent in enumerate(order):
        label = label_of(parent)
        for child in children_of(parent):
            rows.append(i)
            cols.append(index_of[child])
            weights.append(encoder.encode(label, label_of(child)))
    return _antisymmetric(n, rows, cols, weights)


def _antisymmetric(
    n: int, rows: list[int], cols: list[int], weights: list[int]
) -> np.ndarray:
    """The ``(n, n)`` matrix with ``M[i, j] = w`` and ``M[j, i] = -w``
    for each edge ``(i, j, w)``."""
    matrix = np.zeros((n, n), dtype=np.float64)
    if rows:
        i = np.asarray(rows, dtype=np.intp)
        j = np.asarray(cols, dtype=np.intp)
        w = np.asarray(weights, dtype=np.float64)
        matrix[i, j] = w
        matrix[j, i] = -w
    return matrix
