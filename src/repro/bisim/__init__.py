"""Bisimulation graphs (Section 2.2 and Algorithm 1 of the paper).

A *bisimulation graph* of an XML tree is the minimal labeled DAG in which
two tree nodes are merged exactly when they have the same label and the
same *set* of (merged) children — downward bisimilarity in the sense of
Henzinger et al.  It preserves everything needed for **existential** twig
matching (Theorem 2) while being far smaller than the tree, which is what
makes eigenvalue extraction affordable.

Contents:

* :class:`~repro.bisim.graph.BisimVertex` / ``BisimGraph`` — the DAG.
* :class:`~repro.bisim.builder.BisimGraphBuilder` — the single-pass,
  stack-of-signatures construction of CONSTRUCT-ENTRIES (Algorithm 1) as
  a per-document graph of vertex objects.  Its ``open`` / ``text`` /
  ``close`` methods are the paper's SAX handlers; ``walk`` runs them
  over a numbered tree and yields the per-element ``(vertex,
  start_ptr)`` pairs.  It is a *view* — for query twigs, the F&B
  baseline, the ablations and the tests: index construction runs the
  same walk but interns every close straight into the collection's
  structure DAG (``repro.core.construction``).
* :func:`~repro.bisim.traveler.depth_limited_graph` — the BISIM-TRAVELER
  of Section 4.4: the minimal graph of a vertex's depth-limited
  unfolding, built by truncating the DAG in place (interning the distinct
  ``(vertex, remaining depth)`` classes) rather than walking the
  unfolding.  :class:`~repro.bisim.traveler.PatternTable` is the same
  thing holding its intern table across the vertices of one graph —
  a graph of vertex objects, or a structure DAG's arrays.
* :mod:`~repro.bisim.dag` — small DAG utilities (edges, topological
  order, canonical keys for isomorphism testing).
"""

from repro.bisim.builder import BisimGraphBuilder, bisim_graph_of_document
from repro.bisim.dag import (
    canonical_key,
    graphs_isomorphic,
    edge_count,
    edges,
    reachable_vertices,
    topological_order,
    vertex_signature,
)
from repro.bisim.graph import BisimGraph, BisimVertex
from repro.bisim.traveler import PatternTable, depth_limited_graph

__all__ = [
    "BisimGraph",
    "BisimGraphBuilder",
    "BisimVertex",
    "PatternTable",
    "bisim_graph_of_document",
    "canonical_key",
    "depth_limited_graph",
    "edge_count",
    "edges",
    "graphs_isomorphic",
    "reachable_vertices",
    "topological_order",
    "vertex_signature",
]
