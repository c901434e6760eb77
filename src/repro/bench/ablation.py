"""Ablation studies for DESIGN.md §5's design decisions.

1. **Feature ablation** — how much pruning each feature component buys:

   * ``label`` — root label only (λ ignored);
   * ``range`` — the paper's ``(root label, λ_min, λ_max)`` key;
   * ``spectrum`` — the stronger full-spectrum multiset-subset test the
     paper sketches but rejects for engineering reasons (Section 3.3).

   Because real anti-symmetric spectra are symmetric, the λ-pair carries
   one scalar; the spectrum variant shows what the discarded information
   was worth.  Spectra come from the real-SVD kernel's full-spectrum
   path (:func:`repro.spectral.kernel.real_spectrum`, via
   :func:`~repro.spectral.eigen.graph_spectrum`): the ``±σ`` pairs of
   the pattern's singular values, exactly symmetric by construction.

2. **β sweep** — the Section 4.6 trade-off: value-hash bucket count vs.
   index size, construction time, and value-query false positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.paper_queries import FIGURE7_QUERIES, TABLE2_QUERIES
from repro.bench.reporting import format_table, percent
from repro.core import FixIndex, FixIndexConfig, evaluate_pruning
from repro.core.metrics import true_result_units
from repro.datasets import load_dataset
from repro.errors import PatternTooLargeError
from repro.query import twig_of
from repro.spectral import spectrum_contains
from repro.spectral.eigen import graph_spectrum
from repro.bisim import depth_limited_graph
from repro.xmltree import Document


# --------------------------------------------------------------------- #
# Feature ablation
# --------------------------------------------------------------------- #


@dataclass
class FeatureAblationRow:
    """Candidate counts per feature variant for one query."""

    dataset: str
    query: str
    ent: int
    rst: int
    cdt_label_only: int
    cdt_range: int
    cdt_spectrum: int


def run_feature_ablation(
    scale: float = 0.5,
    seed: int = 42,
    datasets: list[str] | None = None,
) -> list[FeatureAblationRow]:
    """Compare pruning of label-only vs λ-range vs full-spectrum keys."""
    wanted = set(datasets or ["xmark", "treebank"])
    rows: list[FeatureAblationRow] = []
    bundles = {}
    for dataset, _, query in TABLE2_QUERIES:
        if dataset not in wanted:
            continue
        if dataset not in bundles:
            bundle = load_dataset(dataset, scale=scale, seed=seed)
            store = bundle.store()
            index = FixIndex.build(
                store, FixIndexConfig(depth_limit=bundle.depth_limit)
            )
            # Precompute per-vertex spectra for the spectrum variant.
            spectra = _index_spectra(index, bundle.documents[0])
            bundles[dataset] = (bundle, index, spectra)
        bundle, index, spectra = bundles[dataset]
        twig = twig_of(query)
        query_key = index.query_features(twig)
        query_spectrum = graph_spectrum(
            twig.pattern(text_label=index.value_hasher), index.encoder
        )

        label_only = 0
        range_based = 0
        spectrum_based = 0
        for entry in index.iter_entries():
            key = entry.key
            if key.root_label != query_key.root_label:
                continue
            label_only += 1
            if key.range.contains(query_key.range, guard=index.config.guard_band):
                range_based += 1
                indexed_spectrum = spectra.get(entry.pointer.node_id)
                if indexed_spectrum is None or spectrum_contains(
                    indexed_spectrum, query_spectrum
                ):
                    spectrum_based += 1
        truth = true_result_units(index, twig)
        rows.append(
            FeatureAblationRow(
                dataset=dataset,
                query=query,
                ent=index.entry_count,
                rst=len(truth),
                cdt_label_only=label_only,
                cdt_range=range_based,
                cdt_spectrum=spectrum_based,
            )
        )
    return rows


def _index_spectra(index: FixIndex, document: Document) -> dict[int, np.ndarray]:
    """Full spectrum per element (by its bisimulation class), for the
    spectrum-subset ablation variant."""
    from repro.bisim import BisimGraphBuilder

    builder = BisimGraphBuilder(text_label=index.value_hasher)
    spectra: dict[int, np.ndarray] = {}
    per_vertex: dict[int, np.ndarray] = {}
    for vertex, start_ptr in builder.walk(document.root):
        cached = per_vertex.get(vertex.vid)
        if cached is None:
            try:
                pattern = depth_limited_graph(
                    vertex,
                    index.config.depth_limit,
                    max_vertices=index.config.max_pattern_vertices,
                )
                cached = graph_spectrum(pattern, index.encoder)
            except PatternTooLargeError:
                cached = np.zeros(0)  # treat as all-covering
            per_vertex[vertex.vid] = cached
        if cached.size:
            spectra[start_ptr] = cached
    builder.finish()
    return spectra


def print_feature_ablation(rows: list[FeatureAblationRow]) -> str:
    """Render the ablation as per-variant pruning powers."""
    table = format_table(
        ["dataset", "query", "rst", "pp label", "pp range", "pp spectrum"],
        [
            (
                row.dataset,
                row.query if len(row.query) < 45 else row.query[:42] + "...",
                row.rst,
                percent(1 - row.cdt_label_only / row.ent),
                percent(1 - row.cdt_range / row.ent),
                percent(1 - row.cdt_spectrum / row.ent),
            )
            for row in rows
        ],
        title="Feature ablation: pruning power per key variant",
    )
    print(table)
    return table


# --------------------------------------------------------------------- #
# β sweep
# --------------------------------------------------------------------- #


@dataclass
class BetaSweepRow:
    """Costs and benefits of one β setting."""

    beta: int
    build_seconds: float
    btree_bytes: int
    encoder_size: int
    avg_fpr: float
    false_negatives: int


def run_beta_sweep(
    scale: float = 0.3,
    seed: int = 42,
    betas: tuple[int, ...] = (2, 4, 10, 32, 128),
) -> list[BetaSweepRow]:
    """Sweep the value-hash domain size on the DBLP value queries."""
    bundle = load_dataset("dblp", scale=scale, seed=seed)
    store = bundle.store()
    rows: list[BetaSweepRow] = []
    for beta in betas:
        index = FixIndex.build(
            store,
            FixIndexConfig(depth_limit=bundle.depth_limit, value_buckets=beta),
        )
        fpr_sum = 0.0
        false_negatives = 0
        for _, query in FIGURE7_QUERIES:
            metrics = evaluate_pruning(index, query)
            fpr_sum += metrics.fpr
            false_negatives += metrics.false_negatives
        rows.append(
            BetaSweepRow(
                beta=beta,
                build_seconds=index.report.seconds,
                btree_bytes=index.size_bytes(),
                encoder_size=len(index.encoder),
                avg_fpr=fpr_sum / len(FIGURE7_QUERIES),
                false_negatives=false_negatives,
            )
        )
    return rows


def print_beta_sweep(rows: list[BetaSweepRow]) -> str:
    """Render the β trade-off table."""
    table = format_table(
        ["beta", "build (s)", "B-tree", "edge labels", "avg fpr", "FN"],
        [
            (
                row.beta,
                f"{row.build_seconds:.2f}",
                f"{row.btree_bytes / 1e6:.2f} MB",
                row.encoder_size,
                percent(row.avg_fpr),
                row.false_negatives,
            )
            for row in rows
        ],
        title="Section 4.6 beta sweep: value-hash domain size trade-off",
    )
    print(table)
    return table
