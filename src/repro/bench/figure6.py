"""Figure 6: runtime comparison of the four systems on the three large
data sets — NoK-style navigation without index support, unclustered FIX
(+ the same navigational refiner), the F&B covering index, and clustered
FIX.

Times are wall-clock medians over ``repeats`` runs of the *query* phase
(index construction excluded, as in the paper).  Absolute numbers are a
pure-Python simulator's, not a C++ prototype's; the comparisons the
paper draws — FIX beating no-index navigation, clustered FIX beating F&B
on structure-rich data, F&B winning on regular/shallow DBLP — are what
EXPERIMENTS.md checks."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from collections.abc import Callable

from repro.bench.paper_queries import FIGURE6_QUERIES
from repro.bench.reporting import format_table
from repro.core import FixIndex, FixIndexConfig, FixQueryProcessor
from repro.datasets import load_dataset
from repro.engine import NavigationalEngine
from repro.fb import FBEvaluator, FBIndex
from repro.query import twig_of


@dataclass
class Figure6Row:
    """One query group of Figure 6 (four bars), with both wall-clock and
    cost-model I/O.

    Wall time in a memory-resident Python run does not see the disk
    behaviour the paper's numbers are made of (random pointer chasing
    for the unclustered index vs. a sequential candidate range for the
    clustered one), so each row also carries the Section 4/5 cost-model
    page counts: NoK reads the whole data set sequentially; unclustered
    FIX performs one random page access per candidate; clustered FIX
    reads the candidates' (redundant) copies sequentially; F&B reads its
    block tree."""

    dataset: str
    query_id: str
    query: str
    nok_seconds: float
    fix_unclustered_seconds: float
    fb_seconds: float
    fix_clustered_seconds: float
    result_count: int
    candidate_count: int = 0
    #: the path both FIX bars took (the index scan: they pass an
    #: explicit refiner).
    access_path: str = ""
    nok_pages_sequential: int = 0
    fix_u_pages_random: int = 0
    fb_pages_sequential: int = 0
    fix_c_pages_sequential: int = 0


@dataclass
class _DatasetSystems:
    store: object
    nok: NavigationalEngine
    unclustered: FixQueryProcessor
    clustered: FixQueryProcessor
    fb: FBEvaluator
    bundle_bytes: int = 0
    fb_bytes: int = 0


def _timed(action: Callable[[], object], repeats: int) -> float:
    samples: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_figure6(
    scale: float = 1.0,
    seed: int = 42,
    repeats: int = 3,
    datasets: list[str] | None = None,
) -> list[Figure6Row]:
    """Time all four systems on every Figure 6 query."""
    wanted = datasets or ["xmark", "treebank", "dblp"]
    systems: dict[str, _DatasetSystems] = {}
    for name in wanted:
        bundle = load_dataset(name, scale=scale, seed=seed)
        store = bundle.store()
        unclustered_index = FixIndex.build(
            store, FixIndexConfig(depth_limit=bundle.depth_limit)
        )
        clustered_index = FixIndex.build(
            store, FixIndexConfig(depth_limit=bundle.depth_limit, clustered=True)
        )
        fb_index = FBIndex(store.get_document(0))
        systems[name] = _DatasetSystems(
            store=store,
            nok=NavigationalEngine(store),
            # The paper's FIX + NoK pairing: an explicit refiner keeps
            # both FIX bars on the index scan.
            unclustered=FixQueryProcessor(
                unclustered_index, refiner=NavigationalEngine(store)
            ),
            clustered=FixQueryProcessor(
                clustered_index, refiner=NavigationalEngine(store)
            ),
            fb=FBEvaluator(fb_index),
            bundle_bytes=bundle.size_bytes(),
            fb_bytes=fb_index.size_bytes(),
        )

    rows: list[Figure6Row] = []
    page = 4096
    for dataset, query_id, query in FIGURE6_QUERIES:
        if dataset not in systems:
            continue
        sys = systems[dataset]
        twig = twig_of(query)
        result = sys.unclustered.query(twig)
        candidates = list(sys.clustered.index.candidates(twig))
        copy_bytes = 0
        for entry in candidates:
            unit = sys.clustered.index.clustered_store.get_unit(entry.record)
            copy_bytes += unit.element_count() * 32  # serialized estimate
        dataset_bytes = sys.bundle_bytes
        rows.append(
            Figure6Row(
                dataset=dataset,
                query_id=query_id,
                query=query,
                nok_seconds=_timed(lambda: sys.nok.evaluate(twig), repeats),
                fix_unclustered_seconds=_timed(
                    lambda: sys.unclustered.query(twig), repeats
                ),
                fb_seconds=_timed(lambda: sys.fb.evaluate(twig), repeats),
                fix_clustered_seconds=_timed(
                    lambda: sys.clustered.query(twig), repeats
                ),
                result_count=result.result_count,
                candidate_count=len(candidates),
                access_path=result.access_path.value,
                nok_pages_sequential=-(-dataset_bytes // page),
                fix_u_pages_random=len(candidates),
                fb_pages_sequential=-(-sys.fb_bytes // page),
                fix_c_pages_sequential=-(-copy_bytes // page) if copy_bytes else 0,
            )
        )
    return rows


def print_figure6(rows: list[Figure6Row]) -> str:
    """Render the four bars per query, in milliseconds (log-scale plots
    in the paper; the ordering is what matters)."""

    def ms(seconds: float) -> str:
        return f"{seconds * 1000:.2f}"

    timing = format_table(
        ["query", "NoK (ms)", "FIX-U (ms)", "F&B (ms)", "FIX-C (ms)", "results"],
        [
            (
                f"{row.dataset}_{row.query_id}",
                ms(row.nok_seconds),
                ms(row.fix_unclustered_seconds),
                ms(row.fb_seconds),
                ms(row.fix_clustered_seconds),
                row.result_count,
            )
            for row in rows
        ],
        title="Figure 6: runtime comparison (NoK vs FIX-U vs F&B vs FIX-C)",
    )
    io = format_table(
        [
            "query",
            "cdt",
            "NoK seq pages",
            "FIX-U random pages",
            "F&B seq pages",
            "FIX-C seq pages",
        ],
        [
            (
                f"{row.dataset}_{row.query_id}",
                row.candidate_count,
                row.nok_pages_sequential,
                row.fix_u_pages_random,
                row.fb_pages_sequential,
                row.fix_c_pages_sequential,
            )
            for row in rows
        ],
        title="Figure 6 (cost model): page accesses per system",
    )
    output = timing + "\n\n" + io
    print(output)
    return output
