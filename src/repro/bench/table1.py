"""Table 1: data-set characteristics, index construction time, and the
unclustered vs. clustered index sizes.

Beyond the paper's columns, each row carries the per-phase breakdown of
the construction time (parse / encode / bisim / unfold / matrix / eigen
/ insert,
see :class:`~repro.core.construction.PhaseTimings`) so the dominant cost
— eigen-decomposition — is visible next to the headline ICT number."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import format_table, megabytes
from repro.core import FixIndex, FixIndexConfig
from repro.datasets import dataset_names, load_dataset


@dataclass
class Table1Row:
    """One data-set row of Table 1."""

    dataset: str
    size_bytes: int
    elements: int
    depth_limit: int
    construction_seconds: float
    unclustered_bytes: int
    clustered_bytes: int
    oversized_patterns: int
    #: phase name -> seconds for the unclustered build.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: the eigensolve's batching profile (stacked kernel dispatches;
    #: batch size -> stacked-call count).
    eigen_batches: int = 0
    eigen_batch_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def eigen_share(self) -> float:
        """Fraction of the phase-accounted time spent in the eigensolve
        proper (matrix assembly is accounted separately as ``matrix``)."""
        total = sum(self.phase_seconds.values())
        return self.phase_seconds.get("eigen", 0.0) / total if total else 0.0


def run_table1(
    scale: float = 1.0,
    seed: int = 42,
    datasets: list[str] | None = None,
) -> list[Table1Row]:
    """Build both index variants on every data set and measure."""
    rows: list[Table1Row] = []
    for name in datasets or dataset_names():
        bundle = load_dataset(name, scale=scale, seed=seed)
        store = bundle.store()
        unclustered = FixIndex.build(
            store, FixIndexConfig(depth_limit=bundle.depth_limit)
        )
        clustered = FixIndex.build(
            store, FixIndexConfig(depth_limit=bundle.depth_limit, clustered=True)
        )
        rows.append(
            Table1Row(
                dataset=name,
                size_bytes=bundle.size_bytes(),
                elements=bundle.element_count(),
                depth_limit=bundle.depth_limit,
                construction_seconds=unclustered.report.seconds,
                unclustered_bytes=unclustered.size_bytes(),
                clustered_bytes=clustered.total_size_bytes(),
                oversized_patterns=unclustered.report.stats.oversized_patterns,
                phase_seconds=unclustered.report.timings.as_dict(),
                eigen_batches=unclustered.report.stats.eigen_batches,
                eigen_batch_sizes=dict(
                    unclustered.report.stats.eigen_batch_sizes
                ),
            )
        )
    return rows


def print_table1(rows: list[Table1Row]) -> str:
    """Render rows in the paper's Table 1 layout."""
    table = format_table(
        ["data set", "size", "# elements", "L", "ICT", "eigen %",
         "|UIdx|", "|CIdx|", "oversized"],
        [
            (
                row.dataset,
                megabytes(row.size_bytes),
                row.elements,
                row.depth_limit,
                f"{row.construction_seconds:.2f} s",
                f"{row.eigen_share:.0%}",
                megabytes(row.unclustered_bytes),
                megabytes(row.clustered_bytes),
                row.oversized_patterns,
            )
            for row in rows
        ],
        title="Table 1: data sets, construction time, index sizes",
    )
    print(table)
    for row in rows:
        phases = "  ".join(
            f"{phase}={seconds:.2f}s"
            for phase, seconds in row.phase_seconds.items()
        )
        print(
            f"  {row.dataset:9s} phases: {phases}  "
            f"[{row.eigen_batches} eigen batches]"
        )
    return table
