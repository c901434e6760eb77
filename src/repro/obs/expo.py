"""Metrics exposition: render a registry snapshot as Prometheus text
or structured JSON (DESIGN.md §13).

Both renderers consume the plain-dict form
:meth:`~repro.obs.registry.MetricsRegistry.snapshot` produces — which
is also what flushed traces carry — so the same code path serves a live
registry (the future daemon's ``/metrics`` endpoint), a saved trace
(``repro metrics trace.jsonl``), and a freshly opened index
(``repro metrics INDEX_DIR``).

Prometheus mapping:

* counters  -> ``# TYPE <name> counter`` samples (dots become
  underscores; Prometheus names cannot carry ``.``),
* gauges    -> ``gauge`` samples,
* sketches  -> ``summary``-style ``{quantile="..."}`` samples derived
  from the sketch (p50/p90/p95/p99 by default) plus ``_sum`` /
  ``_count`` — the exposition every scrape-side dashboard understands.

One distribution instrument means one ``# TYPE`` family per name, which
the text format requires.
"""

from __future__ import annotations

import json
import re

__all__ = [
    "DEFAULT_QUANTILES",
    "render_prometheus",
    "render_json",
    "snapshot_from_trace",
]

#: quantiles exported for every sketch.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    flat = _NAME_RE.sub("_", name)
    return f"{namespace}_{flat}" if namespace else flat


def _fmt(value: float) -> str:
    """Prometheus sample formatting (repr keeps full float precision;
    integers shed their trailing ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sketch_quantiles(dump: dict, qs) -> list[tuple[float, float]]:
    """Probe a serialized sketch state without rehydrating the class
    registry-side (the renderer works on plain snapshot dicts)."""
    from repro.obs.sketch import QuantileSketch

    sketch = QuantileSketch.from_dict("expo", dump)
    return list(zip(qs, sketch.quantiles(qs)))


def render_prometheus(
    snapshot: dict,
    namespace: str = "repro",
    quantiles=DEFAULT_QUANTILES,
) -> str:
    """The Prometheus text exposition format (version 0.0.4) of one
    registry snapshot."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, dump in sorted(snapshot.get("sketches", {}).items()):
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} summary")
        if dump.get("count"):
            for q, value in _sketch_quantiles(dump, quantiles):
                lines.append(
                    f'{metric}{{quantile="{_fmt(q)}"}} {_fmt(value)}'
                )
        lines.append(f"{metric}_sum {_fmt(dump.get('sum', 0.0))}")
        lines.append(f"{metric}_count {dump.get('count', 0)}")
    return "\n".join(lines) + "\n"


def render_json(
    snapshot: dict,
    quantiles=DEFAULT_QUANTILES,
    indent: int | None = 2,
) -> str:
    """Structured JSON exposition: counters/gauges pass through,
    sketches are *derived* — quantiles, mean, extremes, and the
    rank-error bound — rather than raw levels, because consumers of
    this format want numbers, not sketch state."""
    from repro.obs.sketch import QuantileSketch

    sketches: dict[str, dict] = {}
    for name, dump in sorted(snapshot.get("sketches", {}).items()):
        sketch = QuantileSketch.from_dict(name, dump)
        derived: dict = {
            "count": sketch.count,
            "sum": sketch.sum,
            "rank_error_bound": sketch.rank_error_bound(),
        }
        if sketch.count:
            derived.update(
                min=sketch.min,
                max=sketch.max,
                mean=sketch.sum / sketch.count,
                quantiles={
                    _fmt(q): value
                    for q, value in zip(quantiles, sketch.quantiles(quantiles))
                },
            )
        sketches[name] = derived
    payload = {
        "counters": dict(sorted(snapshot.get("counters", {}).items())),
        "gauges": dict(sorted(snapshot.get("gauges", {}).items())),
        "sketches": sketches,
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def snapshot_from_trace(path: str) -> dict:
    """The merged registry snapshot of a JSONL trace artifact — the
    snapshot-file mode of ``repro metrics``."""
    from repro.obs.report import summarize_trace_file

    return summarize_trace_file(path).registry.snapshot()
