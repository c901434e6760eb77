"""Smoke test of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perf -q

Runs all five workloads at a tenth of their size, untraced and traced,
twice each, through ``run.py`` exactly as the driver invokes it, and
checks the result schema, that every metric of ``BENCHMARK.json`` is
there, and that the exact counts repeat.  Not part of tier-1
(``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: per-layer metrics that are counts or ratios of counts: one client, no
#: timers, so two runs of one seed must agree to the last digit.
EXACT_LAYER_METRICS = (
    "storage.pager_physical_reads",
    "storage.pager_evictions",
    "storage.bytes_per_source_byte",
    "spectral.eigen_computations",
    "core.missed_answer_ratio",
    "core.pruning_power",
)


def invoke(arguments: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *arguments], capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, trace, repeat) -> (result line, result file)``."""
    results = {}
    for repeat in (0, 1):
        out = str(tmp_path_factory.mktemp(f"out{repeat}"))
        for workload in WORKLOADS:
            for trace in (0, 1):
                done = invoke(
                    ["--workload", workload, "--seed", "42", "--seconds", "0.5",
                     "--trace", str(trace), "--scale-factor", "0.1", "--out", out]
                )
                assert done.returncode == 0, done.stdout + done.stderr
                line = json.loads(done.stdout.splitlines()[-1])
                path = os.path.join(out, f"{workload}-seed42-trace{trace}.json")
                with open(path, encoding="utf-8") as handle:
                    results[workload, trace, repeat] = (line, json.load(handle))
                leftovers = [n for n in os.listdir(out) if n.startswith("tmp-")]
                assert not leftovers, "temporary data was left behind"
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_has_every_metric(runs, workload, trace):
    line, record = runs[workload, trace, 0]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        entry = line["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, f"{metric['name']} must never be 0"
    for key in ("git_sha", "nproc", "python", "numpy", "seed"):
        assert key in record["envelope"]
    for corpus in record["corpora"]:
        assert {"documents", "elements", "bytes", "depth_limit", "queries_kept",
                "queries_dropped"} <= set(corpus)
    assert record["samples"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(runs, workload):
    first, second = (runs[workload, 0, repeat] for repeat in (0, 1))
    assert first[1]["checksum"] == second[1]["checksum"]
    assert first[1]["missed_answer_ratio"] == second[1]["missed_answer_ratio"]
    assert (
        first[0]["metrics"]["bytes_per_source_byte"]
        == second[0]["metrics"]["bytes_per_source_byte"]
    )
    first, second = (runs[workload, 1, repeat] for repeat in (0, 1))
    assert first[1]["checksum"] == second[1]["checksum"]
    for metric in EXACT_LAYER_METRICS:
        assert first[0]["metrics"][metric] == second[0]["metrics"][metric], metric


@pytest.mark.parametrize("workload", ("collection_scan", "largedoc_probe"))
def test_layers_sum_to_the_whole(runs, workload):
    """Loose here (tiny corpora, one noisy host); README states the
    [0.85, 1.15] band for full-size runs."""
    ratio = runs[workload, 1, 0][0]["metrics"]["core.stage_sum_ratio"]["value"]
    assert 0.6 < ratio < 1.4


def test_traced_run_writes_spans(runs):
    record = runs["largedoc_probe", 1, 0][1]
    with open(record["spans_file"], encoding="utf-8") as handle:
        spans = [json.loads(text) for text in handle]
    assert {"id", "name", "start", "end", "parent", "qid"} == set(spans[0])
    by_id = {span["id"]: span for span in spans}
    refine = [span for span in spans if span["name"] == "engine.refine"]
    assert refine and all(
        by_id[span["parent"]]["name"] == "query"
        and span["qid"] == by_id[span["parent"]]["qid"]
        for span in refine
    )
    assert record["self_time_s"]["query"] >= 0


def test_compare_gates_on_the_bound(runs, tmp_path):
    line, record = runs["largedoc_probe", 0, 0]
    same, slower = tmp_path / "same", tmp_path / "slower"
    for directory, factor in ((same, 1.0), (slower, 1.5)):
        directory.mkdir()
        changed = json.loads(json.dumps(record))
        changed["result"]["metrics"]["op_p50_ms"]["value"] *= factor
        with open(directory / "largedoc_probe-seed42-trace0.json", "w") as handle:
            json.dump(changed, handle)
    assert invoke(["--compare", str(same), str(same)]).returncode == 0
    done = invoke(["--compare", str(same), str(slower)])
    assert done.returncode == 1 and "REGRESSION" in done.stdout


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", metric["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and perf/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
