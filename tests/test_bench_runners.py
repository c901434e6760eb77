"""Smoke tests for the experiment harness at tiny scale: each runner
must complete, return the right shape, and satisfy basic invariants.
The full shape assertions live in ``benchmarks/``; these keep the
harness itself under plain-pytest coverage."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.bench import (
    format_table,
    run_beta_sweep,
    run_feature_ablation,
    run_figure5,
    run_figure6,
    run_figure7,
    run_table1,
    run_table2,
)
from repro.bench import ablation
from repro.bench.reporting import megabytes, percent
from repro.core import FixIndex, FixIndexConfig
from repro.storage import PrimaryXMLStore
from repro.xmltree import parse_xml

SCALE = 0.06


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbb" in lines[2]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) <= 2  # header/body aligned

    def test_percent(self):
        assert percent(0.12345) == "12.35%"
        assert percent(1.0) == "100.00%"

    def test_megabytes(self):
        assert megabytes(1_500_000) == "1.50 MB"

    def test_float_rendering(self):
        text = format_table(["v"], [[1.23456789]])
        assert "1.235" in text


class TestTable1Runner:
    def test_rows_and_invariants(self):
        rows = run_table1(scale=SCALE, datasets=["xbench", "xmark"])
        assert [row.dataset for row in rows] == ["xbench", "xmark"]
        for row in rows:
            assert row.elements > 0
            assert row.construction_seconds > 0
            assert row.clustered_bytes > row.unclustered_bytes > 0
            # Phase breakdown rides along with the headline ICT number.
            assert set(row.phase_seconds) == {
                "parse", "encode", "bisim", "unfold", "matrix", "eigen",
                "insert"
            }
            assert row.phase_seconds["eigen"] > 0
            assert 0.0 <= row.eigen_share <= 1.0


class TestTable2Runner:
    def test_all_twelve_queries(self):
        rows = run_table2(scale=SCALE)
        assert len(rows) == 12
        for row in rows:
            assert 0.0 <= row.sel <= 1.0
            assert 0.0 <= row.pp <= 1.0
            assert 0.0 <= row.fpr <= 1.0


class TestFigure5Runner:
    def test_averages_bounded(self):
        rows = run_figure5(scale=SCALE, queries=5, datasets=["xmark"])
        assert len(rows) == 1
        row = rows[0]
        assert row.queries > 0
        assert 0.0 <= row.avg_pp <= 1.0
        assert 0.0 <= row.avg_sel <= 1.0


class TestFigure6Runner:
    def test_rows_have_all_systems(self):
        rows = run_figure6(scale=SCALE, repeats=1, datasets=["xmark"])
        assert len(rows) == 4  # 4 xmark queries
        for row in rows:
            assert row.nok_seconds > 0
            assert row.fix_unclustered_seconds > 0
            assert row.fb_seconds > 0
            assert row.fix_clustered_seconds > 0
            assert row.candidate_count >= row.result_count
            assert row.fix_u_pages_random == row.candidate_count
            # FIX + NoK: the explicit refiner keeps FIX on its own path.
            assert row.access_path == "index-scan"


class TestFigure7Runner:
    def test_report_shape(self):
        report = run_figure7(scale=SCALE, repeats=1)
        assert len(report.rows) == 2
        assert report.beta == 10
        assert report.value_build_seconds > 0
        assert report.structural_build_seconds > 0
        for row in report.rows:
            assert row.false_negatives == 0
            # Value twigs stay on the index scan by the rule.
            assert row.access_path == "index-scan"


class TestAblationRunners:
    def test_feature_ablation_monotone(self):
        rows = run_feature_ablation(scale=SCALE, datasets=["xmark"])
        assert rows
        for row in rows:
            assert row.cdt_spectrum <= row.cdt_range <= row.cdt_label_only <= row.ent

    def test_index_spectra_hides_oversized_patterns_and_nothing_else(
        self, monkeypatch
    ):
        document = parse_xml("<a><b><c/></b><d/></a>")
        store = PrimaryXMLStore()
        store.add_document(document)
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=3, max_pattern_vertices=2)
        )
        # Over the cap means all-covering: no spectrum to compare.
        assert sorted(ablation._index_spectra(index, document)) == [1, 2, 3]

        def broken(*_):
            raise ValueError("a real bug")

        monkeypatch.setattr(ablation, "graph_spectrum", broken)
        with pytest.raises(ValueError):
            ablation._index_spectra(index, document)

    def test_beta_sweep(self):
        rows = run_beta_sweep(scale=SCALE, betas=(2, 16))
        assert [row.beta for row in rows] == [2, 16]
        assert rows[0].encoder_size <= rows[1].encoder_size


class TestPagesDigest:
    def test_two_runs_print_the_same_digests(self):
        # Two processes, so a dependence on hash randomization would show.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [sys.executable, "benchmarks/pages_digest.py", "--scale", "0.02"]
        first, second = (
            subprocess.run(
                command, cwd=root, env=env, check=True, capture_output=True, text=True
            ).stdout
            for _ in range(2)
        )
        assert first == second
        lines = first.splitlines()
        # 4 corpora x {structural, 8 buckets} x (1 index + 4 shards)
        assert len(lines) == 4 * 2 * 5
        assert all(len(line.split()[-1]) == 32 for line in lines)
