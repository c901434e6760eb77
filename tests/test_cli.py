"""Tests for the command-line interface and store persistence."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.storage import PrimaryXMLStore
from repro.errors import RecordError
from repro.xmltree import parse_xml


class TestStorePersistence:
    def test_roundtrip(self, tmp_path):
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b>t</b></a>"))
        store.add_document(parse_xml("<c/>"))
        directory = os.fspath(tmp_path / "store")
        store.save(directory)
        loaded = PrimaryXMLStore.load(directory)
        assert loaded.document_count == 2
        assert loaded.get_document(0).root.tag == "a"
        assert next(loaded.get_document(0).root.find_all("b")).text() == "t"
        assert loaded.get_document(1).root.tag == "c"

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(RecordError):
            PrimaryXMLStore.load(os.fspath(tmp_path / "nothing"))


@pytest.fixture()
def built_index_dir(tmp_path):
    directory = os.fspath(tmp_path / "idx")
    code = main(
        [
            "build",
            "--dataset", "xmark",
            "--scale", "0.05",
            "--seed", "3",
            "--out", directory,
        ]
    )
    assert code == 0
    return directory


class TestCLI:
    def test_build_from_xml_files(self, tmp_path, capsys):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text("<a><b><c/></b></a>")
        out = os.fspath(tmp_path / "idx")
        code = main(["build", "--xml", os.fspath(xml_path), "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "meta.json"))
        assert os.path.exists(os.path.join(out, "store", "primary.json"))
        assert "built FixIndex" in capsys.readouterr().out

    def test_build_dataset_and_query(self, built_index_dir, capsys):
        code = main(["query", built_index_dir, "//item[name]/mailbox"])
        assert code == 0
        output = capsys.readouterr().out
        assert "candidates=" in output
        assert "results=" in output
        assert "over" not in output
        # --repeat sums its runs out of the query's own registry.
        for flags, rate in (([], "67%"), (["--no-plan-cache"], "0%")):
            argv = ["query", built_index_dir, "//item[name]/mailbox"]
            assert main(argv + ["--repeat", "3"] + flags) == 0
            summary = capsys.readouterr().out.splitlines()[1]
            assert summary.startswith("  over 3 runs: plan=")
            assert summary.endswith(f"plan_cache_hit_rate={rate}")

    def test_query_with_metrics(self, built_index_dir, capsys):
        code = main(["query", built_index_dir, "//item[name]", "--metrics"])
        assert code == 0
        output = capsys.readouterr().out
        assert "sel=" in output and "pp=" in output
        assert "false_negatives=" in output

    def test_query_uncovered_reports_error(self, built_index_dir, capsys):
        # Coverage bounds the index scan only: a depth-7 structural twig
        # against the depth-6 index is answered on the structure DAG,
        # while its pruning metrics and a value twig on an index built
        # without values are coverage errors, exit 1.
        deep = "//a/b/c/d/e/f/g"
        assert main(["query", built_index_dir, deep]) == 0
        assert "path=structure-scan" in capsys.readouterr().out
        for argv in ([deep, "--metrics"], ['//item[name = "x"]']):
            assert main(["query", built_index_dir, *argv]) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "IDX", "//item", "--shard-workers", "0"],
            ["query", "IDX", "//item", "--page-cache-pages", "0"],
            ["query", "IDX", "//item", "--page-cache-pages", "many"],
            ["build", "--dataset", "xmark", "--out", "OUT", "--shards", "0"],
            ["build", "--dataset", "xmark", "--out", "OUT",
             "--shard-workers", "0"],
            ["build", "--dataset", "xmark", "--out", "OUT",
             "--page-cache-pages", "-4"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_page_cache_bound_reaches_the_store_pager(self, tmp_path):
        # One bound for every file-backed pager of a plain index: the
        # override, else the one the index was saved with.
        from repro.cli import _open

        xml_path = tmp_path / "doc.xml"
        xml_path.write_text("<a><b><c/></b></a>")
        out = os.fspath(tmp_path / "idx")
        assert main(
            ["build", "--xml", os.fspath(xml_path), "--out", out,
             "--page-cache-pages", "16"]
        ) == 0
        for override, bound in ((8, 8), (None, 16)):
            store, index = _open(out, override)
            assert index.btree.pager.cache_pages == bound
            assert store.pager.cache_pages == bound
            index.btree.pager.close()
            store.pager.close()

    def test_stats(self, built_index_dir, capsys):
        code = main(["stats", built_index_dir])
        assert code == 0
        output = capsys.readouterr().out
        assert "entries:" in output
        assert "top root labels:" in output
        assert "0.00 MB" not in output.split("B-tree:")[1].splitlines()[0]

    def test_stats_surfaces_cache_state(self, built_index_dir, capsys):
        code = main(["stats", built_index_dir])
        assert code == 0
        output = capsys.readouterr().out
        assert "spectral cache:" in output
        assert "plan cache:" in output

    def test_trace_roundtrip(self, tmp_path, capsys):
        directory = os.fspath(tmp_path / "idx")
        trace_path = os.fspath(tmp_path / "trace.jsonl")
        assert main(
            [
                "build", "--dataset", "xbench", "--scale", "0.05",
                "--out", directory, "--trace", trace_path,
            ]
        ) == 0
        assert main(
            ["query", directory, "//article", "--trace", trace_path]
        ) == 0
        capsys.readouterr()
        assert main(["trace", trace_path]) == 0
        output = capsys.readouterr().out
        assert "build phases" in output
        assert "//article" in output
        assert main(["trace", trace_path, "--json", "--top", "3"]) == 0
        payload = capsys.readouterr().out
        assert '"phases"' in payload

    def test_trace_missing_file_errors(self, tmp_path, capsys):
        code = main(["trace", os.fspath(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_artifacts_of_the_two_backend_era_still_render(self, tmp_path, capsys):
        # Traces and slow logs written while queries still named a
        # pruning backend carry it as a span attribute, a slow-query
        # field and a per-backend counter; the reports ignore all three.
        span = {
            "type": "span", "run": "r1", "id": 1, "parent": None,
            "proc": "main", "name": "query", "start": 10.0, "dur": 0.0008,
            "attrs": {
                "source": "//sec//text", "backend": "rtree", "workers": 1,
                "candidates": 3, "results": 3, "plan_cached": False,
            },
        }
        slow = {
            "type": "slow_query", "ts": 10.0, "source": "//sec//text",
            "seconds": 0.0008, "plan_s": 0.0002, "prune_s": 0.0004,
            "refine_s": 0.0002, "plan_cached": False, "candidates": 3,
            "results": 3, "documents_fetched": 3, "backend": "rtree",
            "workers": 1, "pushdown": False, "threshold_s": 0.0,
            "epoch": {"epoch": 0}, "spans": [span],
        }
        metrics = {
            "type": "metrics", "run": "r1", "proc": "main",
            "snapshot": {
                "counters": {"query.count": 1.0, "query.candidates.rtree": 3.0}
            },
        }
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(
            "".join(json.dumps(event) + "\n" for event in (span, slow, metrics))
        )
        slow_path = tmp_path / "slow.jsonl"
        slow_path.write_text(json.dumps(slow) + "\n")
        assert main(["trace", os.fspath(trace_path)]) == 0
        assert "//sec//text" in capsys.readouterr().out
        for path in (trace_path, slow_path):
            assert main(["trace", os.fspath(path), "--slow"]) == 0
            output = capsys.readouterr().out
            assert "1 captured" in output and "//sec//text" in output

    def test_retired_backend_flag_is_a_usage_error(self, capsys):
        retired = "--prune-" + "backend"  # in halves: CI greps for it
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "IDX", "//item", retired, "rtree"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_datasets_listing(self, capsys):
        code = main(["datasets"])
        assert code == 0
        output = capsys.readouterr().out
        for name in ("xbench", "dblp", "xmark", "treebank"):
            assert name in output

    def test_bench_table2_small(self, capsys):
        code = main(["bench", "table2", "--scale", "0.05"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_clustered_build_and_query(self, tmp_path, capsys):
        directory = os.fspath(tmp_path / "cidx")
        assert (
            main(
                [
                    "build", "--dataset", "xmark", "--scale", "0.05",
                    "--out", directory, "--clustered",
                ]
            )
            == 0
        )
        assert main(["query", directory, "//item[name]"]) == 0
        assert "results=" in capsys.readouterr().out

    def test_value_build_and_query(self, tmp_path, capsys):
        directory = os.fspath(tmp_path / "vidx")
        assert (
            main(
                [
                    "build", "--dataset", "dblp", "--scale", "0.05",
                    "--out", directory, "--beta", "8",
                ]
            )
            == 0
        )
        assert (
            main(["query", directory, '//proceedings[publisher = "Springer"]'])
            == 0
        )
        assert "results=" in capsys.readouterr().out
