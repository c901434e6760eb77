#!/usr/bin/env python3
"""The repo's benchmark: one harness, five named workloads.

    python3 perf/run.py                                  # all five, untraced
    python3 perf/run.py --workload largedoc_probe        # one workload
    python3 perf/run.py --workload churn_mix --trace 1   # its per-layer run
    python3 perf/run.py --compare A B                    # two results (files or directories)

With one ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Exit code 1 means an answer was wrong
or an operation failed.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: calibration points before and after each set-up.
SETUP_POINTS = 4


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_arguments(spec: dict) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=names, metavar="NAME",
        help=f"one of {', '.join(names)}; repeatable; default all",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="how long each timed loop measures",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, printing the per-layer metrics",
    )
    parser.add_argument(
        "--out", default=os.path.join(HERE, "out"), metavar="DIR",
        help="where result files, span files and temporary data go",
    )
    parser.add_argument(
        "--scale-factor", type=float, default=1.0,
        help="multiply every corpus size (smoke tests use 0.1)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="compare two results: files written to --out, or directories of them",
    )
    return parser.parse_args()


# --------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------- #


def envelope(args: argparse.Namespace) -> dict:
    import numpy

    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale_factor": args.scale_factor,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
    }


def run_untraced(workload, args) -> dict:
    clock = time.perf_counter
    calibrator = workload.calibrator()
    setups: list[tuple[float, float]] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()  # the next set-up starts from the same heap
        for _ in range(SETUP_POINTS):
            calibrator.point()
        started = clock()
        state = workload.setup(args.seed)
        setups.append((started, clock()))
        for _ in range(SETUP_POINTS):
            calibrator.point()
    loop = workload.loop(state, args.seconds, calibrator)
    peak_rss_mb = workload.peak_rss_mb()
    stored, source = workload.space(state)
    started = clock()
    check = workload.check(state)
    check_s = clock() - started
    workload.close(state)
    for failure in loop.failures:
        check.fail(failure)

    def raw_seconds(timings) -> float:
        return sum(ended - started for started, ended in timings)

    busy = [timing for sample in loop.timed for timing in sample] + loop.others
    raw = {
        "setup_s": statistics.median(raw_seconds([setup]) for setup in setups),
        "op_p50_ms": 1e3 * statistics.median(map(raw_seconds, loop.timed)),
        "ops_per_s": loop.operations / raw_seconds(busy),
    }
    metrics = {
        "setup_s": statistics.median(
            calibrator.seconds([setup], around=SETUP_POINTS) for setup in setups
        ),
        "op_p50_ms": 1e3 * statistics.median(map(calibrator.seconds, loop.timed)),
        "ops_per_s": loop.operations / calibrator.seconds(busy),
        "peak_rss_mb": peak_rss_mb,
        "bytes_per_source_byte": stored / source,
    }
    return {
        "metrics": metrics,
        "raw": raw,
        "host_factor": {
            "median": calibrator.median_factor,
            "points": len(calibrator.samples),
        },
        "attempted": loop.operations + check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "checksum": check.checksum,
        "missed_answer_ratio": check.missed_answer_ratio,
        "samples": {
            "setup_s": len(setups),
            "op_p50_ms": len(loop.timed),
            "ops_per_s": loop.operations,
        },
        "setup_s_each": [ended - started for started, ended in setups],
        "busy_s": raw_seconds(busy),
        "check_s": check_s,
        "corpora": [corpus.descriptor() for corpus in workload.corpora_of(state)],
    }


def run_traced(workload, args, scratch: str) -> dict:
    from layers import run_traced as probe
    from trace import Recorder

    recorder = Recorder()
    corpus_list = workload.corpora(args.seed)
    metrics, check = probe(corpus_list, scratch, recorder)
    spans = os.path.join(
        args.out, f"{workload.name}-seed{args.seed}-spans.jsonl"
    )
    recorder.write_jsonl(spans)
    return {
        "metrics": metrics,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "checksum": check.checksum,
        "missed_answer_ratio": check.missed_answer_ratio,
        "samples": {"spans": len(recorder.spans), "queries": check.attempted},
        "self_time_s": recorder.self_times(),
        "spans_file": spans,
        "corpora": [corpus.descriptor() for corpus in corpus_list],
    }


def run_one(name: str, spec: dict, args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    try:
        workload = WORKLOADS[name](args.scale_factor, scratch)
        if args.trace:
            outcome = run_traced(workload, args, scratch)
        else:
            outcome = run_untraced(workload, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    if set(outcome["metrics"]) != set(units):
        odd = sorted(set(outcome["metrics"]) ^ set(units))
        print(f"error: metrics differ from BENCHMARK.json: {odd}", file=sys.stderr)
        return 2
    line = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric: {"value": outcome["metrics"][metric], "unit": units[metric]}
            for metric in units
        },
    }
    record = {"envelope": envelope(args), "workload": name, **outcome, "result": line}
    path = os.path.join(args.out, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"== {name} (seed {args.seed}, {kind}) -> {path}")
    for corpus in outcome["corpora"]:
        print("   corpus " + " ".join(f"{k}={v}" for k, v in corpus.items()))
    for metric, unit in units.items():
        samples = outcome["samples"].get(metric)
        note = f"  (n={samples})" if samples else ""
        print(f"   {metric:38s} {outcome['metrics'][metric]:>16.6g} {unit}{note}")
    print(
        f"   checksum {outcome['checksum']}  attempted {outcome['attempted']}  "
        f"failed {outcome['failed']}  missed_answer_ratio "
        f"{outcome['missed_answer_ratio']:.6g}"
    )
    if "raw" in outcome:
        factor = outcome["host_factor"]
        print(
            "   raw " + "  ".join(f"{k}={v:.6g}" for k, v in outcome["raw"].items())
            + f"  host factor {factor['median']:.3f} ({factor['points']} points)"
        )
    for problem in outcome["problems"]:
        print(f"   FAILED {problem}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# --------------------------------------------------------------------- #
# Several workloads: one child process each
# --------------------------------------------------------------------- #


def run_many(names: list[str], args: argparse.Namespace) -> int:
    """Each workload runs in its own child, so ``peak_rss_mb`` is that
    workload's alone.  Children run one after another."""
    results = {}
    status = 0
    for name in names:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", args.out,
            "--scale-factor", str(args.scale_factor),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        if done.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    combined = {
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return status


# --------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------- #


def load_side(path: str) -> dict:
    """``(workload, metric) -> values`` and ``(workload, seed) ->
    checksum`` from one untraced result file, or from every one in a
    directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith("-trace0.json")
        )
    else:
        files = [path]
    values: dict = {}
    checksums: dict = {}
    for file in files:
        with open(file, encoding="utf-8") as handle:
            record = json.load(handle)
        workload = record["workload"]
        for metric, entry in record["result"]["metrics"].items():
            values.setdefault((workload, metric), []).append(entry["value"])
        checksums[(workload, record["envelope"]["seed"])] = record["checksum"]
    return {"values": values, "checksums": checksums}


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median, the driver's steadiness
    measure; needs a few runs."""
    if len(values) < 4:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Per workload and end-to-end metric: both medians, their spreads
    when a side holds several runs, and how much worse B is than A.
    Exit 1 where that exceeds the metric's bound, or where two runs of
    one seed disagree on an answer checksum."""
    side_a, side_b = load_side(path_a), load_side(path_b)
    status = 0
    print(f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'worse by':>9s} {'bound':>6s}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a["values"] or key not in side_b["values"]:
                continue
            a = statistics.median(side_a["values"][key])
            b = statistics.median(side_b["values"][key])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            over = worse > metric["bound"]
            status |= over
            spreads = [
                "-" if s is None else f"{s:.3f}"
                for s in (spread(side_a["values"][key]), spread(side_b["values"][key]))
            ]
            print(f"{workload:16s} {metric['name']:22s} {a:12.5g} {b:12.5g} "
                  f"{spreads[0]:>9s} {spreads[1]:>9s} {worse:+9.3f} "
                  f"{metric['bound']:6.2f}{'  REGRESSION' if over else ''}")
    for key in sorted(set(side_a["checksums"]) & set(side_b["checksums"])):
        if side_a["checksums"][key] != side_b["checksums"][key]:
            print(f"{key[0]} seed {key[1]}: answer checksums differ")
            status = 1
    return int(status)


def main() -> int:
    spec = load_spec()
    args = parse_arguments(spec)
    if args.compare:
        return compare(spec, *args.compare)
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    if len(names) == 1:
        return run_one(names[0], spec, args)
    return run_many(names, args)


if __name__ == "__main__":
    sys.exit(main())
