"""The five workloads.

Load model: a closed loop with one client in one process, no threads;
``workers=1``, ``shards=1``, ``shard_workers=1`` in every timed loop.
The program under test receives only XML text and query strings, never
the seed or the workload name.

Each workload has three parts:

``setup(seed)``
    Everything before the timed loop — corpus generation, building,
    saving and reopening the index, one warm-up pass.  ``run.py`` calls
    it several times and reports the median as ``setup_s``.
``loop(state, seconds, calibrator)``
    The timed closed loop.  Every operation is timed individually;
    ``op_p50_ms`` is the median of the workload's *operation* (named in
    the class docstring) and ``ops_per_s`` is everything the loop
    executed over the time it was busy.  Between operations the loop
    lets the calibrator time its kernel (``calibrate.py``).
``check(state)``
    The answer check (``oracle.py``), outside every timer.
"""

from __future__ import annotations

import gc
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from repro import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    PrimaryXMLStore,
    load_index,
    parse_xml,
    save_index,
)
from repro.storage import PAGE_SIZE
from repro.xmltree import parse_xml_file

import corpora
from calibrate import PROCESS_NOMINAL_S, Calibrator, time_process
from corpora import Corpus
from oracle import AnswerCheck, expected_answers, pointers

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: documents a churn round keeps alive before removing the oldest.
CHURN_WINDOW = 20
#: size of the Treebank-shaped document.  At 20,000 elements the root's
#: depth-6 pattern has 790-843 vertices depending on the seed, either
#: side of the index's 800-vertex cap: under it the build solves an
#: 800x800 eigenproblem (+20% peak RSS), over it it takes the fallback
#: range.  At 24,000 every seed is over the cap (901-949 vertices), as
#: the real Treebank is.
TREEBANK_ELEMENTS = 24000


#: ``(started, ended)`` of one timed call.
Timing = tuple[float, float]


@dataclass
class LoopResult:
    #: the samples ``op_p50_ms`` is taken over; a sample is the timed
    #: calls that make up one operation (usually one), each calibrated
    #: on its own and then summed.
    timed: list[list[Timing]]
    #: further calls that count into ``ops_per_s`` only.
    others: list[Timing]
    #: operations executed (a churn round's one sample is two mutations).
    operations: int
    #: operations that raised or disagreed with an earlier answer.
    failures: list[str] = field(default_factory=list)


def cache_quarter(corpus: Corpus, store: PrimaryXMLStore) -> tuple[int, int]:
    """``(cache_documents, page_cache_pages)`` a quarter of the corpus —
    the stated size of the workload larger than the program's caches."""
    pages = store.size_bytes() // PAGE_SIZE
    return max(1, len(corpus.sources) // 4), max(2, pages // 4)


def open_index(corpus: Corpus, directory: str | None = None):
    """Load ``corpus`` into a store and build its index the way the
    corpus asks: in memory, or saved into ``directory`` and reopened
    file-backed with quarter-size caches.  Returns ``(store, index)``."""
    if corpus.cache_documents is None:
        store = PrimaryXMLStore()
    else:
        store = PrimaryXMLStore(cache_documents=corpus.cache_documents)
    for source in corpus.sources:
        store.add_document(parse_xml(source))
    index = FixIndex.build(store, FixIndexConfig(depth_limit=corpus.depth_limit))
    if not corpus.file_backed:
        return store, index
    cache_documents, cache_pages = cache_quarter(corpus, store)
    save_index(index, directory)
    store.save(os.path.join(directory, "store"))
    store = PrimaryXMLStore.load(
        os.path.join(directory, "store"),
        cache_documents=cache_documents,
        page_cache_pages=cache_pages,
    )
    return store, load_index(directory, store, page_cache_pages=cache_pages)


def close_index(store, index) -> None:
    index.btree.pager.close()
    store.pager.close()


def documents_by_id(corpus: Corpus) -> dict:
    return dict(enumerate(corpus.documents))


class Workload:
    """Common plumbing; subclasses fill in the three parts."""

    name = ""

    def __init__(self, scale: float, scratch: str) -> None:
        self.scale = scale
        self.scratch = scratch
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def count(self, base: int, minimum: int = 1) -> int:
        return max(minimum, round(base * self.scale))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def calibrator(self) -> Calibrator:
        return Calibrator()

    def corpora_of(self, state) -> list[Corpus]:
        return [state.corpus]

    def close(self, state) -> None:
        pass


# --------------------------------------------------------------------- #
# Read-only query workloads
# --------------------------------------------------------------------- #


@dataclass
class QueryState:
    corpus: Corpus
    store: PrimaryXMLStore
    index: FixIndex
    processor: FixQueryProcessor
    #: answers of the warm-up pass, ``query -> result``.
    answers: dict


class QueryWorkload(Workload):
    """Operation: one ``FixQueryProcessor.query`` call (plan cached)."""

    def corpora(self, seed: int) -> list[Corpus]:
        raise NotImplementedError

    def setup(self, seed: int) -> QueryState:
        (corpus,) = self.corpora(seed)
        store, index = open_index(corpus, self.fresh_dir("index"))
        processor = FixQueryProcessor(index)
        answers = {query: processor.query(query) for query in corpus.queries}
        return QueryState(corpus, store, index, processor, answers)

    def loop(self, state: QueryState, seconds: float, calibrator) -> LoopResult:
        query = state.processor.query
        queries = state.corpus.queries
        counts = {text: state.answers[text].result_count for text in queries}
        timed: list[list[Timing]] = []
        failures: list[str] = []
        clock = time.perf_counter
        started = clock()
        while True:
            for text in queries:
                calibrator.tick()
                t0 = clock()
                try:
                    result = query(text)
                except Exception as error:  # the program failed: count it
                    failures.append(f"{text}: {error!r}")
                    continue
                timed.append([(t0, clock())])
                if result.result_count != counts[text]:
                    failures.append(f"{text}: answer changed between passes")
                state.answers[text] = result
            if clock() - started >= seconds:
                break
        calibrator.point()
        return LoopResult(timed, [], len(timed), failures)

    def check(self, state: QueryState) -> AnswerCheck:
        check = AnswerCheck()
        documents = documents_by_id(state.corpus)
        for text in sorted(state.answers):
            truth = expected_answers(text, documents, state.corpus.depth_limit)
            check.answer(text, pointers(state.answers[text].results), truth)
        return check

    def space(self, state: QueryState) -> tuple[int, int]:
        stored = state.index.size_bytes() + state.store.size_bytes()
        return stored, state.corpus.source_bytes

    def close(self, state: QueryState) -> None:
        close_index(state.store, state.index)


class CollectionScan(QueryWorkload):
    """XBench-TCMD-shaped collection, ``depth_limit=0``, saved and
    reopened file-backed with a document cache and a buffer pool each a
    quarter of the corpus."""

    name = "collection_scan"

    def corpora(self, seed: int) -> list[Corpus]:
        return [
            corpora.xbench_collection(
                seed, 0.5 * self.scale, self.count(40, 4), file_backed=True
            )
        ]


class LargedocProbe(QueryWorkload):
    """Treebank-shaped single deep recursive document, ``depth_limit=6``,
    in-memory store and index (the one document stays cached)."""

    name = "largedoc_probe"

    def corpora(self, seed: int) -> list[Corpus]:
        return [
            corpora.treebank_document(
                seed, self.count(TREEBANK_ELEMENTS, 400), self.count(40, 4)
            )
        ]


# --------------------------------------------------------------------- #
# Builds
# --------------------------------------------------------------------- #


@dataclass
class BuildState:
    corpora: list[Corpus]
    #: per corpus, the XML files on disk.
    files: list[list[str]]
    #: per corpus, the directory the last timed repeat saved into, and
    #: the directory holding them all.
    saved: list[str] = field(default_factory=list)
    target: str | None = None


def write_files(corpus: Corpus, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for number, source in enumerate(corpus.sources):
        path = os.path.join(directory, f"doc-{number:05d}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        paths.append(path)
    return paths


def saved_bytes(directory: str) -> int:
    """B-tree pages plus primary-store pages of a saved index (not
    ``meta.json``: it records timings, so its length varies)."""
    return os.path.getsize(os.path.join(directory, "btree.pages")) + os.path.getsize(
        os.path.join(directory, "store", "primary.pages")
    )


class BuildSuite(Workload):
    """Operation: one build of all four paper shapes from XML files on
    disk — per corpus a fresh store, ``parse_xml_file`` +
    ``add_document`` per file, ``FixIndex.build``, ``save_index``,
    ``store.save`` into a fresh directory.  No warm-up: builds are
    one-shot, users pay the cold cost."""

    name = "build_suite"

    def corpora(self, seed: int) -> list[Corpus]:
        few = self.count(6, 2)
        return [
            corpora.xbench_collection(seed, 0.5 * self.scale, few),
            corpora.stock_dataset("dblp", seed, 1.0 * self.scale, few),
            corpora.stock_dataset("xmark", seed, 1.0 * self.scale, few),
            corpora.treebank_document(seed, self.count(TREEBANK_ELEMENTS, 400), few),
        ]

    def setup(self, seed: int) -> BuildState:
        generated = self.corpora(seed)
        root = self.fresh_dir("xml")
        files = [
            write_files(corpus, os.path.join(root, corpus.dataset))
            for corpus in generated
        ]
        return BuildState(generated, files)

    def build_one(self, corpus: Corpus, files: list[str], out: str) -> None:
        store = PrimaryXMLStore()
        for path in files:
            store.add_document(parse_xml_file(path))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=corpus.depth_limit))
        save_index(index, out)
        store.save(os.path.join(out, "store"))

    def loop(self, state: BuildState, seconds: float, calibrator) -> LoopResult:
        """The host can change speed inside a 2-second suite build, so a
        sample is four timed calls, one per corpus, with a calibration
        point between them."""
        timed: list[list[Timing]] = []
        failures: list[str] = []
        clock = time.perf_counter
        started = clock()
        while clock() - started < seconds and not failures:
            target = self.fresh_dir("build")
            saved = [os.path.join(target, c.dataset) for c in state.corpora]
            parts: list[Timing] = []
            for corpus, files, out in zip(state.corpora, state.files, saved):
                calibrator.point()
                t0 = clock()
                try:
                    self.build_one(corpus, files, out)
                except Exception as error:
                    failures.append(f"build {corpus.dataset}: {error!r}")
                parts.append((t0, clock()))
            calibrator.point()
            timed.append(parts)
            # Untimed: drop the previous repeat's files and garbage, so
            # every repeat starts from the same disk and heap.
            if state.target is not None:
                shutil.rmtree(state.target)
            state.saved, state.target = saved, target
            gc.collect()
        return LoopResult(timed, [], len(timed), failures)

    def check(self, state: BuildState) -> AnswerCheck:
        check = AnswerCheck()
        for corpus, directory in zip(state.corpora, state.saved):
            store = PrimaryXMLStore.load(os.path.join(directory, "store"))
            index = load_index(directory, store)
            processor = FixQueryProcessor(index)
            documents = documents_by_id(corpus)
            check.operation(
                index.entry_count > 0, f"{corpus.dataset}: saved index is empty"
            )
            for text in sorted(corpus.queries):
                truth = expected_answers(text, documents, corpus.depth_limit)
                check.answer(text, pointers(processor.query(text).results), truth)
            close_index(store, index)
        return check

    def corpora_of(self, state: BuildState) -> list[Corpus]:
        return state.corpora

    def space(self, state: BuildState) -> tuple[int, int]:
        stored = sum(saved_bytes(directory) for directory in state.saved)
        return stored, sum(corpus.source_bytes for corpus in state.corpora)


# --------------------------------------------------------------------- #
# Writes beside reads
# --------------------------------------------------------------------- #


@dataclass
class ChurnState:
    corpus: Corpus
    store: PrimaryXMLStore
    index: FixIndex
    processor: FixQueryProcessor
    #: XML text of every live document, by id (for the final rebuild).
    live: dict
    window: deque
    rounds: int = 0
    next_query: int = 0
    #: ``(stored bytes, bytes of every document ever added)`` at the end
    #: of set-up.
    space: tuple[int, int] = (0, 0)


class ChurnMix(Workload):
    """Operation: one round's mutations — ``add_document`` of a parsed
    pool document plus ``remove_document`` of the one added
    ``CHURN_WINDOW`` rounds earlier, timed separately and summed (adds
    cost about twice a removal, so a median over both kinds pooled would
    sit between two modes).  Each round also runs two queries; they
    count into ``ops_per_s`` but not into ``op_p50_ms``.  In-memory
    XBench-shaped collection whose documents all stay in the
    parsed-document cache."""

    name = "churn_mix"

    def corpora(self, seed: int) -> list[Corpus]:
        return [
            corpora.xbench_collection(
                seed,
                0.4 * self.scale,
                self.count(40, 4),
                cache_all=True,
                pool_scale=max(0.1, 0.46 * self.scale),
            )
        ]

    def setup(self, seed: int) -> ChurnState:
        (corpus,) = self.corpora(seed)
        store, index = open_index(corpus)
        processor = FixQueryProcessor(index)
        for text in corpus.queries:
            processor.query(text)
        state = ChurnState(
            corpus, store, index, processor, dict(enumerate(corpus.sources)), deque()
        )
        # Fill the window, so the timed loop starts in the steady state
        # where every round both adds and removes.
        warm_up = CHURN_WINDOW + 5
        self.rounds(state, warm_up, [])
        # Space is taken here, after a fixed number of rounds: the timed
        # loop runs as many as fit, and the append-only store keeps what
        # removed documents occupied.
        added = sum(
            len(corpus.pool_sources[k % len(corpus.pool_sources)].encode("utf-8"))
            for k in range(warm_up)
        )
        state.space = (
            index.size_bytes() + store.size_bytes(),
            corpus.source_bytes + added,
        )
        return state

    def rounds(self, state, limit, failures, seconds=None, calibrator=None):
        """Run churn rounds until ``limit`` rounds or ``seconds`` passed.
        Returns the rounds' mutation timings (add, remove) and query
        timings."""
        clock = time.perf_counter
        started = clock()
        index, processor = state.index, state.processor
        pool, texts = state.corpus.pool_sources, state.corpus.queries
        mutations: list[list[Timing]] = []
        queries: list[Timing] = []
        while len(mutations) < limit and (
            seconds is None or clock() - started < seconds
        ):
            if calibrator is not None:
                calibrator.tick()
            source = pool[state.rounds % len(pool)]
            state.rounds += 1
            try:
                t0 = clock()
                doc_id = index.add_document(parse_xml(source))
                parts = [(t0, clock())]
                state.live[doc_id] = source
                state.window.append(doc_id)
                for _ in range(2):
                    text = texts[state.next_query % len(texts)]
                    state.next_query += 1
                    t0 = clock()
                    result = processor.query(text)
                    queries.append((t0, clock()))
                    if any(p.doc_id not in state.live for p in result.results):
                        failures.append(f"{text}: pointer into a removed document")
                if len(state.window) > CHURN_WINDOW:
                    victim = state.window.popleft()
                    t0 = clock()
                    index.remove_document(victim)
                    parts.append((t0, clock()))
                    del state.live[victim]
                mutations.append(parts)
            except Exception as error:
                failures.append(f"round {state.rounds}: {error!r}")
                break
        return mutations, queries

    def loop(self, state: ChurnState, seconds: float, calibrator) -> LoopResult:
        failures: list[str] = []
        mutations, queries = self.rounds(
            state, float("inf"), failures, seconds, calibrator
        )
        calibrator.point()
        # Per round: an add, two queries, a removal.
        return LoopResult(mutations, queries, 4 * len(mutations), failures)

    def check(self, state: ChurnState) -> AnswerCheck:
        """Every query's answer on the churned index must equal the
        oracle's over the surviving documents *and* the answer of a
        fresh build over them.  The loop is first topped up to a whole
        lap of the pool and document ids are replaced by their rank, so
        the checked state — and the checksum — does not depend on how
        many rounds fitted into the timed loop."""
        check = AnswerCheck()
        failures: list[str] = []
        lap = len(state.corpus.pool_sources)
        self.rounds(state, -state.rounds % lap, failures)
        for failure in failures:
            check.fail(failure)
        live_ids = sorted(state.live)
        rank = {doc_id: number for number, doc_id in enumerate(live_ids)}
        documents = {}
        fresh_store = PrimaryXMLStore(cache_documents=len(live_ids))
        for doc_id in live_ids:
            documents[rank[doc_id]] = parse_xml(state.live[doc_id])
            fresh_store.add_document(parse_xml(state.live[doc_id]))
        fresh = FixQueryProcessor(
            FixIndex.build(fresh_store, FixIndexConfig(depth_limit=0))
        )
        for text in sorted(state.corpus.queries):
            returned = [
                (rank[doc_id], node_id)
                for doc_id, node_id in pointers(state.processor.query(text).results)
            ]
            check.answer(text, returned, expected_answers(text, documents, 0))
            check.operation(
                returned == pointers(fresh.query(text).results),
                f"{text}: differs from a fresh rebuild",
            )
        return check

    def space(self, state: ChurnState) -> tuple[int, int]:
        return state.space


# --------------------------------------------------------------------- #
# The cold CLI
# --------------------------------------------------------------------- #


@dataclass
class CliState:
    corpus: Corpus
    index_dir: str
    #: ``(query, stdout)`` of every query invocation, ``stats`` stdouts.
    query_outputs: list = field(default_factory=list)
    stats_outputs: list = field(default_factory=list)


def run_cli(*arguments: str) -> subprocess.CompletedProcess:
    """One fresh ``python -m repro`` process, waited for."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class CliCold(Workload):
    """Operation: one ``python -m repro query DIR Q`` in a fresh process
    (interpreter start, ``import repro``, index and store load, first
    document fetch with empty caches).  Every fourth invocation is
    ``repro stats DIR`` instead; it counts into ``ops_per_s`` only.
    ``repro build`` runs in set-up."""

    name = "cli_cold"

    def corpora(self, seed: int) -> list[Corpus]:
        # Three random queries beside the three paper queries: the batch
        # is the same six for every seed, only the order changes.
        return [corpora.xbench_collection(seed, 0.5 * self.scale, 3)]

    def setup(self, seed: int) -> CliState:
        (corpus,) = self.corpora(seed)
        root = self.fresh_dir("cli")
        files = write_files(corpus, os.path.join(root, "xml"))
        index_dir = os.path.join(root, "index")
        done = run_cli("build", "--xml", *files, "--depth-limit", "0", "--out", index_dir)
        if done.returncode != 0:
            raise RuntimeError(f"repro build failed: {done.stderr.strip()}")
        return CliState(corpus, index_dir)

    def loop(self, state: CliState, seconds: float, calibrator) -> LoopResult:
        timed: list[list[Timing]] = []
        others: list[Timing] = []
        failures: list[str] = []
        queries = state.corpus.queries
        clock = time.perf_counter
        started = clock()
        while clock() - started < seconds:
            calibrator.point()
            t0 = clock()
            if (len(timed) + len(others)) % 4 == 3:
                done = run_cli("stats", state.index_dir)
                others.append((t0, clock()))
                state.stats_outputs.append(done.stdout)
            else:
                text = queries[len(timed) % len(queries)]
                done = run_cli("query", state.index_dir, text)
                timed.append([(t0, clock())])
                state.query_outputs.append((text, done.stdout))
            if done.returncode != 0:
                failures.append(f"exit {done.returncode}: {done.stderr.strip()[:200]}")
        calibrator.point()
        return LoopResult(timed, others, len(timed) + len(others), failures)

    def check(self, state: CliState) -> AnswerCheck:
        """The printed ``candidates=``/``results=`` must equal the
        in-process answer, which in turn is checked against the oracle."""
        check = AnswerCheck()
        store, index = open_index(state.corpus)
        processor = FixQueryProcessor(index)
        documents = documents_by_id(state.corpus)
        in_process = {}
        for text in sorted(state.corpus.queries):
            result = processor.query(text)
            in_process[text] = (result.candidate_count, result.result_count)
            check.answer(
                text, pointers(result.results), expected_answers(text, documents, 0)
            )
        for text, stdout in state.query_outputs:
            found = re.search(r"candidates=(\d+) results=(\d+)", stdout)
            printed = (int(found[1]), int(found[2])) if found else None
            check.operation(
                printed == in_process[text],
                f"{text}: CLI printed {printed}, in-process {in_process[text]}",
            )
        for stdout in state.stats_outputs:
            found = re.search(r"entries:\s+(\d+)", stdout)
            check.operation(
                found is not None and int(found[1]) == index.entry_count,
                "repro stats: wrong entry count",
            )
        return check

    def space(self, state: CliState) -> tuple[int, int]:
        return saved_bytes(state.index_dir), state.corpus.source_bytes

    def calibrator(self) -> Calibrator:
        """Fresh processes are calibrated against a fresh process."""
        return Calibrator(time_process, PROCESS_NOMINAL_S)

    def peak_rss_mb(self) -> float:
        """The largest child: what one CLI invocation needs."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    workload.name: workload
    for workload in (CollectionScan, LargedocProbe, BuildSuite, ChurnMix, CliCold)
}
