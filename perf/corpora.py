"""Seeded inputs: corpora shaped like the paper's data sets, and their
query batches.

Every seed must give a *different but equivalent* input, or the spread
between seeds drowns any change to the program.  Two properties of the
stock generators break that, so the corpora are shaped here:

* FIX assigns edge-label weights in first-seen order, and pruning power
  depends on the weights: two seeds of the Treebank generator differ by
  up to 4x in candidates for the same query.  Every corpus therefore
  starts with a fixed **preamble** (the same generator at a small scale
  and a constant seed), which pins the weight assignment; everything
  after the preamble comes from the run's seed.
* The Treebank generator is a branching process whose element count
  varies by +-10% between seeds.  The large document is cut to an exact
  element budget, sentence by sentence.

The random queries are drawn from the preamble's documents with a
constant seed, so each seed runs the same query *population* (every path
occurs in every corpus at least once) against different data; the run's
seed only shuffles the order.  The paper's own queries for the data set
are always included.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.bench.paper_queries import FIGURE6_QUERIES, TABLE2_QUERIES
from repro.datasets import RandomQueryGenerator, load_dataset
from repro.xmltree import Document, Element, parse_xml, serialize_fragment

PREAMBLE_SEED = 7
QUERY_SEED = 8
XBENCH_PREAMBLE_SCALE = 0.04  # 10 documents
TREEBANK_PREAMBLE_SCALE = 0.03  # 33 sentences
TREEBANK_CHUNK_SCALE = 0.2


@dataclass
class Corpus:
    """One data set as the program will see it, plus what the harness
    keeps for itself to check answers."""

    dataset: str
    depth_limit: int
    #: XML text of each document — the program's input.
    sources: list[str]
    #: harness-side trees of the same documents (element ids equal those
    #: of a parse of ``sources``); only the oracle reads them.
    documents: list[Document]
    queries: list[str]
    #: generated queries dropped as duplicates or deeper than the index.
    queries_dropped: int
    #: reopen the saved index file-backed with caches a quarter of the
    #: corpus (the workload larger than the program's caches).
    file_backed: bool = False
    #: parsed-document cache of the in-memory store; ``None`` keeps the
    #: program's default.
    cache_documents: int | None = None
    #: further documents for mutation workloads and probes.
    pool_sources: list[str] = field(default_factory=list)

    @property
    def source_bytes(self) -> int:
        return sum(len(source.encode("utf-8")) for source in self.sources)

    def descriptor(self) -> dict:
        return {
            "dataset": self.dataset,
            "documents": len(self.sources),
            "elements": sum(d.element_count() for d in self.documents),
            "bytes": self.source_bytes,
            "depth_limit": self.depth_limit,
            "file_backed": self.file_backed,
            "cache_documents": self.cache_documents,
            "queries_kept": len(self.queries),
            "queries_dropped": self.queries_dropped,
            "pool_documents": len(self.pool_sources),
        }


def query_batch(
    dataset: str,
    sample_from: list[Document],
    n_random: int,
    depth_limit: int,
    generator_seed: int,
    order_seed: int,
) -> tuple[list[str], int]:
    """The data set's paper queries plus ``n_random`` distinct random
    twigs, shuffled by ``order_seed``.  Returns ``(queries, dropped)``."""
    queries: list[str] = []
    for name, _, text in TABLE2_QUERIES + FIGURE6_QUERIES:
        if name == dataset and text not in queries:
            queries.append(text)
    wanted = len(queries) + n_random
    generator = RandomQueryGenerator(sample_from, seed=generator_seed)
    dropped = 0
    while len(queries) < wanted and dropped < 50 * max(1, n_random):
        generated = generator.generate()
        too_deep = depth_limit > 0 and generated.twig.depth() > depth_limit
        if too_deep or generated.text in queries:
            dropped += 1
        else:
            queries.append(generated.text)
    random.Random(order_seed).shuffle(queries)
    return queries, dropped


def xbench_collection(
    seed: int,
    scale: float,
    n_random: int,
    *,
    file_backed: bool = False,
    cache_all: bool = False,
    pool_scale: float = XBENCH_PREAMBLE_SCALE,
) -> Corpus:
    """XBench-TCMD-shaped collection: the fixed preamble documents, then
    ``260 * scale`` documents from ``seed``."""
    preamble = load_dataset("xbench", XBENCH_PREAMBLE_SCALE, PREAMBLE_SEED)
    body = load_dataset("xbench", scale, seed)
    documents = preamble.documents + body.documents
    queries, dropped = query_batch(
        "xbench", preamble.documents, n_random, 0, QUERY_SEED, seed
    )
    pool = _serialized(load_dataset("xbench", pool_scale, seed + 2).documents)
    return Corpus(
        dataset="xbench",
        depth_limit=0,
        sources=_serialized(documents),
        documents=documents,
        queries=queries,
        queries_dropped=dropped,
        file_backed=file_backed,
        cache_documents=len(documents) + len(pool) if cache_all else None,
        pool_sources=pool,
    )


def treebank_document(seed: int, elements: int, n_random: int) -> Corpus:
    """Treebank-shaped single deep document of ``elements`` elements
    (+-3): the preamble's sentences, then sentences from ``seed``."""
    preamble = load_dataset("treebank", TREEBANK_PREAMBLE_SCALE, PREAMBLE_SEED)
    parts: list[str] = []
    count = 1  # the FILE root
    misfits = 0
    for sentence in _treebank_sentences(preamble.documents[0], seed):
        size = sentence.size()
        if count + size > elements:
            misfits += 1
            if elements - count < 4 or misfits > 200:
                break
            continue
        parts.append(serialize_fragment(sentence))
        count += size
    source = "<FILE>" + "".join(parts) + "</FILE>"
    queries, dropped = query_batch(
        "treebank", preamble.documents, n_random, 6, QUERY_SEED, seed
    )
    pool = _serialized(
        load_dataset("treebank", 0.01, seed + 2 + k).documents[0] for k in range(3)
    )
    return Corpus(
        dataset="treebank",
        depth_limit=6,
        sources=[source],
        documents=[parse_xml(source)],
        queries=queries,
        queries_dropped=dropped,
        pool_sources=pool,
    )


def stock_dataset(name: str, seed: int, scale: float, n_random: int) -> Corpus:
    """A single-document data set straight from its generator (DBLP,
    XMark: sizes vary little between seeds, and only builds are timed on
    them, which the edge-label weights do not affect)."""
    bundle = load_dataset(name, scale, seed)
    queries, dropped = query_batch(
        name, bundle.documents, n_random, bundle.depth_limit, seed + 1, seed
    )
    pool = _serialized(
        load_dataset(name, 0.02, seed + 2 + k).documents[0] for k in range(3)
    )
    return Corpus(
        dataset=name,
        depth_limit=bundle.depth_limit,
        sources=_serialized(bundle.documents),
        documents=bundle.documents,
        queries=queries,
        queries_dropped=dropped,
        pool_sources=pool,
    )


def _treebank_sentences(preamble: Document, seed: int) -> Iterator[Element]:
    yield from preamble.root.child_elements()
    chunk = 0
    while True:
        bundle = load_dataset("treebank", TREEBANK_CHUNK_SCALE, seed + 7919 * chunk)
        yield from bundle.documents[0].root.child_elements()
        chunk += 1


def _serialized(documents) -> list[str]:
    return [serialize_fragment(document.root) for document in documents]
