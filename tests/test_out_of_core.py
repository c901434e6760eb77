"""The out-of-core claim (DESIGN.md §11), at a size where it is decisive.

A sharded index with spilled (file-backed) stores, a bounded buffer pool
and bounded B-tree node tables builds and queries a corpus in a fraction
of the memory the monolithic in-memory :class:`FixIndex` needs — with
identical answers.  At ~1M elements the in-memory build peaks near twice
the spilled one; at the ~0.2M elements a quick check can afford the two
are within 10% of each other and a ceiling proves nothing, which is why
this is one ``slow`` test rather than a tier-1 one::

    PYTHONPATH=src python -m pytest -m slow tests/test_out_of_core.py

Each case runs in its own subprocess so ``ru_maxrss`` (a lifetime peak)
measures that case alone; this file doubles as the child's script.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys

ROOTS = ["book", "article", "journal", "report"]
SECTION = "<sec><a/><b/><c/><p>%s</p></sec>"
PAYLOAD = "x" * 180  # text bulk: raises bytes/doc without adding elements
MIN_SECTIONS, MAX_SECTIONS = 28, 36

DOCS = 6_200  # ~1.0M elements
SHARDS = 8
PAGE_CACHE_PAGES = 64
BTREE_NODE_CACHE = 64
#: spilled peak RSS must stay under this share of the in-memory peak.
RSS_SHARE = 0.6

QUERIES = [
    "/book/sec/a",
    "/article/sec/b",
    "/journal/sec/c",
    "/report/sec/p",
    "/book//year",
    "//meta",
]


def sections_for(doc_id: int) -> int:
    return MIN_SECTIONS + doc_id % (MAX_SECTIONS - MIN_SECTIONS + 1)


def make_source(doc_id: int) -> str:
    root = ROOTS[doc_id % len(ROOTS)]
    body = SECTION % PAYLOAD * sections_for(doc_id)
    return f"<{root}><meta><year>19{doc_id % 90 + 10}</year></meta>{body}</{root}>"


def corpus(doc_count: int):
    return (make_source(doc_id) for doc_id in range(doc_count))


def run_case(case: str, doc_count: int, workdir: str) -> dict:
    """Build (in memory, or as spilled shards), answer ``QUERIES``, and
    report the process's peak RSS with per-query answer checksums."""
    from repro.core import (
        FixIndex,
        FixIndexConfig,
        FixQueryProcessor,
        ShardedFixIndex,
    )
    from repro.storage import PrimaryXMLStore

    if case == "in-memory":
        store = PrimaryXMLStore()
        for source in corpus(doc_count):
            store.add_source(source)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
    else:
        config = FixIndexConfig(
            depth_limit=0,
            shards=SHARDS,
            shard_affinity="root-label",
            spill_dir=os.path.join(workdir, "spill"),
            page_cache_pages=PAGE_CACHE_PAGES,
            btree_node_cache=BTREE_NODE_CACHE,
        )
        index = ShardedFixIndex.build_from_sources(corpus(doc_count), config)
    processor = FixQueryProcessor(index)
    answers = {}
    for query in QUERIES:
        digest = hashlib.blake2b(digest_size=16)
        results = processor.query(query).results
        for pointer in results:
            digest.update(b"%d:%d;" % (pointer.doc_id, pointer.node_id))
        answers[query] = [len(results), digest.hexdigest()]
    return {
        "entries": index.entry_count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "answers": answers,
    }


if __name__ == "__main__":  # the measured child: keep pytest out of its RSS
    json.dump(run_case(sys.argv[1], int(sys.argv[2]), sys.argv[3]), sys.stdout)
    sys.exit(0)

import pytest  # noqa: E402


def spawn(case: str, doc_count: int, workdir: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), case, str(doc_count), workdir],
        env=dict(os.environ),
        stdout=subprocess.PIPE,
        check=True,
        timeout=1800,
    )
    return json.loads(completed.stdout)


@pytest.mark.slow
def test_spilled_shards_need_a_fraction_of_the_in_memory_rss(tmp_path):
    in_memory = spawn("in-memory", DOCS, os.fspath(tmp_path))
    spilled = spawn("spilled", DOCS, os.fspath(tmp_path))
    assert spilled["entries"] == in_memory["entries"] == DOCS
    assert spilled["answers"] == in_memory["answers"]
    assert all(count for count, _ in in_memory["answers"].values())
    assert spilled["peak_rss_mb"] <= RSS_SHARE * in_memory["peak_rss_mb"], (
        spilled["peak_rss_mb"],
        in_memory["peak_rss_mb"],
    )
