"""Byte-identity check: one md5 per ``btree.pages`` of fixed corpora.

A refactor that must not change the index runs this on both commits and
diffs the output::

    PYTHONPATH=src python benchmarks/pages_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python benchmarks/pages_digest.py > before.txt

Corpora are the four paper shapes from :mod:`repro.datasets` at seed 42,
each built structurally and with ``value_buckets=8``, as a single index
and as 4 shards.  ``--scale`` shrinks the corpora; digests of different
scales are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import tempfile

from repro.core import FixIndex, FixIndexConfig
from repro.core.persistence import save_index
from repro.core.sharding import ShardedFixIndex
from repro.datasets import dataset_names, load_dataset

SEED = 42
VALUE_BUCKETS = (None, 8)
SHARDS = (1, 4)


def saved_pages(store, config: FixIndexConfig, out: str):
    """Build and save under ``out``; yield ``(relative path, md5)`` of
    every ``btree.pages`` written."""
    if config.shards == 1:
        save_index(FixIndex.build(store, config), out)
    else:
        ShardedFixIndex.build(store, config).save(out)
    for directory, _, files in sorted(os.walk(out)):
        if "btree.pages" in files:
            path = os.path.join(directory, "btree.pages")
            with open(path, "rb") as handle:
                yield os.path.relpath(path, out), hashlib.md5(handle.read()).hexdigest()


def pages_digests(scale: float) -> list[str]:
    """One ``corpus buckets shards file md5`` line per ``btree.pages``."""
    lines = []
    for name in dataset_names():
        bundle = load_dataset(name, scale=scale, seed=SEED)
        store = bundle.store()
        for buckets, shards in itertools.product(VALUE_BUCKETS, SHARDS):
            config = FixIndexConfig(
                depth_limit=bundle.depth_limit, value_buckets=buckets, shards=shards
            )
            with tempfile.TemporaryDirectory() as out:
                lines += [
                    f"{name} buckets={buckets} shards={shards} {path} {md5}"
                    for path, md5 in saved_pages(store, config, out)
                ]
    return lines


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args(argv)
    print("\n".join(pages_digests(args.scale)))


if __name__ == "__main__":
    main()
