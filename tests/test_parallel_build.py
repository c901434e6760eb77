"""Tests for the parallel build pipeline (DESIGN.md §8).

The contract under test: ``workers > 1`` yields **byte-identical**
B-tree contents to the serial build — same keys, same values, same
duplicate-key order — for any worker count and configuration.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import FeatureError
from repro.core import FixIndex, FixIndexConfig, ShardedFixIndex
from repro.core.parallel import parallel_stage
from repro.core.construction import GeneratorSettings, seed_encoder
from repro.datasets import load_dataset
from repro.spectral import EdgeLabelEncoder
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import parse_xml

#: the generator settings of ``FixIndexConfig(depth_limit=4)``.
SETTINGS = GeneratorSettings.from_config(FixIndexConfig(depth_limit=4))

DOCS = [
    "<bib><article><author><email/></author><title/></article></bib>",
    "<bib><article><author><phone/></author><title/></article></bib>",
    "<bib><book><author><affiliation/></author><title/></book></bib>",
    "<site><regions><item><name/><mailbox><mail/></mailbox></item>"
    "<item><name/></item></regions></site>",
    "<bib><www><title/></www></bib>",
]


def multi_doc_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for source in DOCS:
        store.add_document(parse_xml(source))
    return store


def items_of(index: FixIndex) -> list[tuple[bytes, bytes]]:
    """Every (key bytes, value bytes) pair in B-tree order."""
    return [(bytes(key), bytes(value)) for key, value in index.btree.items()]


class TestByteIdenticalToSerial:
    def test_workers_2_identical_items(self):
        store = multi_doc_store()
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        parallel = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, workers=2)
        )
        assert items_of(serial) == items_of(parallel)

    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_any_worker_count(self, workers):
        store = multi_doc_store()
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        parallel = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, workers=workers)
        )
        assert items_of(serial) == items_of(parallel)

    def test_identical_without_cache(self):
        """A generator with no DAG to remember a class in computes
        every document from scratch — and stages, entry for entry and
        in order, what the memoised serial and fanned-out builds load."""
        store = multi_doc_store()
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        parallel = FixIndex.build(store, FixIndexConfig(depth_limit=4, workers=3))
        forgetful = SETTINGS.generator(EdgeLabelEncoder())
        pairs = [
            (key, NodePointer(doc_id, node_id).pack())
            for key, doc_id, node_id in forgetful.stage(
                store.doc_ids(), store.get_document
            )
        ]
        pairs.sort(key=lambda pair: pair[0])  # stable, as the loader's
        assert pairs == items_of(serial) == items_of(parallel)
        assert forgetful.encoder.to_dict() == serial.encoder.to_dict()
        # The memo was exercised, not merely harmless.
        assert forgetful.stats.cache_hits < serial.report.stats.cache_hits
        assert (
            forgetful.stats.eigen_computations
            > serial.report.stats.eigen_computations
        )

    def test_identical_with_values(self):
        store = multi_doc_store()
        config = dict(depth_limit=4, value_buckets=8)
        serial = FixIndex.build(store, FixIndexConfig(**config))
        parallel = FixIndex.build(
            store, FixIndexConfig(workers=2, **config)
        )
        assert items_of(serial) == items_of(parallel)

    def test_identical_clustered(self):
        store = multi_doc_store()
        serial = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=True)
        )
        parallel = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=True, workers=2)
        )
        assert items_of(serial) == items_of(parallel)

    def test_identical_on_dblp_like_corpus(self):
        store = PrimaryXMLStore()
        for offset in range(4):
            for document in load_dataset(
                "dblp", scale=0.01, seed=30 + offset
            ).documents:
                store.add_document(document)
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=6))
        parallel = FixIndex.build(
            store, FixIndexConfig(depth_limit=6, workers=2)
        )
        assert items_of(serial) == items_of(parallel)

    @pytest.mark.parametrize(
        "options",
        [
            pytest.param(dict(workers=1), id="workers1"),
            pytest.param(dict(workers=3), id="workers3"),
            pytest.param(dict(shards=3), id="shards3"),
            pytest.param(
                dict(shards=3, shard_workers=2), id="shards3-shard_workers2"
            ),
            pytest.param(dict(shards=3, spill=True), id="shards3-spill"),
        ],
    )
    def test_stats_and_entry_counts_match(self, options, tmp_path):
        """Every build fan-out runs the one staging loop: same entries,
        same encoder, same per-document stats as the serial plain build
        (cache-hit and eigensolve counts depend on which worker saw a
        pattern first and are not compared)."""
        options = dict(options)
        if options.pop("spill", False):
            options["spill_dir"] = os.fspath(tmp_path / "spill")
        store = multi_doc_store()
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        config = FixIndexConfig(depth_limit=4, **options)
        if config.shards > 1:
            built = ShardedFixIndex.build(store, config)
            parts = built.shards
        else:
            built = FixIndex.build(store, config)
            parts = [built]
        assert sorted(
            pair for part in parts for pair in items_of(part)
        ) == sorted(items_of(serial))
        assert built.entry_count == serial.entry_count
        assert built.encoder.to_dict() == serial.encoder.to_dict()
        stats = [part.report.stats for part in parts]
        expected = serial.report.stats
        assert sum(s.entries for s in stats) == expected.entries
        assert sum(s.documents for s in stats) == expected.documents
        assert sum(s.bisim_vertices for s in stats) == expected.bisim_vertices
        # Shards hold the documents in routing order, not doc-id order.
        assert sorted(
            v for s in stats for v in s.per_document_vertices
        ) == sorted(expected.per_document_vertices)
        if config.shards == 1:
            assert (
                stats[0].per_document_vertices
                == expected.per_document_vertices
            )
        # A removal reads off the DAG exactly what the add staged — as
        # a set: slots are in node-id order, generation is in close
        # order, and every (key, pointer) pair is distinct.
        owner = built.shard_for_document(2) if config.shards > 1 else built
        document = owner.store.get_document(2)
        removal = owner.stage_removal(2)
        add = owner.stage_document(2, document)
        assert len(removal.entries) == len(add.entries) == len(set(add.entries))
        assert set(removal.entries) == set(add.entries)
        assert removal.labels == add.labels


class TestParallelStage:
    def test_single_document_runs_inline(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml(DOCS[0]))
        encoder = EdgeLabelEncoder()
        seed_encoder(encoder, store.get_document(0))
        staged = parallel_stage(store, encoder, SETTINGS, workers=4)
        assert staged.entries
        assert all(doc_id == 0 for _, doc_id, _ in staged.entries)

    def test_entries_in_doc_id_order(self):
        store = multi_doc_store()
        encoder = EdgeLabelEncoder()
        for doc_id in store.doc_ids():
            seed_encoder(encoder, store.get_document(doc_id))
        staged = parallel_stage(store, encoder, SETTINGS, workers=2)
        doc_sequence = [doc_id for _, doc_id, _ in staged.entries]
        assert doc_sequence == sorted(doc_sequence)

    def test_worker_encoders_merge_back(self):
        store = multi_doc_store()
        encoder = EdgeLabelEncoder()
        for doc_id in store.doc_ids():
            seed_encoder(encoder, store.get_document(doc_id))
        size_before = len(encoder)
        parallel_stage(store, encoder, SETTINGS, workers=3)
        # Complete pre-seeding makes the merge a no-op.
        assert len(encoder) == size_before


def reference_seed(encoder, element, text_label=None):
    """Plain recursive preorder seeding: a node's text edges, then each
    element child's edge followed by that child's subtree."""
    if text_label is not None:
        for text in element.text_children():
            encoder.encode(element.tag, text_label(text.value))
    for child in element.child_elements():
        encoder.encode(element.tag, child.tag)
        reference_seed(encoder, child, text_label)


class TestSeedEncoder:
    def test_text_edges_come_before_element_children_edges(self):
        encoder = EdgeLabelEncoder()
        document = parse_xml("<a>x<b>y<c/></b>z<d/></a>")
        seed_encoder(encoder, document, text_label=lambda value: f"#{value}")
        assert sorted(encoder._codes, key=encoder._codes.get) == [
            ("a", "#x"), ("a", "#z"), ("a", "b"), ("b", "#y"), ("b", "c"), ("a", "d"),
        ]

    @pytest.mark.parametrize("text_label", [None, str.lower], ids=["plain", "values"])
    @pytest.mark.parametrize("dataset", ["xbench", "dblp", "xmark", "treebank"])
    def test_matches_recursive_preorder_reference(self, dataset, text_label):
        seeded, reference = EdgeLabelEncoder(), EdgeLabelEncoder()
        for document in load_dataset(dataset, scale=0.05, seed=3).documents:
            seed_encoder(seeded, document, text_label=text_label)
            reference_seed(reference, document.root, text_label)
        assert len(seeded) > 0
        assert seeded.to_dict() == reference.to_dict()


class TestEncoderMerge:
    def test_merge_appends_unknown_pairs_in_code_order(self):
        ours = EdgeLabelEncoder()
        ours.encode("a", "b")
        theirs = EdgeLabelEncoder.from_dict(ours.to_dict())
        theirs.encode("a", "c")
        theirs.encode("b", "d")
        added = ours.merge(theirs)
        assert added == 2
        assert ours.to_dict() == theirs.to_dict()

    def test_merge_rejects_conflicting_codes(self):
        ours = EdgeLabelEncoder()
        ours.encode("a", "b")  # code 1
        theirs = EdgeLabelEncoder()
        theirs.encode("a", "c")  # code 1 for a different pair
        theirs.encode("a", "b")  # code 2 — conflicts with ours
        with pytest.raises(FeatureError):
            ours.merge(theirs)

    def test_merge_rejects_code_gaps(self):
        ours = EdgeLabelEncoder()
        theirs = EdgeLabelEncoder()
        theirs.encode("a", "b")  # code 1
        theirs.encode("a", "c")  # code 2
        # Drop the first pair: the second now has an unjoinable code.
        gapped = {
            pair: code
            for pair, code in theirs.to_dict().items()
            if code != 1
        }
        with pytest.raises(FeatureError):
            ours.merge(EdgeLabelEncoder.from_dict(gapped))

    def test_snapshot_is_independent(self):
        encoder = EdgeLabelEncoder()
        encoder.encode("a", "b")
        snapshot = encoder.snapshot()
        snapshot.encode("a", "c")
        assert len(encoder) == 1
        assert len(snapshot) == 2
