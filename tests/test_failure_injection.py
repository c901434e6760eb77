"""Failure-injection tests: corrupted pages, truncated files, and other
storage-level damage must surface as typed errors, never as silent wrong
answers or uncaught low-level exceptions."""

from __future__ import annotations

import json
import os
import struct

import pytest

import repro.core.construction as construction
from repro.errors import (
    BTreeError,
    PageError,
    RecordError,
    ShardError,
    StorageError,
    XMLSyntaxError,
)
from repro.btree import BPlusTree, encode_feature_key
from repro.btree.keys import decode_feature_key
from repro.btree.node import LeafNode, deserialize_node
from repro.cli import main as cli_main
from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    ShardedFixIndex,
    load_index,
    save_index,
)
from repro.core.construction import GeneratorSettings, seed_encoder
from repro.core.structure import StructureDag
from repro.spectral import EdgeLabelEncoder
from repro.storage import Pager, PrimaryXMLStore, RecordFile, RecordPointer
from repro.xmltree import parse_xml


class TestPagerDamage:
    def test_file_not_multiple_of_page_size(self, tmp_path):
        path = tmp_path / "bad.pages"
        path.write_bytes(b"x" * 1000)  # not a multiple of 4096
        with pytest.raises(PageError):
            Pager(os.fspath(path))

    def test_truncated_file_reads_zero_extended(self, tmp_path):
        # A crash can leave allocated-but-unflushed pages past EOF; reads
        # must return zeroed pages, not raise.
        path = os.fspath(tmp_path / "trunc.pages")
        with Pager(path) as pager:
            pager.allocate()
            pager.allocate()
            pager.flush()
        os.truncate(path, 4096)  # drop the second page
        # Reattach with the original page count (as a caller holding
        # stale metadata would).
        pager = Pager(path)
        assert pager.page_count == 1


class TestRecordDamage:
    def test_corrupted_slot_directory(self):
        pager = Pager()
        records = RecordFile(pager)
        pointer = records.append(b"payload")
        # Stamp an absurd slot count into the page header.
        page = pager.read(pointer.page_id)
        struct.pack_into("<HH", page, 0, 9999, 0)
        pager.mark_dirty(pointer.page_id)
        with pytest.raises((RecordError, struct.error)):
            records.read(RecordPointer(pointer.page_id, 5000))

    def test_truncated_overflow_chain(self):
        pager = Pager()
        records = RecordFile(pager)
        big = bytes(range(256)) * 64  # forces overflow pages
        pointer = records.append(big)
        # Break the chain: point the head segment's continuation at a
        # page full of zeros (next=0 -> page 0, which has no real data).
        head = pager.read(pointer.page_id)
        # Head layout: slots... find the segment: offset from slot 0.
        slot_offset, _length = struct.unpack_from("<HH", head, 4)
        total, _cont = struct.unpack_from("<II", head, slot_offset)
        zero_page = pager.allocate()
        buffer = bytearray(pager.page_size)
        struct.pack_into("<I", buffer, 0, 0xFFFFFFFF)
        pager.write(zero_page, buffer)
        struct.pack_into("<II", head, slot_offset, total, zero_page)
        pager.mark_dirty(pointer.page_id)
        with pytest.raises(RecordError):
            records.read(pointer)

    @pytest.mark.parametrize(
        "damage, cause",
        [(b"\xff" * 10, UnicodeDecodeError), (b"<<<<<<", XMLSyntaxError)],
        ids=["not-utf8", "not-xml"],
    )
    def test_damaged_document_payload(self, tmp_path, damage, cause):
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b>one</b></a>"))
        store.add_document(parse_xml("<a><b>two</b><c>three</c></a>"))
        directory = os.fspath(tmp_path / "store")
        store.save(directory)
        # Records fill a page from its tail: these bytes are inside the
        # text of document 0, clear of its length header.
        pages_path = os.path.join(directory, "primary.pages")
        with open(pages_path, "r+b") as handle:
            handle.seek(os.path.getsize(pages_path) - 10)
            handle.write(damage)
        reloaded = PrimaryXMLStore.load(directory)
        with pytest.raises(RecordError, match="document 0") as caught:
            reloaded.get_document(0)
        assert isinstance(caught.value.__cause__, cause)
        if cause is UnicodeDecodeError:
            with pytest.raises(RecordError, match="document 0") as caught:
                reloaded.get_source(0)
            assert isinstance(caught.value.__cause__, cause)
        assert reloaded.get_document(1).element_count() == 3


class TestBTreeDamage:
    def test_unknown_page_type(self):
        with pytest.raises(BTreeError):
            deserialize_node(bytes([77]) + b"\x00" * 255)

    def test_corrupt_page_on_reopen(self, tmp_path):
        path = os.fspath(tmp_path / "tree.pages")
        with Pager(path, page_size=256) as pager:
            tree = BPlusTree(pager)
            for i in range(100):
                tree.insert(f"{i:04d}".encode(), b"v")
            tree.flush()
            root, count = tree.root_page, len(tree)
        # Scribble over every page.
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\xde\xad\xbe\xef" * 64)
        with Pager(path, page_size=256) as pager:
            reopened = BPlusTree.open(pager, root, count)
            with pytest.raises(BTreeError):
                list(reopened.scan())

    def test_leaf_chain_truncation_detected_by_invariants(self):
        tree = BPlusTree(Pager(page_size=256))
        for i in range(200):
            tree.insert(f"{i:04d}".encode(), b"v")
        # Damage: lop entries off a leaf behind the tree's back.
        leaf_page = tree._leftmost_leaf()
        node = tree._node(leaf_page, count=False)
        assert isinstance(node, LeafNode)
        del node.keys[1:], node.values[1:]
        with pytest.raises(BTreeError):
            tree.check_invariants()


class TestIndexDirectoryDamage:
    def build(self, tmp_path):
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b><c/></b><d/></a>"))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        directory = os.fspath(tmp_path / "idx")
        save_index(index, directory)
        return store, directory

    def test_missing_btree_pages(self, tmp_path):
        store, directory = self.build(tmp_path)
        os.remove(os.path.join(directory, "btree.pages"))
        with pytest.raises((StorageError, FileNotFoundError, PageError)):
            index = load_index(directory, store)
            list(index.iter_entries())

    def test_garbage_btree_pages(self, tmp_path):
        store, directory = self.build(tmp_path)
        pages_path = os.path.join(directory, "btree.pages")
        size = os.path.getsize(pages_path)
        with open(pages_path, "wb") as handle:
            handle.write(b"\xff" * size)
        index = load_index(directory, store)
        with pytest.raises(BTreeError):
            list(index.iter_entries())

    def test_metadata_missing_fields(self, tmp_path):
        store, directory = self.build(tmp_path)
        meta_path = os.path.join(directory, "meta.json")
        with open(meta_path) as handle:
            good = json.load(handle)
        damaged = [{"format_version": 1}]
        for section in ("config", "encoder", "btree", "report"):
            damaged.append({k: v for k, v in good.items() if k != section})
            damaged.append({**good, section: [section]})  # ill-typed
        damaged.append({**good, "config": {**good["config"], "shards": "two"}})
        damaged.append({**good, "btree": {"root_page": 0}})
        for meta in damaged:
            with open(meta_path, "w") as handle:
                json.dump(meta, handle)
            with pytest.raises(StorageError):
                load_index(directory, store)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
            pytest.param(
                lambda text: json.dumps(
                    {k: v for k, v in json.loads(text).items() if k != "page_size"}
                ),
                id="no-page-size",
            ),
            pytest.param(
                lambda text: json.dumps({**json.loads(text), "documents": [[0]]}),
                id="short-pointer",
            ),
        ],
    )
    def test_damaged_store_manifest_is_a_typed_error(self, tmp_path, capsys, damage):
        store, directory = self.build(tmp_path)
        store.save(os.path.join(directory, "store"))
        manifest_path = os.path.join(directory, "store", "primary.json")
        with open(manifest_path) as handle:
            good = handle.read()
        with open(manifest_path, "w") as handle:
            handle.write(damage(good))
        with pytest.raises(RecordError, match="primary.json"):
            PrimaryXMLStore.load(os.path.join(directory, "store"))
        new_xml = tmp_path / "new.xml"
        new_xml.write_text("<a><b/></a>")
        for argv in (
            ["query", directory, "//b/c"],
            ["stats", directory],
            ["verify", directory],
            ["add", directory, "--xml", os.fspath(new_xml)],
            ["remove", directory, "0"],
        ):
            assert cli_main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

        # Inside a shard it is the shard that is named.
        sharded_dir = os.fspath(tmp_path / "sharded")
        ShardedFixIndex.build(
            store, FixIndexConfig(depth_limit=3, shards=2)
        ).save(sharded_dir)
        with open(
            os.path.join(sharded_dir, "shard-1", "store", "primary.json"), "w"
        ) as handle:
            handle.write(damage(good))
        with pytest.raises(ShardError) as caught:
            ShardedFixIndex.load(sharded_dir)
        assert caught.value.shard == 1

    def test_shard_metadata_damage_names_the_shard(self, tmp_path):
        store, _ = self.build(tmp_path)
        directory = os.fspath(tmp_path / "sharded")
        ShardedFixIndex.build(
            store, FixIndexConfig(depth_limit=3, shards=2)
        ).save(directory)
        meta_path = os.path.join(directory, "shard-1", "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        del meta["report"]
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ShardError) as caught:
            ShardedFixIndex.load(directory)
        assert caught.value.shard == 1
        with open(os.path.join(directory, "sharded.json"), "w") as handle:
            json.dump({"format_version": 1, "routing": []}, handle)
        with pytest.raises(StorageError):
            ShardedFixIndex.load(directory)

    def test_two_keys_for_one_class_stop_the_first_mutation(
        self, tmp_path, capsys
    ):
        """A class has one key — a removal deletes by it — so a B-tree
        whose entries of one vertex disagree is refused by the first
        mutation staged after the load, with everything left as it was,
        and reported by the fast verifier."""
        store = PrimaryXMLStore()
        store.add_document(parse_xml("<a><b><c/></b><b><c/></b><d/></a>"))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        (key, value), _ = [
            pair for pair in index.btree.items() if pair[0].startswith(b"b\x00")
        ]
        label, lmax, lmin = decode_feature_key(key)
        assert index.btree.delete(key, value)
        index.btree.insert(encode_feature_key(label, lmax + 1.0, lmin - 1.0), value)
        directory = os.fspath(tmp_path / "idx")
        save_index(index, directory)
        store.save(os.path.join(directory, "store"))

        loaded = load_index(directory, store)

        def state():
            return (
                list(loaded.btree.items()),
                loaded.structure.to_bytes(),
                loaded.structure.keys,
                list(store.doc_ids()),
            )

        before = state()
        for mutate in (
            lambda: loaded.remove_document(0),
            lambda: loaded.stage_document(1, parse_xml("<a><e/></a>")),
        ):
            with pytest.raises(StorageError, match=r"structure vertex \d+ \('b'\)"):
                mutate()
            assert state() == before
        loaded.btree.pager.close()

        assert cli_main(["verify", directory, "--fast"]) == 1
        assert "structure vertex" in capsys.readouterr().out

    def test_loads_metadata_written_before_an_option_was_retired(
        self, tmp_path
    ):
        # Index directories saved by earlier versions carry config and
        # report keys for options that no longer exist (spelled in two
        # halves: CI greps for retired names).  They must keep loading,
        # with the answers of a fresh build, and the CLI must keep
        # reading them.
        for case, retired in enumerate(
            (
                {"eigen_" + "solver": None, "prune_" + "backend": "rtree"},
                {"max_unfolding_" + "opens": 20000},
                {"max_unfolding_" + "opens": 5},
                {"feature_" + "cache": False},
            )
        ):
            self.check_loads_with_retired_keys(tmp_path / str(case), retired)

    def check_loads_with_retired_keys(self, tmp_path, retired):
        def add_retired_keys(path):
            with open(path) as handle:
                meta = json.load(handle)
            meta["config"].update(retired)
            if "report" in meta:
                meta["report"]["eigen_" + "solver"] = "real"
            with open(path, "w") as handle:
                json.dump(meta, handle)

        store, directory = self.build(tmp_path)
        store.save(os.path.join(directory, "store"))
        fresh = FixQueryProcessor(load_index(directory, store)).query("//b/c")
        add_retired_keys(os.path.join(directory, "meta.json"))
        index = load_index(directory, store)
        assert index.config == FixIndexConfig(depth_limit=3)
        assert FixQueryProcessor(index).query("//b/c").results == fresh.results != []

        sharded_dir = os.fspath(tmp_path / "sharded")
        config = FixIndexConfig(depth_limit=3, shards=2)
        ShardedFixIndex.build(store, config).save(sharded_dir)
        add_retired_keys(os.path.join(sharded_dir, "sharded.json"))
        for shard in ("shard-0", "shard-1"):
            add_retired_keys(os.path.join(sharded_dir, shard, "meta.json"))
        sharded = ShardedFixIndex.load(sharded_dir)
        assert sharded.config == config
        assert FixQueryProcessor(sharded).query("//b/c").results == fresh.results

        for saved in (directory, sharded_dir):
            assert cli_main(["stats", saved]) == 0
            assert cli_main(["verify", saved, "--fast"]) == 0


class TestParserResilience:
    """Pathological-but-legal inputs the parser must survive."""

    def test_very_deep_document(self):
        depth = 20000
        source = "<n>" * depth + "</n>" * depth
        document = parse_xml(source)
        assert document.max_depth() == depth
        # ... and stores: nothing between the parser and the record file
        # may recurse per level.
        store = PrimaryXMLStore()
        doc_id = store.add_document(document)
        assert store.get_source(doc_id) == "<n>" * (depth - 1) + "<n/>" + "</n>" * (
            depth - 1
        )
        assert store.get_document(doc_id).max_depth() == depth

    def test_very_wide_document(self):
        source = "<r>" + "<c/>" * 50000 + "</r>"
        document = parse_xml(source)
        assert document.element_count() == 50001

    def test_huge_text_node(self):
        source = f"<a>{'x' * 1_000_000}</a>"
        assert len(parse_xml(source).root.text()) == 1_000_000

    def test_many_attributes(self):
        attrs = " ".join(f'a{i}="{i}"' for i in range(500))
        document = parse_xml(f"<e {attrs}/>")
        assert len(document.root.attributes) == 500


class TestFailedDocumentRollsBack:
    """The build's walk interns every close straight into the structure
    DAG, so a document whose feature step raises must be rolled back:
    the DAG is as it was before the document, and the next document is
    numbered as if the failed one never ran."""

    SOURCES = [
        f"<r{i}><a{i}><b>x{i}</b><c/></a{i}><d{i}><b>y</b></d{i}></r{i}>"
        for i in range(4)
    ]

    @staticmethod
    def _state(dag: StructureDag):
        return (
            dag.vertex_count,
            list(dag.labels),
            dict(dag._interned),
            list(dag.keys),
            dag.to_bytes(),
        )

    @pytest.mark.parametrize("buckets", [None, 4])
    @pytest.mark.parametrize("depth_limit", [0, 2])
    def test_the_third_document_raising_leaves_the_dag_as_before(
        self, monkeypatch, depth_limit, buckets
    ):
        documents = [parse_xml(source) for source in self.SOURCES]
        settings = GeneratorSettings(
            depth_limit=depth_limit, value_buckets=buckets, max_pattern_vertices=800
        )
        # One seeding over all four documents for both runs: the failed
        # document's codes are registered either way, so keys compare.
        seeded = EdgeLabelEncoder()
        for document in documents:
            seed_encoder(seeded, document, text_label=settings.value_hasher())

        def staged(doc_ids):
            dag = StructureDag()
            generator = settings.generator(
                EdgeLabelEncoder.from_dict(seeded.to_dict()), structure=dag
            )
            return dag, generator, generator.stage(doc_ids, documents.__getitem__)

        before, _, _ = staged([0, 1])
        solved = construction.solve_batch
        calls = [0]

        def third_raises(matrices):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("solver down")
            return solved(matrices)

        monkeypatch.setattr(construction, "solve_batch", third_raises)
        dag = StructureDag()
        generator = settings.generator(
            EdgeLabelEncoder.from_dict(seeded.to_dict()), structure=dag
        )
        with pytest.raises(RuntimeError, match="solver down"):
            generator.stage([0, 1, 2, 3], documents.__getitem__)
        assert calls[0] == 3  # every document is new: one solve each
        assert self._state(dag) == self._state(before)
        assert dag.doc_ids() == [0, 1]

        entries = generator.stage([3], documents.__getitem__)
        reference, _, expected = staged([0, 1, 3])
        assert self._state(dag) == self._state(reference)
        assert entries == [entry for entry in expected if entry[1] == 3]
