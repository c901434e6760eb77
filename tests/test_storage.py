"""Unit and property tests for the paged storage engine."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, RecordError
from repro.storage import (
    ClusteredStore,
    NodePointer,
    Pager,
    PrimaryXMLStore,
    RecordFile,
    RecordPointer,
)
from repro.storage.clustered import copy_limited_depth
from repro.xmltree import parse_xml


class TestPager:
    def test_allocate_and_roundtrip_in_memory(self):
        pager = Pager()
        page_id = pager.allocate()
        data = bytearray(pager.page_size)
        data[:5] = b"hello"
        pager.write(page_id, data)
        assert bytes(pager.read(page_id)[:5]) == b"hello"

    def test_allocate_returns_dense_ids(self):
        pager = Pager()
        assert [pager.allocate() for _ in range(4)] == [0, 1, 2, 3]
        assert pager.page_count == 4

    def test_read_out_of_range_raises(self):
        pager = Pager()
        with pytest.raises(PageError):
            pager.read(0)

    def test_wrong_size_write_raises(self):
        pager = Pager()
        page_id = pager.allocate()
        with pytest.raises(PageError):
            pager.write(page_id, b"short")

    def test_file_backed_persistence(self, tmp_path):
        path = os.fspath(tmp_path / "pages.db")
        with Pager(path, cache_pages=2) as pager:
            ids = [pager.allocate() for _ in range(5)]
            for i, page_id in enumerate(ids):
                data = bytearray(pager.page_size)
                data[0] = i + 1
                pager.write(page_id, data)
        with Pager(path) as pager:
            assert pager.page_count == 5
            for i, page_id in enumerate(ids):
                assert pager.read(page_id)[0] == i + 1

    def test_eviction_respects_cache_capacity(self, tmp_path):
        path = os.fspath(tmp_path / "pages.db")
        with Pager(path, cache_pages=2) as pager:
            for _ in range(6):
                pager.allocate()
            # Touch page 0 again: with capacity 2 it must have been
            # evicted, producing a physical read.
            before = pager.stats.physical_reads
            pager.read(0)
            assert pager.stats.physical_reads == before + 1

    def test_stats_counters(self):
        pager = Pager()
        page_id = pager.allocate()
        pager.read(page_id)
        pager.read(page_id)
        assert pager.stats.logical_reads == 2
        assert pager.stats.physical_reads == 0  # in-memory: always resident
        assert pager.stats.allocations == 1

    def test_stats_delta(self):
        pager = Pager()
        page_id = pager.allocate()
        before = pager.stats.snapshot()
        pager.read(page_id)
        delta = pager.stats.delta(before)
        assert delta.logical_reads == 1
        assert delta.allocations == 0

    def test_closed_pager_rejects_access(self):
        pager = Pager()
        pager.close()
        with pytest.raises(PageError):
            pager.allocate()

    def test_mark_dirty_requires_residency(self, tmp_path):
        path = os.fspath(tmp_path / "pages.db")
        with Pager(path, cache_pages=1) as pager:
            first = pager.allocate()
            pager.allocate()  # evicts `first`
            with pytest.raises(PageError):
                pager.mark_dirty(first)

    def test_tiny_page_size_rejected(self):
        with pytest.raises(PageError):
            Pager(page_size=16)


class TestRecordFile:
    def test_small_record_roundtrip(self):
        records = RecordFile(Pager())
        pointer = records.append(b"payload")
        assert records.read(pointer) == b"payload"

    def test_empty_record(self):
        records = RecordFile(Pager())
        pointer = records.append(b"")
        assert records.read(pointer) == b""

    def test_many_records_share_pages(self):
        pager = Pager()
        records = RecordFile(pager)
        pointers = [records.append(f"rec{i}".encode()) for i in range(100)]
        assert pager.page_count < 100  # packing works
        for i, pointer in enumerate(pointers):
            assert records.read(pointer) == f"rec{i}".encode()

    def test_oversized_record_overflows(self):
        pager = Pager()
        records = RecordFile(pager)
        big = bytes(range(256)) * 100  # 25600 bytes >> one 4K page
        pointer = records.append(big)
        assert records.read(pointer) == big
        assert pager.page_count > 1

    def test_interleaved_sizes(self):
        records = RecordFile(Pager())
        payloads = [b"x" * n for n in (0, 1, 4000, 5000, 17, 9000, 3)]
        pointers = [records.append(p) for p in payloads]
        for payload, pointer in zip(payloads, pointers):
            assert records.read(pointer) == payload

    def test_bad_slot_raises(self):
        records = RecordFile(Pager())
        pointer = records.append(b"x")
        with pytest.raises(RecordError):
            records.read(RecordPointer(pointer.page_id, 99))

    def test_bad_page_raises(self):
        records = RecordFile(Pager())
        records.append(b"x")
        with pytest.raises(RecordError):
            records.read(RecordPointer(999, 0))

    def test_pointer_pack_roundtrip(self):
        pointer = RecordPointer(12345, 67)
        assert RecordPointer.unpack(pointer.pack()) == pointer

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=12000), min_size=1, max_size=20))
    def test_property_roundtrip(self, payloads):
        records = RecordFile(Pager())
        pointers = [records.append(p) for p in payloads]
        for payload, pointer in zip(payloads, pointers):
            assert records.read(pointer) == payload


class TestPrimaryXMLStore:
    def test_add_and_get_document(self):
        store = PrimaryXMLStore()
        doc = parse_xml("<a><b>t</b></a>")
        doc_id = store.add_document(doc)
        assert store.get_document(doc_id) is doc  # cache hit

    def test_reparse_after_cache_eviction(self):
        store = PrimaryXMLStore(cache_documents=1)
        first = store.add_document(parse_xml("<a><b>t</b></a>"))
        store.add_document(parse_xml("<c/>"))  # evicts the first
        reloaded = store.get_document(first)
        assert reloaded.root.tag == "a"
        assert next(reloaded.root.find_all("b")).text() == "t"

    def test_add_source_lazy_parse(self):
        store = PrimaryXMLStore()
        doc_id = store.add_source("<x><y/></x>")
        assert store.get_document(doc_id).root.tag == "x"

    def test_doc_id_assignment(self):
        store = PrimaryXMLStore()
        ids = [store.add_document(parse_xml(f"<d{i}/>")) for i in range(3)]
        assert ids == [0, 1, 2]
        assert store.document_count == 3
        assert list(store.doc_ids()) == ids

    def test_resolve_pointer(self):
        store = PrimaryXMLStore()
        doc = parse_xml("<a><b/><c/></a>")
        doc_id = store.add_document(doc)
        c = next(doc.root.find_all("c"))
        resolved = store.resolve(NodePointer(doc_id, c.node_id))
        assert resolved.tag == "c"

    def test_resolve_bad_document(self):
        store = PrimaryXMLStore()
        with pytest.raises(RecordError):
            store.resolve(NodePointer(5, 0))

    def test_resolve_bad_node(self):
        store = PrimaryXMLStore()
        doc_id = store.add_document(parse_xml("<a/>"))
        with pytest.raises(RecordError):
            store.resolve(NodePointer(doc_id, 42))

    def test_node_pointer_pack_roundtrip(self):
        pointer = NodePointer(7, 99)
        assert NodePointer.unpack(pointer.pack()) == pointer

    def test_size_bytes_grows(self):
        store = PrimaryXMLStore()
        empty = store.size_bytes()
        store.add_document(parse_xml("<a>" + "<b/>" * 500 + "</a>"))
        assert store.size_bytes() > empty


    def test_removed_documents_give_their_pages_back(self, tmp_path):
        """Under add/remove churn — small documents sharing pages, and
        ones large enough to chain overflow pages — the store reuses
        pages holding only removed documents, every live document reads
        back intact (also after a save and reload), and the page count
        stays near what the live documents need."""
        import random

        rng = random.Random(5)
        store = PrimaryXMLStore(cache_documents=1)
        live: dict[int, str] = {}
        pages_after_fill = None
        for step in range(400):
            width = rng.choice([3, 40, 400, 4000])
            source = f"<d n=\"{step}\">" + "<e/>" * width + "</d>"
            live[store.add_document(parse_xml(source))] = source
            if len(live) > 12:
                victim = rng.choice(sorted(live))
                store.remove_document(victim)
                del live[victim]
                with pytest.raises(RecordError):
                    store.get_source(victim)
            if step == 60:
                pages_after_fill = store.pager.page_count
            for doc_id in rng.sample(sorted(live), min(3, len(live))):
                assert store.get_source(doc_id) == live[doc_id]
        assert store.pager.page_count < 2 * pages_after_fill
        store.save(str(tmp_path))
        reloaded = PrimaryXMLStore.load(str(tmp_path))
        assert {d: reloaded.get_source(d) for d in reloaded.doc_ids()} == live
        # A reattached file's pages are not known to be dead: removing
        # there reuses nothing, and still reads back what is live.
        victim = min(live)
        reloaded.remove_document(victim)
        added = reloaded.add_document(parse_xml("<late/>"))
        assert reloaded.get_source(added) == "<late/>"
        assert all(
            reloaded.get_source(d) == live[d] for d in live if d != victim
        )
        reloaded.pager.close()


class TestCopyLimitedDepth:
    def test_unlimited_is_full_serialization(self):
        doc = parse_xml("<a><b><c>t</c></b></a>")
        assert copy_limited_depth(doc.root, 0) == "<a><b><c>t</c></b></a>"

    def test_depth_one_keeps_only_root(self):
        doc = parse_xml("<a><b/><c/></a>")
        assert copy_limited_depth(doc.root, 1) == "<a/>"

    def test_depth_two_truncates_grandchildren(self):
        doc = parse_xml("<a><b><c/></b><d/></a>")
        assert copy_limited_depth(doc.root, 2) == "<a><b/><d/></a>"

    def test_text_at_cut_level_preserved(self):
        doc = parse_xml("<a><b>keep<c/></b></a>")
        copied = copy_limited_depth(doc.root, 2)
        assert copied == "<a><b>keep</b></a>"

    def test_attributes_preserved(self):
        doc = parse_xml('<a x="1"><b y="2"/></a>')
        copied = copy_limited_depth(doc.root, 2)
        assert 'x="1"' in copied and 'y="2"' in copied


class TestClusteredStore:
    def test_add_and_get_unit(self):
        store = ClusteredStore()
        doc = parse_xml("<a><b><c/></b></a>")
        pointer = store.add_unit(doc.root)
        unit = store.get_unit(pointer)
        assert [e.tag for e in unit.root.iter()] == ["a", "b", "c"]

    def test_depth_limited_copy(self):
        store = ClusteredStore()
        doc = parse_xml("<a><b><c/></b></a>")
        pointer = store.add_unit(doc.root, depth_limit=2)
        unit = store.get_unit(pointer)
        assert [e.tag for e in unit.root.iter()] == ["a", "b"]

    def test_unit_count(self):
        store = ClusteredStore()
        doc = parse_xml("<a><b/></a>")
        store.add_unit(doc.root)
        store.add_unit(doc.root)
        assert store.unit_count == 2

    def test_cache_eviction_reparses(self):
        store = ClusteredStore(cache_units=1)
        doc = parse_xml("<a><b/></a>")
        first = store.add_unit(doc.root)
        second = store.add_unit(next(doc.root.find_all("b")))
        store.get_unit(first)
        store.get_unit(second)
        again = store.get_unit(first)  # evicted, reparsed
        assert again.root.tag == "a"

    def test_redundancy_grows_size(self):
        # Copying every element's subtree stores each leaf many times.
        store = ClusteredStore()
        doc = parse_xml("<a><b><c><d/></c></b></a>")
        for element in doc.elements():
            store.add_unit(element)
        flat = ClusteredStore()
        flat.add_unit(doc.root)
        assert store.unit_count > flat.unit_count
