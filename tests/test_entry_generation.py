"""What the single feature path of entry generation guarantees
(``core/construction.py``): per-document state dies with the document,
the structure DAG's per-vertex key is the one memo between documents
and only a memo, unit mode is the root of the subpattern walk, the
shared signature memo is only a memo, and a serial build fetches each
document once.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bisim.dag as dag
import repro.storage.primary as primary
from repro.bisim import PatternTable, bisim_graph_of_document
from repro.btree.keys import decode_feature_key
from repro.core import FixIndex, FixIndexConfig
from repro.core.construction import EntryGenerator, GeneratorSettings, seed_encoder
from repro.core.structure import StructureDag
from repro.datasets import dataset_names, load_dataset
from repro.datasets.base import store_of
from repro.spectral import EdgeLabelEncoder, pattern_matrix
from repro.spectral.matrix import dag_matrix
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import Document, Element, parse_xml


def _calls_counted(monkeypatch, module, name: str) -> list[int]:
    """Patch ``module.name`` with a counting wrapper; the returned
    one-element list holds the running call count."""
    real = getattr(module, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestNoStateOutlivesADocument:
    SENTINEL = "boom"

    def test_failed_document_leaves_nothing_for_the_next(self):
        """A generator whose walk raised mid-document stages the next
        document exactly as a fresh generator does."""

        def text_label(value: str) -> str:
            if value == self.SENTINEL:
                raise RuntimeError("poisoned text node")
            return f"#{value}"

        # ``c`` and ``b`` close (their features are queued) before the
        # walk reaches the sentinel under ``d``.
        failing = parse_xml(
            f"<a><b><c>x</c></b><e>y</e><d>{self.SENTINEL}</d></a>"
        )
        following = parse_xml("<n><p><o>x</o></p><q>y</q></n>")
        seeded = EdgeLabelEncoder()
        for document in (failing, following):
            seed_encoder(seeded, document, text_label=lambda value: f"#{value}")

        def generator():
            return GeneratorSettings(
                depth_limit=3, value_buckets=None, max_pattern_vertices=800
            ).generator(
                EdgeLabelEncoder.from_dict(seeded.to_dict()),
                structure=StructureDag(),
            )

        reused, fresh = generator(), generator()
        reused.text_label = fresh.text_label = text_label
        with pytest.raises(RuntimeError):
            list(reused.entries_for(failing, 0))
        before = copy.deepcopy(reused.stats)

        entries = list(reused.entries_for(following, 1))
        assert entries == list(fresh.entries_for(following, 1))
        assert reused.structure.to_bytes() == fresh.structure.to_bytes()
        assert {decode_feature_key(key)[0] for key, _, _ in entries} == set("npoq")
        for field in dataclasses.fields(fresh.stats):
            was = getattr(before, field.name)
            now = getattr(reused.stats, field.name)
            want = getattr(fresh.stats, field.name)
            if field.name == "per_document_vertices":
                assert now[len(was):] == want
            elif field.name == "eigen_batch_sizes":
                delta = {size: now[size] - was.get(size, 0) for size in now}
                assert {s: c for s, c in delta.items() if c} == want
            elif field.name == "largest_pattern":
                assert now == want
            else:
                assert now - was == want, field.name

    def test_failed_feature_step_leaves_the_dag_untouched(self, monkeypatch):
        """The walk interns straight into the DAG, and a document whose
        eigensolve raises is rolled back: it records nothing — no slots,
        no vertices, no keys."""
        import repro.core.construction as construction

        dag = StructureDag()
        generator = EntryGenerator(EdgeLabelEncoder(), 3, structure=dag)
        list(generator.entries_for(parse_xml("<a><b><c/></b><e/></a>"), 0))
        before = dag.to_bytes(), list(dag.keys)

        def failing(matrices):
            raise RuntimeError("solver down")

        monkeypatch.setattr(construction, "solve_batch", failing)
        with pytest.raises(RuntimeError):
            list(generator.entries_for(parse_xml("<a><b><d/></b><f/></a>"), 1))
        assert (dag.to_bytes(), list(dag.keys)) == before
        assert dag.doc_ids() == [0]


def _dblp_like_store(documents: int) -> PrimaryXMLStore:
    """Several DBLP-like slices: the regular shape whose classes recur
    across documents."""
    store = PrimaryXMLStore()
    for offset in range(documents):
        for document in load_dataset("dblp", scale=0.01, seed=91 + offset).documents:
            store.add_document(document)
    return store


class TestTheMemoIsTheSameMemo:
    """``cache_hits`` / ``cache_misses`` / ``eigen_computations`` count
    what they counted while a blake2b-addressed cache held the keys
    (literals captured on the commit before the structure DAG took them
    over): a class already keyed or joined in flight / a class computed.
    Two workers each remember only what they staged."""

    SHAPES = {
        # unit collection: a hit is a root vertex met before.
        "unit": (
            lambda: load_dataset("xbench", scale=0.5, seed=42).store(),
            dict(depth_limit=0),
            {1: (10, 120, 120), 2: (3, 127, 127)},
        ),
        # one depth-6 document: a hit is a second class with the same
        # truncation.
        "depth6": (
            lambda: load_dataset("xmark", scale=0.1, seed=42).store(),
            dict(depth_limit=6),
            {1: (6, 171, 171), 2: (6, 171, 171)},
        ),
        # value-extended, several depth-6 documents: both kinds.
        "values": (
            lambda: _dblp_like_store(2),
            dict(depth_limit=6, value_buckets=16),
            {1: (73, 220, 220), 2: (0, 293, 293)},
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_counts_equal_the_digest_cache(self, shape, workers):
        make_store, config, expected = self.SHAPES[shape]
        store = make_store()
        index = FixIndex.build(store, FixIndexConfig(workers=workers, **config))
        stats = index.report.stats
        assert (
            stats.cache_hits, stats.cache_misses, stats.eigen_computations
        ) == expected[workers]
        # Every miss became an eigen computation or an oversized fallback.
        assert (
            stats.eigen_computations + stats.oversized_patterns
            == stats.cache_misses
        )
        # Warm equals cold: a generator with nothing to remember
        # classes in stages the same keys.
        cold = GeneratorSettings.from_config(index.config).generator(
            EdgeLabelEncoder()
        )
        pairs = [
            (key, NodePointer(doc_id, node_id).pack())
            for key, doc_id, node_id in cold.stage(
                store.doc_ids(), store.get_document
            )
        ]
        pairs.sort(key=lambda pair: pair[0])
        assert pairs == list(index.btree.items())
        assert cold.stats.eigen_computations >= stats.eigen_computations

    def test_oversized_fallback_is_the_class_key(self):
        """One DAG, one ``max_pattern_vertices``: the all-covering key
        of an over-cap class is remembered like any other, so the repeat
        of the document neither unfolds nor misses again."""
        store = PrimaryXMLStore()
        for _ in range(2):
            store.add_document(parse_xml(
                "<root>" + "".join(
                    f"<kid{i}><leaf/></kid{i}>" for i in range(12)
                ) + "</root>"
            ))
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, max_pattern_vertices=4)
        )
        stats = index.report.stats
        assert stats.oversized_patterns == 1
        fallback = [
            entry for entry in index.iter_entries()
            if entry.key.range.is_all_covering()
        ]
        assert [entry.pointer.node_id for entry in fallback] == [0, 0]
        assert stats.cache_hits == stats.cache_misses


_LABELS = ["a", "b", "c"]
_TEXTS = ["x", "y", "z", "w", "v"]


@st.composite
def small_documents(draw) -> Document:
    """A random tree over three labels, with text under some nodes."""
    root = Element(draw(st.sampled_from(_LABELS)))
    frontier = [root]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        grown: list[Element] = []
        for parent in frontier:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                grown.append(parent.add_element(draw(st.sampled_from(_LABELS))))
            if draw(st.booleans()):
                parent.add_text(draw(st.sampled_from(_TEXTS)))
        frontier = grown[:6]
    return Document(root)


class TestUnitIsTheRootAtFullDepth:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(small_documents(), min_size=1, max_size=4),
        st.sampled_from([None, 4]),
    )
    def test_unit_key_equals_full_depth_root_key(self, documents, buckets):
        """The ``depth_limit=0`` entry of a document is byte-equal to the
        node-0 entry of a build whose limit covers every document — the
        all-covering fallback of an over-cap document included."""
        store = store_of(documents)
        full_depth = max(document.max_depth() for document in documents) + 1
        common = dict(value_buckets=buckets, max_pattern_vertices=6)
        units = FixIndex.build(store, FixIndexConfig(depth_limit=0, **common))
        elements = FixIndex.build(
            store, FixIndexConfig(depth_limit=full_depth, **common)
        )
        roots = {
            NodePointer.unpack(value).doc_id: key
            for key, value in elements.btree.items()
            if NodePointer.unpack(value).node_id == 0
        }
        assert roots == {
            NodePointer.unpack(value).doc_id: key
            for key, value in units.btree.items()
        }
        assert len(roots) == len(documents)


class TestSharedSignatureMemo:
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_matrix_is_bitwise_equal_with_a_shared_memo(self, dataset):
        bundle = load_dataset(dataset, scale=0.03, seed=42)
        encoder = EdgeLabelEncoder()
        checked = 0
        for document in bundle.documents:
            seed_encoder(encoder, document)
            graph = bisim_graph_of_document(document)
            table = PatternTable()
            shared: dict[int, bytes] = {}
            for vertex in graph.vertices:
                pattern = table.pattern(vertex, bundle.depth_limit)
                with_memo = pattern_matrix(pattern, encoder, signatures=shared)
                assert with_memo.tobytes() == pattern_matrix(pattern, encoder).tobytes()
                checked += 1
            # The memo filled with this table's vertices, and only those.
            assert set(shared) <= {v.vid for v in table.vertices}
        assert checked > 0

    @pytest.mark.parametrize("dataset", ["xbench", "xmark"])
    def test_each_pattern_vertex_is_digested_at_most_once(
        self, dataset, monkeypatch
    ):
        """Unit mode digests each structure-DAG vertex at most once per
        build (one memo over the DAG, kept across documents); subpattern
        mode each pattern-table vertex at most once per document — the
        cache key and the matrix order come out of one memo."""
        bundle = load_dataset(dataset, scale=0.1, seed=42)
        budget = 0
        for document in bundle.documents:
            if bundle.depth_limit <= 0:
                break
            graph = bisim_graph_of_document(document)
            table = PatternTable()
            for vertex in graph.vertices:
                table.pattern(vertex, bundle.depth_limit)
            budget += len(table.vertices)
        digests = _calls_counted(monkeypatch, dag, "blake2b")
        index = FixIndex.build(
            bundle.store(), FixIndexConfig(depth_limit=bundle.depth_limit)
        )
        if bundle.depth_limit <= 0:
            budget = index.structure.vertex_count
            per_document = sum(index.report.stats.per_document_vertices)
            assert budget < per_document  # classes recur across documents
        assert index.report.stats.cache_misses > 0
        assert 0 < digests[0] <= budget

    @pytest.mark.parametrize("buckets", [None, 8])
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_unit_matrix_off_the_dag_is_the_graph_matrix(self, dataset, buckets):
        """A unit's matrix is read straight off the structure DAG (no
        per-document graph): byte for byte the matrix of the document's
        own bisimulation graph, with one digest memo across documents."""
        bundle = load_dataset(dataset, scale=0.05, seed=42)
        structure = StructureDag()
        encoder = EdgeLabelEncoder()
        generator = GeneratorSettings(
            depth_limit=0, value_buckets=buckets, max_pattern_vertices=800
        ).generator(encoder, structure=structure)
        digests: dict[int, bytes] = {}
        for doc_id, document in enumerate(bundle.documents):
            generator.entries_for(document, doc_id)
            below, pending = set(), [structure.vertex_of(doc_id, 0)]
            while pending:
                vertex = pending.pop()
                if vertex not in below:
                    below.add(vertex)
                    pending.extend(structure.children_of(vertex))
            off_dag = dag_matrix(structure, sorted(below), encoder, signatures=digests)
            graph = bisim_graph_of_document(document, text_label=generator.text_label)
            assert off_dag.tobytes() == pattern_matrix(graph, encoder).tobytes()


class TestTheWalkSeedsTheEncoder:
    @pytest.mark.parametrize("buckets", [None, 8])
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_serial_build_codes_equal_the_pre_pass(self, dataset, buckets):
        """The fan-out (DESIGN.md §7) seeds its workers with a
        ``seed_encoder`` pre-pass in doc-id order; a serial build seeds
        in its one walk, and must leave the identical code table."""
        bundle = load_dataset(dataset, scale=0.1, seed=42)
        store = bundle.store()
        index = FixIndex.build(
            store,
            FixIndexConfig(depth_limit=bundle.depth_limit, value_buckets=buckets),
        )
        seeded = EdgeLabelEncoder()
        for doc_id in store.doc_ids():
            seed_encoder(
                seeded, store.get_document(doc_id), text_label=index.value_hasher
            )
        assert list(index.encoder.to_dict().items()) == list(
            seeded.to_dict().items()
        )
        assert index.report.timings.encode == 0.0


class TestSerialBuildParsesOnce:
    def test_one_parse_per_document_beyond_the_store_cache(self, monkeypatch):
        """130 sources in a default (64-document) store cache: the serial
        build seeds and stages off one fetch, and loads the same tree as
        the fan-out, which seeds in a pre-pass."""
        store = PrimaryXMLStore()
        for i in range(130):
            store.add_source(
                f"<doc><s{i % 7}><t{i % 5}/>{'<u/>' * (i % 3)}</s{i % 7}>"
                f"<v{i % 11}><w/></v{i % 11}></doc>"
            )
        parses = _calls_counted(monkeypatch, primary, "parse_xml")
        serial = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        assert parses[0] == 130
        fanned = FixIndex.build(store, FixIndexConfig(depth_limit=0, workers=2))
        assert list(serial.btree.items()) == list(fanned.btree.items())
        assert serial.encoder.to_dict() == fanned.encoder.to_dict()
