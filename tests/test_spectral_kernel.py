"""Property and regression tests for the real-arithmetic batched
spectral kernel (DESIGN.md §9).

The contract under test: for every anti-symmetric pattern matrix,

1. the spectrum is symmetric about 0 and the feature range satisfies
   ``λ_min == -λ_max`` *exactly* (not just approximately);
2. the spectrum equals ``±σ_j`` for the singular values of ``M``
   within 1e-9;
3. batched kernel ≡ per-pattern kernel ≡ the complex-Hermitian
   reference, for every bucket size, within 1e-9 (and batched ≡
   per-pattern exactly);
4. the closed forms for ``n ≤ 3`` match the dense solvers.

The reference is the paper's own formulation — ``eigvalsh(iM)``, the
solver the seed shipped — kept here, and only here, as the oracle.
Plus end-to-end coverage: every key in a built index's B-tree equals
the reference recomputed from its pattern within 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bisim import bisim_graph_of_document, depth_limited_graph
from repro.btree.keys import decode_feature_key
from repro.bench.paper_queries import (
    FIGURE6_QUERIES,
    FIGURE7_QUERIES,
    TABLE2_QUERIES,
)
from repro.core import FixIndex, FixIndexConfig, FixQueryProcessor
from repro.core.plan import build_plan
from repro.datasets import dataset_names, load_dataset
from repro.query import matching_elements, twig_of
from repro.spectral import (
    EdgeLabelEncoder,
    eigenvalue_range,
    pattern_matrix,
    solve_batch,
    spectrum,
)
from repro.spectral.kernel import real_spectrum, singular_range
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import parse_xml, serialize_fragment

TOLERANCE = 1e-9


def legacy_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Ascending spectrum via ``eigvalsh(iM)`` (the seed's solver)."""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return np.linalg.eigvalsh(1j * matrix).real


def legacy_range(matrix: np.ndarray) -> tuple[float, float]:
    """``(λ_min, λ_max)`` via the complex path, symmetrized (``eigvalsh``
    extremes can differ in the last ulp even though theory guarantees
    ``λ_min = -λ_max``)."""
    values = legacy_spectrum(matrix)
    if values.size == 0:
        return 0.0, 0.0
    top = max(float(values[-1]), -float(values[0]))
    return -top, top


@st.composite
def antisymmetric_matrices(draw, max_n: int = 8) -> np.ndarray:
    """Random integer-weighted anti-symmetric matrices (DAG-shaped:
    weights above the diagonal under a topological numbering)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            weight = draw(st.integers(min_value=0, max_value=9))
            matrix[i, j] = weight
            matrix[j, i] = -weight
    return matrix


class TestExactSymmetry:
    """Satellite: ``λ_min == -λ_max`` exactly — the real kernel is
    symmetric by construction."""

    @settings(max_examples=150, deadline=None)
    @given(antisymmetric_matrices())
    def test_real_range_exactly_symmetric(self, matrix):
        lmin, lmax = eigenvalue_range(matrix)
        assert lmin == -lmax

    @settings(max_examples=100, deadline=None)
    @given(antisymmetric_matrices())
    def test_real_spectrum_exactly_symmetric(self, matrix):
        values = spectrum(matrix)
        assert np.array_equal(values, -values[::-1])
        assert np.all(np.diff(values) >= 0)


class TestSpectrumIsSingularValues:
    @settings(max_examples=150, deadline=None)
    @given(antisymmetric_matrices())
    def test_spectrum_magnitudes_equal_singular_values(self, matrix):
        if matrix.shape[0] == 0:
            return
        singular = np.linalg.svd(matrix, compute_uv=False)
        for values in (spectrum(matrix), legacy_spectrum(matrix)):
            magnitudes = np.sort(np.abs(values))[::-1]
            assert np.max(np.abs(magnitudes - singular)) < TOLERANCE

    @settings(max_examples=150, deadline=None)
    @given(antisymmetric_matrices())
    def test_range_is_plus_minus_sigma_max(self, matrix):
        lmin, lmax = eigenvalue_range(matrix)
        if matrix.shape[0] == 0:
            assert (lmin, lmax) == (0.0, 0.0)
            return
        sigma_max = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert lmax == pytest.approx(sigma_max, abs=TOLERANCE)
        assert lmin == pytest.approx(-sigma_max, abs=TOLERANCE)


class TestSolverEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(antisymmetric_matrices())
    def test_real_matches_legacy(self, matrix):
        real = eigenvalue_range(matrix)
        legacy = legacy_range(matrix)
        assert real[0] == pytest.approx(legacy[0], abs=TOLERANCE)
        assert real[1] == pytest.approx(legacy[1], abs=TOLERANCE)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(antisymmetric_matrices(), min_size=1, max_size=12))
    def test_batched_equals_per_pattern_exactly(self, matrices):
        """The determinism contract: batching never changes a result's
        bits, for every bucket size the batch happens to contain."""
        ranges, buckets = solve_batch(matrices)
        assert len(ranges) == len(matrices)
        assert sum(buckets.values()) == sum(
            1 for m in matrices if m.shape[0] >= 2
        )
        for matrix, batched in zip(matrices, ranges):
            assert batched == singular_range(matrix)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(antisymmetric_matrices(), min_size=1, max_size=12))
    def test_batched_matches_legacy_within_tolerance(self, matrices):
        real_ranges, _ = solve_batch(matrices)
        for real, matrix in zip(real_ranges, matrices):
            legacy = legacy_range(matrix)
            assert real[0] == pytest.approx(legacy[0], abs=TOLERANCE)
            assert real[1] == pytest.approx(legacy[1], abs=TOLERANCE)

    def test_every_bucket_size_up_to_eight(self):
        """Deterministic sweep: one batch per dimension 0..8, each
        compared against the per-pattern kernel and the reference."""
        rng = np.random.default_rng(11)
        for n in range(9):
            upper = np.triu(rng.integers(1, 9, size=(n, n)).astype(float), 1)
            mats = [upper - upper.T for _ in range(4)]
            ranges, buckets = solve_batch(mats)
            if n >= 2:
                assert buckets == {n: 4}
            else:
                assert buckets == {}
            for matrix, got in zip(mats, ranges):
                assert got == singular_range(matrix)
                legacy = legacy_range(matrix)
                assert got[1] == pytest.approx(legacy[1], abs=TOLERANCE)


class TestClosedForms:
    def test_n0_and_n1_are_degenerate(self):
        assert singular_range(np.zeros((0, 0))) == (0.0, 0.0)
        assert singular_range(np.zeros((1, 1))) == (0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_n2_closed_form(self, w):
        matrix = np.array([[0.0, w], [-w, 0.0]])
        assert singular_range(matrix) == (-float(w), float(w))
        legacy = legacy_range(matrix)
        assert singular_range(matrix)[1] == pytest.approx(
            legacy[1], abs=TOLERANCE
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_n3_closed_form(self, w01, w02, w12):
        matrix = np.array(
            [
                [0.0, w01, w02],
                [-w01, 0.0, w12],
                [-w02, -w12, 0.0],
            ]
        )
        expected = float(np.sqrt(float(w01**2 + w02**2 + w12**2)))
        lmin, lmax = singular_range(matrix)
        assert lmax == pytest.approx(expected, abs=TOLERANCE)
        assert lmin == -lmax
        # ...and both dense solvers agree with the closed form.
        dense = float(np.linalg.svd(matrix, compute_uv=False)[0])
        assert lmax == pytest.approx(dense, abs=TOLERANCE)
        legacy = legacy_range(matrix)
        assert lmax == pytest.approx(legacy[1], abs=TOLERANCE)

    def test_full_spectrum_reconstruction_n3(self):
        matrix = np.array(
            [[0.0, 3.0, 0.0], [-3.0, 0.0, 4.0], [0.0, -4.0, 0.0]]
        )
        values = real_spectrum(matrix)
        assert values == pytest.approx([-5.0, 0.0, 5.0], abs=TOLERANCE)


class TestVectorizedPatternMatrix:
    """Satellite: index-array assembly must equal the per-edge loop."""

    def _reference_matrix(self, graph, encoder):
        from repro.bisim.dag import reachable_vertices, vertex_signature

        vertices = reachable_vertices(graph.root)
        signatures: dict[int, bytes] = {}
        vertices.sort(
            key=lambda v: (vertex_signature(v, signatures), v.vid)
        )
        index_of = {v.vid: i for i, v in enumerate(vertices)}
        matrix = np.zeros((len(vertices), len(vertices)))
        for parent in vertices:
            i = index_of[parent.vid]
            for child in parent.children:
                j = index_of[child.vid]
                weight = float(encoder.encode(parent.label, child.label))
                matrix[i, j] = weight
                matrix[j, i] = -weight
        return matrix

    @pytest.mark.parametrize(
        "xml",
        [
            "<a/>",
            "<a><b/></a>",
            "<a><b><c/></b><d/></a>",
            "<bib><article><x/></article><article><y/></article></bib>",
            "<r><a><b><c/></b></a><a><b><c/></b></a><d/></r>",
        ],
    )
    def test_matches_reference_assembly(self, xml):
        from repro.bisim import bisim_graph_of_document

        graph = bisim_graph_of_document(parse_xml(xml))
        encoder = EdgeLabelEncoder()
        reference = self._reference_matrix(graph, self._shadow(encoder))
        built = pattern_matrix(graph, encoder)
        assert np.array_equal(built, reference)

    @staticmethod
    def _shadow(encoder: EdgeLabelEncoder) -> EdgeLabelEncoder:
        # Both assemblies must run under equivalent encoders without
        # interfering with each other's code assignment order.
        return EdgeLabelEncoder.from_dict(encoder.to_dict())


def _corpus(documents: int = 6) -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for i in range(documents):
        store.add_document(
            parse_xml(
                "<book>"
                + "<chapter><section><para><text/></para>"
                + "<para><note/></para></section>"
                + f"<section>{'<item/>' * (1 + i % 3)}</section></chapter>"
                + "<chapter><ref/></chapter>"
                + "</book>"
            )
        )
    return store


class TestEndToEndSolverAB:
    """Every key a build wrote must equal the ``eigvalsh(iM)`` reference
    recomputed from the entry's own depth-limited pattern (within 1e-9),
    and the index must answer exactly."""

    DEPTH_LIMIT = 3

    @pytest.fixture(scope="class")
    def index(self):
        return FixIndex.build(
            _corpus(), FixIndexConfig(depth_limit=self.DEPTH_LIMIT)
        )

    def test_every_feature_range_agrees(self, index):
        checked = 0
        for raw_key, raw_value in index.btree.items():
            label, lmax, lmin = decode_feature_key(raw_key)
            pointer = NodePointer.unpack(raw_value)
            document = index.store.get_document(pointer.doc_id)
            element = document.element_at(pointer.node_id)
            # The entry's pattern, rebuilt from first principles: the
            # element's subtree, minimized, unfolded to the depth limit.
            subtree = parse_xml(serialize_fragment(element))
            pattern = depth_limited_graph(
                bisim_graph_of_document(subtree).root, self.DEPTH_LIMIT
            )
            want_min, want_max = legacy_range(
                pattern_matrix(pattern, index.encoder)
            )
            assert label == element.tag
            assert lmax == pytest.approx(want_max, abs=TOLERANCE)
            assert lmin == pytest.approx(want_min, abs=TOLERANCE)
            checked += 1
        assert checked == index.entry_count > 0

    def test_real_keys_exactly_symmetric(self, index):
        for entry in index.iter_entries():
            stored = entry.key.range
            assert stored.lmin == -stored.lmax

    @pytest.mark.parametrize("value_buckets", [None, 8])
    @pytest.mark.parametrize("dataset", dataset_names())
    def test_symmetry_holds_on_every_dataset_shape(self, dataset, value_buckets):
        """What lets one λ_max threshold stand for the whole containment
        predicate (an anchored scan's range *is* its candidate set):
        stored keys and query keys alike have ``λ_min == -λ_max``, bit
        for bit, on all four paper shapes, with and without values."""
        bundle = load_dataset(dataset, scale=0.2, seed=42)
        index = FixIndex.build(
            bundle.store(),
            FixIndexConfig(
                depth_limit=bundle.depth_limit, value_buckets=value_buckets
            ),
        )
        assert index.entry_count > 0
        for entry in index.iter_entries():
            stored = entry.key.range
            assert stored.lmin == -stored.lmax
        queries = [q for d, _, q in TABLE2_QUERIES + FIGURE6_QUERIES if d == dataset]
        if dataset == "dblp" and value_buckets:
            queries += [q for _, q in FIGURE7_QUERIES]
        for query in queries:
            keys = build_plan(index, query).feature_keys
            assert keys
            for key in keys:
                assert key.range.lmin == -key.range.lmax, query

    def test_identical_query_results(self, index):
        for query in ("//section[para]", "//chapter//item", "/book/chapter"):
            twig = twig_of(query)
            truth = sorted(
                NodePointer(doc_id, element.node_id)
                for doc_id in index.store.doc_ids()
                for element in matching_elements(
                    twig, index.store.get_document(doc_id)
                )
            )
            assert FixQueryProcessor(index).query(query).results == truth

    @pytest.fixture(scope="class")
    def collection_index(self):
        """The same corpus as one unit per document (``depth_limit=0``):
        unit documents queue and flush through the same batch."""
        return FixIndex.build(_corpus(), FixIndexConfig(depth_limit=0))

    def test_batching_observability(self, index, collection_index):
        for built in (index, collection_index):
            stats = built.report.stats
            assert stats.eigen_batches > 0
            dispatched = sum(
                size * count for size, count in stats.eigen_batch_sizes.items()
            )
            assert stats.eigen_batches <= dispatched <= stats.eigen_computations

    def test_solver_stats_parity(self, index, collection_index):
        """Batching changes when eigenproblems are solved, not how many:
        every cache miss is solved exactly once, and every element (every
        document, in unit mode) gets exactly one entry."""
        for built in (index, collection_index):
            stats = built.report.stats
            assert stats.eigen_computations == (
                stats.cache_misses - stats.oversized_patterns
            )
        assert index.report.stats.entries == sum(
            index.store.get_document(doc_id).element_count()
            for doc_id in index.store.doc_ids()
        )
        assert collection_index.report.stats.entries == len(
            list(collection_index.store.doc_ids())
        )


class TestBatchedIncrementalMaintenance:
    def test_add_then_remove_document_roundtrip(self):
        store = _corpus(3)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=3))
        before = list(index.btree.items())
        doc = parse_xml("<book><chapter><section><para/></section></chapter></book>")
        doc_id = index.add_document(doc)
        assert len(index.btree) > len(before)
        index.remove_document(doc_id)
        assert list(index.btree.items()) == before
