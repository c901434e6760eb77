"""Tests for the two-phase query processor (Algorithm 2), metrics, and
the optimizer histogram — including end-to-end property tests that the
final answers equal the ground truth."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import encode_feature_key
from repro.core import (
    FeatureHistogram,
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    ShardedFixIndex,
    evaluate_pruning,
)
from repro.core.metrics import classify_selectivity, MetricAverages, true_result_units
from repro.core.optimizer import AccessPath
from repro.engine import NavigationalEngine
from repro.query import matching_elements, query_matches_document, twig_of
from repro.storage import PrimaryXMLStore
from repro.xmltree import Document, Element, parse_xml
from tests.test_structure_refine import index_scan_forced

SITE_XML = (
    "<site>"
    "<regions>"
    "<asia>"
    "<item><name/><mailbox><mail><to/><text/></mail></mailbox></item>"
    "<item><name/><payment/><mailbox><mail><to/></mail></mailbox></item>"
    "<item><payment/><quantity/></item>"
    "</asia>"
    "<europe><item><name/><payment/></item></europe>"
    "</regions>"
    "<people>"
    "<person><name/><emailaddress/><phone/></person>"
    "<person><name/><emailaddress/></person>"
    "<person><phone/></person>"
    "</people>"
    "</site>"
)


def site_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    store.add_document(parse_xml(SITE_XML))
    return store


def collection_store() -> PrimaryXMLStore:
    store = PrimaryXMLStore()
    for i in range(6):
        extra = "<keywords/>" if i % 2 else ""
        body = "<section><figure/></section>" if i % 3 else "<section/>"
        store.add_document(
            parse_xml(f"<article><prolog>{extra}</prolog><body>{body}</body></article>")
        )
    return store


SITE_QUERIES = [
    "//item[name]/mailbox",
    "//item[payment][quantity]",
    "//person[emailaddress][phone]",
    "//item/mailbox/mail",
    "//person[name]",
    "//item[missing]",
    "/site/people",
]


class TestDepthLimitedPipeline:
    @pytest.mark.parametrize("query", SITE_QUERIES)
    def test_results_equal_ground_truth(self, query):
        store = site_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index)
        document = store.get_document(0)
        twig = twig_of(query)
        expected = {e.node_id for e in matching_elements(twig, document)}
        got = {p.node_id for p in processor.query(twig).results}
        assert got == expected

    @pytest.mark.parametrize("query", SITE_QUERIES)
    def test_clustered_results_equal_unclustered(self, query):
        store = site_store()
        unclustered = FixQueryProcessor(
            FixIndex.build(store, FixIndexConfig(depth_limit=4))
        )
        clustered = FixQueryProcessor(
            FixIndex.build(store, FixIndexConfig(depth_limit=4, clustered=True))
        )
        left = {p.node_id for p in unclustered.query(query).results}
        right = {p.node_id for p in clustered.query(query).results}
        assert left == right

    def test_candidate_count_bounds_results(self):
        store = site_store()
        processor = FixQueryProcessor(
            FixIndex.build(store, FixIndexConfig(depth_limit=4))
        )
        result = processor.query("//item[name]/mailbox")
        assert result.result_count <= result.candidate_count
        assert result.false_positive_count >= 0

    def test_decomposed_query_uses_top_twig_only(self):
        store = site_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        processor = FixQueryProcessor(index)
        # //item[.//to] decomposes into //item (top) and //to.
        twig = twig_of("//item[.//to]")
        candidates = processor.prune(twig)
        item_entries = [e for e in index.iter_entries() if e.key.root_label == "item"]
        assert len(candidates) == len(item_entries)
        # Refinement against primary storage still gets the right answer.
        document = store.get_document(0)
        expected = {e.node_id for e in matching_elements(twig, document)}
        got = {p.node_id for p in processor.query(twig).results}
        assert got == expected

    def test_timings_recorded(self):
        processor = FixQueryProcessor(
            FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        )
        result = processor.query("//item/mailbox")
        assert result.prune_seconds >= 0.0
        assert result.refine_seconds >= 0.0


class TestCollectionPipeline:
    def test_results_are_matching_documents(self):
        store = collection_store()
        processor = FixQueryProcessor(
            FixIndex.build(store, FixIndexConfig(depth_limit=0))
        )
        twig = twig_of("//article[prolog/keywords]")
        expected = {
            doc_id
            for doc_id in store.doc_ids()
            if query_matches_document(twig, store.get_document(doc_id))
        }
        got = {p.doc_id for p in processor.query(twig).results}
        assert got == expected

    def test_decomposed_fragments_intersect(self):
        store = collection_store()
        processor = FixQueryProcessor(
            FixIndex.build(store, FixIndexConfig(depth_limit=0))
        )
        twig = twig_of("//article[.//figure][.//keywords]")
        expected = {
            doc_id
            for doc_id in store.doc_ids()
            if query_matches_document(twig, store.get_document(doc_id))
        }
        result = processor.query(twig)
        got = {p.doc_id for p in result.results}
        assert got == expected
        # Intersection must prune at least as hard as the weakest fragment.
        single = processor.prune(twig_of("//article[.//figure]"))
        assert result.candidate_count <= len(single)


class TestValuePipeline:
    def make(self, clustered: bool = False) -> FixQueryProcessor:
        store = PrimaryXMLStore()
        store.add_document(
            parse_xml(
                "<dblp>"
                "<proceedings><publisher>Springer</publisher><title/></proceedings>"
                "<proceedings><publisher>ACM</publisher><title/></proceedings>"
                "<inproceedings><year>1998</year><title/><author/></inproceedings>"
                "<inproceedings><year>2003</year><title/><author/></inproceedings>"
                "</dblp>"
            )
        )
        index = FixIndex.build(
            store,
            FixIndexConfig(depth_limit=4, value_buckets=16, clustered=clustered),
        )
        return FixQueryProcessor(index)

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize(
        "query, expected_count",
        [
            ('//proceedings[publisher = "Springer"][title]', 1),
            ('//inproceedings[year = "1998"][title]/author', 1),
            ('//proceedings[publisher = "Elsevier"]', 0),
        ],
    )
    def test_value_queries(self, clustered, query, expected_count):
        processor = self.make(clustered)
        assert processor.query(query).result_count == expected_count


class TestMetrics:
    def test_formulas(self):
        store = site_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        metrics = evaluate_pruning(index, "//person[emailaddress][phone]")
        assert metrics.ent == index.entry_count
        assert 0 <= metrics.rst <= metrics.cdt <= metrics.ent
        assert metrics.sel == pytest.approx(1 - metrics.rst / metrics.ent)
        assert metrics.pp == pytest.approx(1 - metrics.cdt / metrics.ent)
        assert metrics.fpr == pytest.approx(1 - metrics.rst / metrics.cdt)
        assert metrics.false_negatives == 0

    def test_empty_candidate_set(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        metrics = evaluate_pruning(index, "//zzz")
        assert metrics.cdt == 0 and metrics.rst == 0
        assert metrics.fpr == 0.0
        assert metrics.pp == 1.0

    def test_true_units_collection_mode(self):
        store = collection_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        units = true_result_units(index, twig_of("//article[prolog/keywords]"))
        assert all(p.node_id == 0 for p in units)

    def test_averages(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        averages = MetricAverages()
        for query in SITE_QUERIES[:4]:
            averages.add(evaluate_pruning(index, query))
        assert averages.queries == 4
        assert 0 <= averages.avg_pp <= 1
        assert 0 <= averages.avg_sel <= 1

    def test_classification(self):
        assert classify_selectivity(0.99) == "hi"
        assert classify_selectivity(0.5) == "md"
        assert classify_selectivity(0.1) == "lo"


class TestPluggableRefiner:
    """The paper: FIX 'can be coupled with any path processing operator
    that can perform query refinement'.  Both shipped engines must give
    identical final answers through the processor."""

    @pytest.mark.parametrize("query", SITE_QUERIES)
    @pytest.mark.parametrize("clustered", [False, True])
    def test_structural_join_refiner_equals_navigational(self, query, clustered):
        from repro.engine import StructuralJoinEngine

        store = site_store()
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=clustered)
        )
        navigational = FixQueryProcessor(index)
        join_based = FixQueryProcessor(
            index, refiner=StructuralJoinEngine(store)
        )
        left = {p.node_id for p in navigational.query(query).results}
        right = {p.node_id for p in join_based.query(query).results}
        assert left == right

    def test_structural_join_refine_methods(self):
        from repro.engine import StructuralJoinEngine

        store = site_store()
        engine = StructuralJoinEngine(store)
        document = store.get_document(0)
        item = next(document.root.find_all("item"))
        good = twig_of("//item[name]/mailbox").with_child_leading_axis()
        bad = twig_of("//item/zzz").with_child_leading_axis()
        assert engine.refine(good, item)
        assert not engine.refine(bad, item)
        assert engine.refine_group(good, document, [item.node_id]) == [True]
        assert engine.refine_group(bad, document, [item.node_id]) == [False]


class TestTheorem5GapInTheWild:
    """The Theorem 5 completeness gap (DESIGN.md §5a) observed on a
    minimal XMark-like recursive structure, as found by the Figure 5
    random-query harness.  This pins the *measured* behaviour of the
    algorithm as published: the metrics layer detects and counts the
    lost answer instead of silently reporting perfect completeness.

    Whether a particular instance sits on the lossy side of the gap is
    knife-edge-sensitive to the integer edge-weight codes, which the
    encoder assigns first-seen (document order).  The sibling order
    below — shallow ``listitem`` before the recursive one — makes
    ``(listitem, text)`` encode below ``(listitem, parlist)``, which
    puts this instance on the lossy side: the outer ``parlist``'s
    indexed λ_max is 6.325 against the query's 6.405."""

    RECURSIVE_XML = (
        "<site><description>"
        "<parlist>"
        "<listitem><text/></listitem>"
        "<listitem><parlist><listitem><text/></listitem></parlist></listitem>"
        "</parlist>"
        "</description></site>"
    )

    def test_recursive_parlist_false_negative_is_counted(self):
        store = PrimaryXMLStore()
        store.add_document(parse_xml(self.RECURSIVE_XML))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=6))
        metrics = evaluate_pruning(index, "//parlist/listitem/parlist/listitem")
        # The query truly matches (the outer parlist binds):
        assert metrics.rst == 1
        # ...but the published feature key prunes it:
        assert metrics.false_negatives == 1
        assert metrics.cdt < metrics.rst + metrics.cdt  # candidates miss it

    def test_the_structure_scan_returns_the_lost_answer(self):
        """The default processor judges every ``parlist`` class on the
        DAG instead of pruning by eigenvalue range, so the outer
        ``parlist`` comes back; the paper's FIX + NoK pairing (an
        explicit refiner, hence the index scan) still loses it."""
        store = PrimaryXMLStore()
        store.add_document(parse_xml(self.RECURSIVE_XML))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=6))
        query = "//parlist/listitem/parlist/listitem"
        outer = next(store.get_document(0).root.find_all("parlist"))
        result = FixQueryProcessor(index).query(query)
        assert result.access_path is AccessPath.STRUCTURE_SCAN
        assert [(p.doc_id, p.node_id) for p in result.results] == [(0, outer.node_id)]
        paired = FixQueryProcessor(index, refiner=NavigationalEngine(store)).query(query)
        assert paired.access_path is AccessPath.INDEX_SCAN
        assert paired.results == []

    def test_a_label_no_element_carries_is_judged_nowhere(self):
        """On a collection a ``//``-leading twig may bind anywhere in a
        unit, so the index scan offers every document; the structure
        scan sees that no vertex carries the label and judges none."""
        store = collection_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        processor = FixQueryProcessor(index)
        assert len(processor.prune("//zz")) == store.document_count
        result = processor.query("//zz")
        assert result.access_path is AccessPath.STRUCTURE_SCAN
        assert result.candidate_vertices == result.candidate_count == 0
        assert result.dag_verdicts == result.dag_reused == 0
        assert result.results == []

    def test_nonrecursive_variant_is_complete(self):
        # Remove the sibling that shares the deep class and the extra
        # bisimulation edge disappears; completeness holds again.
        xml = (
            "<site><description><parlist>"
            "<listitem><parlist><listitem><text/></listitem></parlist></listitem>"
            "</parlist></description></site>"
        )
        store = PrimaryXMLStore()
        store.add_document(parse_xml(xml))
        index = FixIndex.build(store, FixIndexConfig(depth_limit=6))
        metrics = evaluate_pruning(index, "//parlist/listitem/parlist/listitem")
        assert metrics.rst == 1
        assert metrics.false_negatives == 0


class TestHistogram:
    def test_estimates_bracket_exact_counts(self):
        store = site_store()
        index = FixIndex.build(store, FixIndexConfig(depth_limit=4))
        histogram = FeatureHistogram(index, buckets=16)
        for query in ["//item[name]", "//person[phone]", "//item/mailbox/mail"]:
            key = index.query_features(twig_of(query))
            exact = sum(1 for _ in index.candidates_for_key(key))
            estimate = histogram.estimate_candidates(key)
            # Equi-width histograms are approximate; require the estimate
            # to be within one bucket's worth of the truth.
            label_total = sum(
                1 for e in index.iter_entries() if e.key.root_label == key.root_label
            )
            assert abs(estimate - exact) <= max(2.0, label_total / 4)

    def test_unknown_label_estimates_zero(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        histogram = FeatureHistogram(index)
        key = index.query_features(twig_of("//zzz"))
        assert histogram.estimate_candidates(key) == 0.0

    def test_labels_listing(self):
        index = FixIndex.build(site_store(), FixIndexConfig(depth_limit=4))
        histogram = FeatureHistogram(index)
        assert "item" in histogram.labels()


# --------------------------------------------------------------------- #
# End-to-end property: completeness on recursion-free data
# --------------------------------------------------------------------- #

_LABELS = ["r", "s", "t", "u", "v", "w"]


@st.composite
def stratified_documents(draw) -> Document:
    """Random trees whose labels are stratified by level, so no label
    repeats along any root-to-leaf path — the regime where the paper's
    Theorem 5 argument is airtight (see DESIGN.md §5a)."""
    root = Element(_LABELS[0])
    frontier = [root]
    for level in range(1, len(_LABELS)):
        next_frontier: list[Element] = []
        for parent in frontier:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                next_frontier.append(parent.add_element(_LABELS[level]))
        if not next_frontier:
            break
        frontier = next_frontier[:6]
    return Document(root)


@st.composite
def stratified_twigs(draw) -> str:
    """Child-axis twigs over the stratified alphabet, starting at a
    random level."""
    start = draw(st.integers(min_value=0, max_value=3))
    parts = ["//", _LABELS[start]]
    level = start
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if level + 1 >= len(_LABELS):
            break
        level += 1
        if draw(st.booleans()):
            parts.append(f"[{_LABELS[level]}]")
        else:
            parts.extend(["/", _LABELS[level]])
    return "".join(parts)


class TestCompletenessProperty:
    @settings(max_examples=50, deadline=None)
    @given(stratified_documents(), stratified_twigs(), st.booleans())
    def test_no_false_negatives_and_exact_results(self, document, query, clustered):
        store = PrimaryXMLStore()
        store.add_document(document)
        index = FixIndex.build(
            store, FixIndexConfig(depth_limit=4, clustered=clustered)
        )
        twig = twig_of(query)
        if not index.covers(twig):
            return
        metrics = evaluate_pruning(index, twig)
        assert metrics.false_negatives == 0
        processor = FixQueryProcessor(index)
        got = {p.node_id for p in processor.query(twig).results}
        expected = {e.node_id for e in matching_elements(twig, document)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(stratified_documents(), stratified_twigs())
    def test_collection_mode_completeness(self, document, query):
        store = PrimaryXMLStore()
        store.add_document(document)
        index = FixIndex.build(store, FixIndexConfig(depth_limit=0))
        twig = twig_of(query)
        metrics = evaluate_pruning(index, twig)
        assert metrics.false_negatives == 0


# --------------------------------------------------------------------- #
# Candidate order: prune() against the order written out longhand
# --------------------------------------------------------------------- #

_ALPHABET = ["a", "b", "c", "d", "e"]


def random_store(seed: int, documents: int = 8) -> PrimaryXMLStore:
    """Random small trees, labels repeating along paths (so λ ranges
    vary and keys collide across documents)."""
    rng = random.Random(seed)

    def build(level: int) -> Element:
        element = Element(rng.choice(_ALPHABET))
        if level < 4:
            for _ in range(rng.randint(0, 3 if level < 2 else 2)):
                element.append(build(level + 1))
        return element

    store = PrimaryXMLStore()
    for _ in range(documents):
        store.add_document(Document(build(1)))
    return store


def random_queries(seed: int, count: int) -> list[str]:
    """Random twigs and decomposable paths, shallow enough for a
    depth-limit-4 index to cover."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        parts = [rng.choice(["//", "/"]), rng.choice(_ALPHABET)]
        for _ in range(rng.randint(0, 2)):
            connector = rng.choice(["/", "//", "["])
            label = rng.choice(_ALPHABET)
            parts.extend([f"[{label}]"] if connector == "[" else [connector, label])
        queries.append("".join(parts))
    return queries + ["//b", "//a[.//b]", "//a[.//b][.//c]", "/a/b"]


def longhand_prune(index: FixIndex, plan) -> list[tuple[bytes, object]]:
    """What ``prune`` must return, from the scan and the documented
    order alone: one fragment sorts by (re-encoded key, pointer); several
    intersect on pointers and sort by pointer; then the root filter."""
    streams = [
        list(index.candidates_for_key(key, anchored=anchored))
        for key, anchored in zip(plan.feature_keys, plan.anchored)
    ]

    def encoded(entry):
        key = entry.key
        return encode_feature_key(key.root_label, key.range.lmax, key.range.lmin)

    if len(streams) == 1:
        entries = sorted(streams[0], key=lambda e: (encoded(e), e.pointer))
    else:
        common = set.intersection(*({e.pointer for e in s} for s in streams))
        entries = sorted(
            (e for e in streams[0] if e.pointer in common),
            key=lambda e: e.pointer,
        )
    if plan.root_filter:
        entries = [e for e in entries if e.pointer.node_id == 0]
    return [(encoded(e), e.pointer) for e in entries]


class TestCandidateOrder:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    @pytest.mark.parametrize("depth_limit", [0, 4])
    def test_prune_order_plain_scatter_and_pushdown(self, seed, depth_limit):
        plain = FixIndex.build(
            random_store(seed), FixIndexConfig(depth_limit=depth_limit)
        )
        sharded = ShardedFixIndex.build(
            random_store(seed), FixIndexConfig(depth_limit=depth_limit, shards=4)
        )
        reference = FixQueryProcessor(plain)
        scatter = FixQueryProcessor(sharded)
        pushdown = FixQueryProcessor(sharded, pushdown=True)
        compared = 0
        for query in random_queries(seed * 7 + 1, 25):
            twig = twig_of(query)
            if not plain.covers(twig):
                continue
            expected = longhand_prune(plain, reference.plan_for(twig))
            for processor in (reference, scatter, pushdown):
                got = [(e.raw_key, e.pointer) for e in processor.prune(twig)]
                assert got == expected, query
            scanned = reference.query(twig)
            for processor in (scatter, pushdown):
                assert processor.query(twig).results == scanned.results, query
            # On the index scan candidate_count is what prune() returns.
            with index_scan_forced():
                answer = reference.query(twig)
                assert answer.candidate_count == len(expected), query
                for processor in (scatter, pushdown):
                    result = processor.query(twig)
                    assert result.results == answer.results, query
                    assert result.candidate_count == len(expected), query
            assert pushdown.query(twig).pushdown
            compared += 1
        assert compared > 10
