"""Answers off the structure DAG (DESIGN.md §14) against the oracle.

One differential test over random collections and random twigs —
branches, interior ``//``, ``/``- and ``//``-leading, value literals —
across ``depth_limit`` 0 / 3 x ``value_buckets`` None / 8 x shards 1 / 4
x workers 1 / 2 x push-down off / on, fresh, after add / remove churn
and after save + load, with one oracle per access path: where the rule
picks the structure scan, the processor's answer equals the whole
``repro.query.match`` ground truth — no pruning applied, so nothing
lost to DESIGN.md §5a's gap, and no coverage asked, so a twig deeper
than the depth limit is answered too; on the index scan (value literals,
structural twigs with the index scan forced, and
``refiner=NavigationalEngine(index.store)``, which always takes it) it
equals that truth over the candidates pruning offered (pruning's own
misses are §5a's subject, not this file's).  After every stage the
per-vertex extents are the inverse of the slots.  The verdict recursion
has three copies — ``TwigVerdicts``, ``NavigationalEngine._verify``,
``FBEvaluator._matches`` — and all three are pinned to that one oracle
here.

Then what only the DAG path promises: a sidecar whose bytes do not
depend on the worker count or on a save/load round trip, zero
``parse_xml`` calls for a structural query, a structure that moves only
inside the epoch window (staged outside it, absorbed inside), typed
errors for a damaged file, and an index directory without the file
getting its structure back at load.
"""

from __future__ import annotations

import os
import contextlib
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.processor as processor_module
import repro.storage.primary as primary
from repro.cli import main as cli_main
from repro.core import (
    FixIndex,
    FixIndexConfig,
    FixQueryProcessor,
    ShardedFixIndex,
    load_index,
    save_index,
    verify_index,
)
from repro.core.construction import GeneratorSettings
from repro.core.optimizer import AccessPath
from repro.core.structure import (
    STRUCTURE_FILE,
    StructureDag,
    TwigVerdicts,
    pack_pointer,
)
from repro.datasets import RandomQueryGenerator, load_dataset
from repro.engine import NavigationalEngine
from repro.errors import IndexCoverageError, StorageError
from repro.fb import FBEvaluator, FBIndex
from repro.query import matching_elements, query_matches_document, twig_of
from repro.query.ast import Axis
from repro.query.match import matches_at
from repro.spectral import EdgeLabelEncoder
from repro.storage import NodePointer, PrimaryXMLStore
from repro.xmltree import parse_xml

# --------------------------------------------------------------------- #
# Random documents and twigs
# --------------------------------------------------------------------- #

_LABELS = st.sampled_from("abcd")
_TEXTS = st.sampled_from(["x", "y", "z"])

#: a document tree as (label, text or None, children).
_TREES = st.recursive(
    st.tuples(_LABELS, st.none() | _TEXTS, st.just([])),
    lambda children: st.tuples(
        _LABELS, st.none() | _TEXTS, st.lists(children, max_size=3)
    ),
    max_leaves=10,
)


def _xml(tree) -> str:
    label, text, children = tree
    return f"<{label}>{text or ''}{''.join(map(_xml, children))}</{label}>"


_DOCUMENTS = _TREES.map(_xml)
_AXES = st.sampled_from(["/", "//"])

#: a twig node as (label, literal or None, [(axis, node), ...]).
_TWIGS = st.recursive(
    st.tuples(_LABELS, st.none() | _TEXTS, st.just([])),
    lambda nodes: st.tuples(
        _LABELS, st.none(), st.lists(st.tuples(_AXES, nodes), min_size=1, max_size=2)
    ),
    max_leaves=4,
)


def _path(node, in_predicate: bool) -> tuple[str, str | None]:
    """The step text of ``node`` and the literal of its path's last
    step: every edge but the last is a predicate, the last continues
    the path, and a literal is only written after a predicate path."""
    label, literal, edges = node
    text = label
    for axis, child in edges[:-1]:
        inner, value = _path(child, True)
        equals = f' = "{value}"' if value else ""
        text += f"[{'.//' if axis == '//' else ''}{inner}{equals}]"
    if not edges:
        return text, literal if in_predicate else None
    axis, child = edges[-1]
    inner, value = _path(child, in_predicate)
    return text + axis + inner, value


_QUERIES = st.tuples(_AXES, _TWIGS).map(
    lambda drawn: drawn[0] + _path(drawn[1], False)[0]
)


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


def _truth(index, processor: FixQueryProcessor, query: str) -> list[NodePointer]:
    """The candidates ``processor`` prunes for ``query`` that
    ``repro.query.match`` accepts, in pointer order."""
    twig = twig_of(query)
    accepted = []
    for pointer in sorted({entry.pointer for entry in processor.prune(query)}):
        document = index.store.get_document(pointer.doc_id)
        if index.config.depth_limit <= 0:
            ok = query_matches_document(twig, document)
        else:
            # Algorithm 2, lines 7-8: the candidate's own element binds
            # the twig's root (pruning already kept only document roots
            # for a '/'-leading twig).
            ok = matches_at(twig.root, document.element_at(pointer.node_id))
        if ok:
            accepted.append(pointer)
    return accepted


def _full_truth(index, query: str) -> list[NodePointer]:
    """Every unit ``repro.query.match`` accepts, in pointer order: a
    document root per matching document on a collection index, every
    element the twig root binds to otherwise."""
    twig = twig_of(query)
    found = []
    for doc_id in sorted(index.store.doc_ids()):
        document = index.store.get_document(doc_id)
        if index.config.depth_limit <= 0:
            if query_matches_document(twig, document):
                found.append(NodePointer(doc_id, document.root.node_id))
        else:
            found.extend(
                NodePointer(doc_id, element.node_id)
                for element in matching_elements(twig, document)
            )
    return found


def _expected(index, processor, query: str, result) -> list[NodePointer]:
    """The oracle of the path ``result`` took: the whole truth for a
    structure scan, the truth over pruning's candidates for an index
    scan."""
    if result.access_path is AccessPath.STRUCTURE_SCAN:
        return _full_truth(index, query)
    return _truth(index, processor, query)


@contextlib.contextmanager
def index_scan_forced():
    """Every query inside takes the index scan, as the rule sends a
    value twig there: the DAG-decided refinement of a structural twig,
    which the rule itself never picks, stays under test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            processor_module,
            "choose_access_path",
            lambda twig, explicit_refiner: AccessPath.INDEX_SCAN,
        )
        yield


def _check(index, queries, workers: int, pushdown: bool) -> int:
    """Every query, one oracle per access path: the default processor's
    structure scan equals the whole truth at any depth, without a
    fetch; where the index covers the query, its index scan (a value
    twig, or a structural one with the index scan forced) and the
    explicit navigational refiner's equal the truth over pruning's
    candidates, and the DAG decides a structural twig without a fetch on
    either path; where it does not cover a pruning fragment, both index
    scans raise ``IndexCoverageError``.  Returns how many queries were
    coverable."""
    decided = FixQueryProcessor(index, workers=workers, pushdown=pushdown)
    fetching = FixQueryProcessor(
        index,
        refiner=NavigationalEngine(index.store),
        workers=workers,
        pushdown=pushdown,
    )
    covered = 0
    for query in queries:
        structural = not twig_of(query).has_values()
        if structural:
            answer = decided.query(query)
            assert answer.access_path is AccessPath.STRUCTURE_SCAN, query
            assert answer.results == _full_truth(index, query), query
            assert answer.documents_fetched == 0, query
        fragments = decided.plan_for(query).fragments
        if not all(index.covers(fragment) for fragment in fragments):
            for processor in (decided, fetching):
                with index_scan_forced(), pytest.raises(IndexCoverageError):
                    processor.query(query)
            continue
        covered += 1
        truth = _truth(index, decided, query)
        if structural:
            with index_scan_forced():
                indexed = decided.query(query)
            assert indexed.access_path is AccessPath.INDEX_SCAN, query
            assert indexed.results == truth, query
            assert indexed.documents_fetched == 0, query
        else:
            answer = decided.query(query)
            assert answer.access_path is AccessPath.INDEX_SCAN, query
            assert answer.results == truth, query
        paired = fetching.query(query)
        assert paired.access_path is AccessPath.INDEX_SCAN, query
        assert paired.results == truth, query
    return covered


def _assert_extents_invert_slots(index) -> None:
    """Each DAG's extents (and per-label carrier sets) are exactly
    what its slot arrays give."""
    for shard in getattr(index, "shards", [index]):
        dag = shard.structure
        rebuilt: dict[int, list[int]] = {}
        for doc_id in dag.doc_ids():
            for node_id, slot in enumerate(dag.slots_of(doc_id)):
                if slot:
                    rebuilt.setdefault(slot - 1, []).append(pack_pointer(doc_id, node_id))
        assert {vertex: list(extent) for vertex, extent in dag.extents().items()} == {
            vertex: sorted(pointers) for vertex, pointers in rebuilt.items()
        }
        by_label: dict[str, set[int]] = {}
        for vertex in rebuilt:
            by_label.setdefault(dag.label_of(vertex), set()).add(vertex)
        assert {label: set(dag.carriers(label)) for label in dag.labels} == {
            label: by_label.get(label, set()) for label in dag.labels
        }


def _build(sources, config):
    if config.shards > 1:
        return ShardedFixIndex.build_from_sources(sources, config)
    store = PrimaryXMLStore()
    for source in sources:
        store.add_document(parse_xml(source))
    return FixIndex.build(store, config)


def _save_and_reload(index, directory: str):
    if isinstance(index, ShardedFixIndex):
        index.save(directory)
        return ShardedFixIndex.load(directory)
    index.store.save(os.path.join(directory, "store"))
    save_index(index, directory)
    store = PrimaryXMLStore.load(os.path.join(directory, "store"))
    return load_index(directory, store)


def _close(index) -> None:
    for shard in getattr(index, "shards", [index]):
        shard.btree.pager.close()
        shard.store.pager.close()


GRID = [
    pytest.param(depth, buckets, shards, workers, pushdown,
                 id=f"L{depth}-b{buckets}-s{shards}-w{workers}-{'push' if pushdown else 'gather'}")
    for depth in (0, 3)
    for buckets in (None, 8)
    for shards in (1, 4)
    for workers in (1, 2)
    for pushdown in (False, True)
]


@pytest.mark.parametrize("depth,buckets,shards,workers,pushdown", GRID)
@settings(max_examples=10, deadline=None)
@given(
    sources=st.lists(_DOCUMENTS, min_size=2, max_size=5),
    added=st.lists(_DOCUMENTS, min_size=1, max_size=2),
    removed=st.lists(st.integers(min_value=0, max_value=6), max_size=2, unique=True),
    queries=st.lists(_QUERIES, min_size=1, max_size=4, unique=True),
)
def test_dag_refinement_equals_the_oracle(
    depth, buckets, shards, workers, pushdown, sources, added, removed, queries
):
    config = FixIndexConfig(
        depth_limit=depth,
        value_buckets=buckets,
        shards=shards,
        workers=workers,
        shard_workers=workers,
    )
    index = _build(sources, config)
    _assert_extents_invert_slots(index)
    _check(index, queries, workers, pushdown)

    for source in added:
        index.add_document(parse_xml(source))
    live = list(index.store.doc_ids())
    for position in removed:
        if position < len(live) and index.store.document_count > 1:
            index.remove_document(live[position])
    _assert_extents_invert_slots(index)
    _check(index, queries, workers, pushdown)

    with tempfile.TemporaryDirectory() as directory:
        reloaded = _save_and_reload(index, directory)
        try:
            assert all(
                shard.structure is not None
                for shard in getattr(reloaded, "shards", [reloaded])
            )
            _assert_extents_invert_slots(reloaded)
            _check(reloaded, queries, workers, pushdown)
        finally:
            _close(reloaded)


@pytest.mark.parametrize("shards", (1, 4))
def test_twigs_deeper_than_the_limit_are_answered_on_the_dag(shards):
    """Coverage bounds the patterns the B-tree keys, not the DAG: random
    twigs deeper than the depth limit, drawn from a Treebank-shaped
    document, are answered exactly as ``repro.query.match`` answers
    them — while the index scan still refuses every one."""
    bundle = load_dataset("treebank", scale=0.02, seed=42)
    config = FixIndexConfig(depth_limit=6, shards=shards)
    if shards > 1:
        index = ShardedFixIndex.build(bundle.store(), config)
    else:
        index = FixIndex.build(bundle.store(), config)
    generator = RandomQueryGenerator(bundle.documents, seed=7, max_path_length=10)
    deep: list[str] = []
    for _ in range(500):
        generated = generator.generate()
        if generated.twig.depth() > 6 and generated.text not in deep:
            deep.append(generated.text)
        if len(deep) == 20:
            break
    assert len(deep) == 20
    processor = FixQueryProcessor(index)
    answered = 0
    for query in deep:
        result = processor.query(query)
        assert result.access_path is AccessPath.STRUCTURE_SCAN, query
        assert result.results == _full_truth(index, query), query
        answered += bool(result.results)
        with index_scan_forced(), pytest.raises(IndexCoverageError):
            processor.query(query)
    assert answered >= 10


@settings(max_examples=150, deadline=None)
@given(source=_DOCUMENTS, query=_QUERIES, buckets=st.sampled_from([None, 8]))
def test_the_three_verdict_recursions_agree(source, query, buckets):
    """``TwigVerdicts`` on the DAG, the navigational engine on the tree
    and the F&B evaluator on the block tree bind a twig's root to the
    same elements as ``repro.query.match`` — the DAG ignoring value
    literals, so there it is the literal-free twig that must agree and
    the full one that must be contained."""
    document = parse_xml(source)
    twig = twig_of(query)
    truth = [element.node_id for element in matching_elements(twig, document)]

    engine = NavigationalEngine(PrimaryXMLStore())
    assert [e.node_id for e in engine.evaluate_document(twig, document)] == truth
    if not twig.has_values():
        assert FBEvaluator(FBIndex(document)).evaluate(twig) == truth

    # Subpattern mode records every element, so each can be asked.
    dag = StructureDag()
    generator = GeneratorSettings(
        depth_limit=1, value_buckets=buckets, max_pattern_vertices=800
    ).generator(EdgeLabelEncoder(), structure=dag)
    list(generator.entries_for(document, 0))
    judge = TwigVerdicts(dag, twig.with_child_leading_axis())
    if twig.leading_axis is Axis.CHILD:
        asked = [document.root]
    else:
        asked = list(document.elements())
    accepted = [
        element.node_id
        for element in asked
        if judge.accepts(dag.vertex_of(0, element.node_id))
    ]
    if twig.has_values():
        assert set(truth) <= set(accepted)
    else:
        assert accepted == truth
    # A '//'-leading twig asked of a unit: anywhere at or below its root.
    anywhere = TwigVerdicts(dag, twig).accepts(dag.vertex_of(0, 0))
    assert anywhere == bool(accepted)
    assert judge.computed <= dag.vertex_count * len(judge._label)


# --------------------------------------------------------------------- #
# (a) Sidecar bytes
# --------------------------------------------------------------------- #


def _xbench_sources(scale: float = 0.06, seed: int = 42) -> list[str]:
    from repro.xmltree import serialize_fragment

    bundle = load_dataset("xbench", scale=scale, seed=seed)
    return [serialize_fragment(document.root) for document in bundle.documents]


@pytest.mark.parametrize("depth", (0, 4))
@pytest.mark.parametrize("shards", (1, 4))
def test_sidecar_bytes_ignore_workers_and_round_trips(tmp_path, depth, shards):
    sources = _xbench_sources()
    sidecars = []
    for workers in (1, 2):
        index = _build(
            sources,
            FixIndexConfig(
                depth_limit=depth, shards=shards, workers=workers,
                shard_workers=workers,
            ),
        )
        directory = str(tmp_path / f"w{workers}")
        reloaded = _save_and_reload(index, directory)
        again = str(tmp_path / f"w{workers}-again")
        _save_and_reload(reloaded, again)
        for first, second in ((directory, again),):
            files = _sidecars(first, shards)
            assert files == _sidecars(second, shards)
        sidecars.append(files)
        assert [s.structure.to_bytes() for s in getattr(index, "shards", [index])] == files
    assert sidecars[0] == sidecars[1]


def _sidecars(directory: str, shards: int) -> list[bytes]:
    if shards > 1:
        paths = [
            os.path.join(directory, f"shard-{shard}", STRUCTURE_FILE)
            for shard in range(shards)
        ]
    else:
        paths = [os.path.join(directory, STRUCTURE_FILE)]
    contents = []
    for path in paths:
        with open(path, "rb") as handle:
            contents.append(handle.read())
    return contents


def test_saved_structure_holds_only_live_vertices(tmp_path):
    sources = _xbench_sources()
    index = _build(sources, FixIndexConfig(depth_limit=0))
    grown = index.structure.vertex_count
    extra = index.add_document(parse_xml("<odd><one><two><three/></two></one></odd>"))
    assert index.structure.vertex_count == grown + 4
    index.remove_document(extra)
    # Append-only in memory; the file leaves the dead vertices out.
    assert index.structure.vertex_count == grown + 4
    saved = StructureDag.from_bytes(index.structure.to_bytes())
    fresh = _build(sources, FixIndexConfig(depth_limit=0))
    assert saved.vertex_count == grown
    assert saved.to_bytes() == fresh.structure.to_bytes()
    assert verify_index(index).ok


# --------------------------------------------------------------------- #
# (b) Fetches
# --------------------------------------------------------------------- #


def test_structural_queries_parse_nothing(tmp_path, monkeypatch):
    """File-backed, reopened, caches far smaller than the collection: a
    structural query — a structure scan — parses no document at all; a
    value query parses exactly the documents whose structure passed."""
    sources = _xbench_sources(scale=0.1)
    index = _build(sources, FixIndexConfig(depth_limit=0, value_buckets=8))
    directory = str(tmp_path / "index")
    index.store.save(os.path.join(directory, "store"))
    save_index(index, directory)
    store = PrimaryXMLStore.load(
        os.path.join(directory, "store"), cache_documents=2, page_cache_pages=2
    )
    reopened = load_index(directory, store, page_cache_pages=2)
    parses = [0]
    real = primary.parse_xml

    def counting(*args, **kwargs):
        parses[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(primary, "parse_xml", counting)
    processor = FixQueryProcessor(reopened)
    for query in ("//article/prolog/title", "//prolog[dateline]//name", "/article//p"):
        result = processor.query(query)
        assert result.access_path is AccessPath.STRUCTURE_SCAN
        assert result.result_count > 0
        assert result.documents_fetched == result.fetches_avoided == 0
        assert result.dag_verdicts <= reopened.structure.vertex_count * 4
        # The index scan decides the same twig on the DAG: every
        # candidate's fetch is avoided.
        with index_scan_forced():
            indexed = processor.query(query)
        assert indexed.access_path is AccessPath.INDEX_SCAN
        assert set(indexed.results) <= set(result.results)
        assert indexed.documents_fetched == 0
        assert indexed.fetches_avoided == indexed.candidate_count
        assert indexed.dag_verdicts <= reopened.structure.vertex_count * 4
    assert parses[0] == 0

    year = next(
        next(iter(element.text_children())).value
        for source in sources
        for element in parse_xml(source).elements()
        if element.tag == "dateline"
    )
    valued = f'//prolog[dateline = "{year}"]'
    result = processor.query(valued)
    assert result.access_path is AccessPath.INDEX_SCAN
    structural = processor.query("//prolog[dateline]")
    offered = {entry.pointer for entry in processor.prune(valued)}
    passed = offered & set(structural.results)
    assert 0 < result.result_count < len(passed)
    assert result.documents_fetched == parses[0] == len(passed)
    assert result.fetches_avoided == len(offered) - len(passed)
    _close(reopened)


# --------------------------------------------------------------------- #
# (c) The structure moves inside the epoch window
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", (1, 4))
def test_a_pinned_query_sees_the_pre_mutation_structure(shards):
    """On either access path a query answers off the structure its
    epoch pinned while a writer waits for it: the structure scan is
    held once it has its candidate vertices, the index scan once it
    has pruned."""
    held = _query_with_a_writer_queued(shards, "_choose_path")
    assert held is AccessPath.STRUCTURE_SCAN
    with index_scan_forced():
        held = _query_with_a_writer_queued(shards, "_pruned_candidates")
    assert held is AccessPath.INDEX_SCAN


def _query_with_a_writer_queued(shards: int, hooked: str) -> AccessPath:
    """Run ``//b[c]`` with a remove + add queued behind its pin at
    ``processor.<hooked>``; check the answers before and after, and
    return the path the held query took."""
    sources = [
        "<a><b><c/></b></a>", "<a><b/></a>", "<a><b><c/><d/></b></a>", "<e><b><c/></b></e>",
    ]
    index = _build(sources, FixIndexConfig(depth_limit=0, shards=shards))
    processor = FixQueryProcessor(index)
    query = "//b[c]"
    before = _full_truth(index, query)
    victim, newcomer = before[0].doc_id, len(sources)
    done = threading.Event()

    def mutate():
        index.remove_document(victim)
        index.add_document(parse_xml("<a><b><c/></b><f/></a>"))
        done.set()

    original = getattr(processor, hooked)
    writer = threading.Thread(target=mutate)

    def run_then_let_the_writer_queue(*args):
        # Inside the query's pin: the writer must wait for it.
        found = original(*args)
        writer.start()
        for _ in range(2000):
            if index.epochs.writers_waiting:
                break
            threading.Event().wait(0.001)
        assert index.epochs.writers_waiting == 1
        assert index.structure_of(victim).slots_of(victim) is not None
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(processor, hooked, run_then_let_the_writer_queue)
        answer = processor.query(query)
    assert answer.results == before
    writer.join(timeout=30)
    assert done.is_set()
    after = processor.query(query).results
    assert after == _full_truth(index, query)
    assert victim not in {p.doc_id for p in after}
    assert newcomer in {p.doc_id for p in after}
    assert all(
        shard.structure.slots_of(victim) is None
        for shard in getattr(index, "shards", [index])
    )
    return answer.access_path


# --------------------------------------------------------------------- #
# The file: typed errors, verify, and directories without one
# --------------------------------------------------------------------- #


@pytest.fixture()
def saved(tmp_path):
    sources = _xbench_sources()
    index = _build(sources, FixIndexConfig(depth_limit=3))
    directory = str(tmp_path / "index")
    index.store.save(os.path.join(directory, "store"))
    save_index(index, directory)
    return directory


def _reload(directory: str) -> FixIndex:
    store = PrimaryXMLStore.load(os.path.join(directory, "store"))
    return load_index(directory, store)


def test_damaged_structure_files_raise_storage_errors(saved):
    path = os.path.join(saved, STRUCTURE_FILE)
    with open(path, "rb") as handle:
        good = handle.read()
    StructureDag.from_bytes(good)
    damaged = {
        "empty": b"",
        "header only": good[:20],
        "truncated": good[:-7],
        "trailing bytes": good + b"\x00",
        "bad magic": b"X" + good[1:],
        "other version": good[:8] + b"\x02\x00" + good[10:],
        "count changed": good[:16] + bytes([good[16] ^ 1]) + good[17:],
    }
    for position in range(0, len(good), max(1, len(good) // 40)):
        flipped = bytearray(good)
        flipped[position] ^= 0x10
        damaged[f"bit flip at {position}"] = bytes(flipped)
    for what, data in damaged.items():
        with pytest.raises(StorageError):
            StructureDag.from_bytes(data)
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(StorageError, match="structure"):
            _reload(saved)
        assert cli_main(["query", saved, "//article"]) == 1, what


def test_a_checksummed_file_that_is_not_a_dag_is_refused():
    """A cycle or a forward edge would make a verdict loop or lie; a
    well-checksummed file describing one is still refused."""
    dag = StructureDag()
    leaf = dag.intern(dag.add_label("a"), ())
    dag.intern(dag.add_label("b"), (leaf,))
    dag._slots[0] = __import__("array").array("I", [2])
    dag.child_ids[0] = 1  # b -> b
    with pytest.raises(StorageError, match="invalid child"):
        StructureDag.from_bytes(dag.to_bytes())


def test_verify_names_the_document_whose_structure_is_wrong(saved, capsys):
    assert cli_main(["verify", saved]) == 0
    index = _reload(saved)
    # Swap the vertices recorded for two of document 3's elements.
    slots = index.structure.slots_of(3)
    other = next(
        node for node in range(1, len(slots)) if slots[node] not in (0, slots[0])
    )
    slots[0], slots[other] = slots[other], slots[0]
    report = verify_index(index)
    assert not report.ok
    assert any(problem.startswith("document 3:") for problem in report.problems)
    _close(index)


def test_a_directory_without_the_file_still_answers(saved, capsys, monkeypatch):
    """A directory saved before the sidecar existed gets its structure
    back at load — the one a fresh build records — and from then on
    answers like any other: off the DAG, parsing nothing."""
    with_structure = _reload(saved)
    queries = ["//article/prolog", "//prolog[dateline]/title", "//section//p"]
    expected = [FixQueryProcessor(with_structure).query(q).results for q in queries]
    recorded = with_structure.structure.to_bytes()
    _close(with_structure)

    os.remove(os.path.join(saved, STRUCTURE_FILE))
    legacy = _reload(saved)
    assert legacy.structure.to_bytes() == recorded
    fresh = FixIndex.build(legacy.store, legacy.config)
    assert legacy.structure.to_bytes() == fresh.structure.to_bytes()
    parses = [0]
    real = primary.parse_xml

    def counting(*args, **kwargs):
        parses[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(primary, "parse_xml", counting)
    processor = FixQueryProcessor(legacy)
    for query, want in zip(queries, expected):
        result = processor.query(query)
        assert result.results == want
        assert result.documents_fetched == 0 and result.dag_verdicts > 0
    assert parses[0] == 0
    monkeypatch.undo()
    for query in queries:
        result = processor.query(query)
        assert result.results == _expected(legacy, processor, query, result)
    assert verify_index(legacy).ok
    assert cli_main(["stats", saved]) == 0
    assert "vertices" in capsys.readouterr().out
    assert cli_main(["verify", saved]) == 0
    # Mutations land in the restored structure; the next save writes it.
    added = legacy.add_document(parse_xml("<article><prolog><title/></prolog></article>"))
    legacy.store.save(os.path.join(saved, "store"))
    save_index(legacy, saved)
    _close(legacy)
    assert os.path.exists(os.path.join(saved, STRUCTURE_FILE))
    restored = _reload(saved)
    assert restored.structure.slots_of(added) is not None
    assert verify_index(restored).ok
    fresh = FixIndex.build(restored.store, restored.config)
    assert restored.structure.to_bytes() == fresh.structure.to_bytes()
    _close(restored)


@pytest.mark.parametrize("dataset,depth", [("xbench", 0), ("treebank", 4)])
def test_staged_structures_are_absorbed_as_recording_in_place_would(dataset, depth):
    """A mutation stages its document's structure in a private DAG and
    the apply absorbs it; after add / remove / add churn the index's
    DAG is byte for byte the one that recording every document straight
    into it gives, and every answer is the oracle's."""
    from repro.xmltree import serialize_fragment

    def sources_of(scale, seed):
        bundle = load_dataset(dataset, scale=scale, seed=seed)
        return [serialize_fragment(document.root) for document in bundle.documents]

    sources = sources_of(0.04, 42)
    pool = [source for seed in (44, 45, 46) for source in sources_of(0.02, seed)][:6]
    config = FixIndexConfig(depth_limit=depth)
    index = _build(sources, config)
    reference = StructureDag()
    recorder = GeneratorSettings.from_config(config).generator(
        EdgeLabelEncoder(), structure=reference
    )
    for doc_id, source in enumerate(sources):
        list(recorder.entries_for(parse_xml(source), doc_id))
    assert index.structure.to_bytes() == reference.to_bytes()

    live = []
    for step, source in enumerate(pool):
        doc_id = index.add_document(parse_xml(source))
        list(recorder.entries_for(parse_xml(source), doc_id))
        live.append(doc_id)
        if step % 2:
            victim = live.pop(0)
            index.remove_document(victim)
            reference.drop_document(victim)
        assert index.structure.to_bytes() == reference.to_bytes(), step
    assert index.structure.vertex_count == reference.vertex_count
    assert verify_index(index).ok
    processor = FixQueryProcessor(index)
    for label in sorted(index.structure.labels)[:12]:
        query = f"//{label}"
        result = processor.query(query)
        assert result.results == _expected(index, processor, query, result)


@pytest.mark.parametrize("depth", [0, 3])
def test_novel_document_churn_does_not_grow_the_dag(depth):
    """Vertices only removed documents reached are given back once they
    outnumber the rest: 500 add / remove rounds of documents unlike any
    other leave a DAG within twice its live size, whose file and answers
    are a fresh build's — and whose surviving classes are still keyed."""
    store = PrimaryXMLStore()
    for document in load_dataset("xbench", scale=0.08, seed=42).documents[:20]:
        store.add_document(document)
    config = FixIndexConfig(depth_limit=depth)
    index = FixIndex.build(store, config)
    live = index.structure.vertex_count
    largest = 0
    for step in range(500):
        novel = parse_xml(
            f"<article><n{step}><m{step}/><title/></n{step}><o{step}/></article>"
        )
        index.remove_document(index.add_document(novel))
        largest = max(largest, index.structure.vertex_count)
    assert largest <= 2 * live + 16
    assert len(index.structure.keys) == index.structure.vertex_count
    _assert_extents_invert_slots(index)
    fresh = FixIndex.build(index.store, config)
    assert index.structure.to_bytes() == fresh.structure.to_bytes()
    assert list(index.btree.items()) == list(fresh.btree.items())
    known, again = FixQueryProcessor(index), FixQueryProcessor(fresh)
    for label in sorted(fresh.structure.labels):
        assert known.query(f"//{label}").results == again.query(f"//{label}").results
    # A re-added original is all classes met before: nothing to solve.
    staged = index.stage_document(99, index.store.get_document(0))
    assert staged.stats.cache_misses == 0 and staged.stats.cache_hits > 0


@pytest.mark.parametrize("depth", [0, 3])
@pytest.mark.parametrize("shards", [1, 4])
def test_extents_invert_the_slots_through_churn_and_reload(tmp_path, depth, shards):
    """Extents are kept where slots are written — recording, absorbing,
    dropping, compacting — and rebuilt from the slots at load: after
    every mutation of an add / remove churn (long enough to compact)
    and after save + load they are exactly the slots' inverse, and a
    structure scan answers the whole truth."""
    sources = _xbench_sources(scale=0.04)
    index = _build(sources, FixIndexConfig(depth_limit=depth, shards=shards))
    _assert_extents_invert_slots(index)
    live = []
    for step in range(40):
        novel = f"<article><n{step}><title/></n{step}><prolog><title/></prolog></article>"
        live.append(index.add_document(parse_xml(novel)))
        if step % 3:
            index.remove_document(live.pop(0))
        if step % 8 == 0:
            index.remove_document(next(iter(index.store.doc_ids())))
        _assert_extents_invert_slots(index)
    reloaded = _save_and_reload(index, str(tmp_path / "index"))
    try:
        _assert_extents_invert_slots(reloaded)
        processor = FixQueryProcessor(reloaded)
        for query in ("//article/prolog/title", "/article[prolog]", "//title"):
            result = processor.query(query)
            assert result.access_path is AccessPath.STRUCTURE_SCAN
            assert result.results == _full_truth(reloaded, query)
    finally:
        _close(reloaded)
