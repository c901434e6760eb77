"""Index verification: cross-check a (possibly reloaded) FIX index
against first principles.

Checks performed:

1. **B-tree invariants** — key order along the leaf chain, separator
   bounds, entry count (``BPlusTree.check_invariants``).
2. **Entry census** — exactly one entry per unit: per live document in
   collection mode, per element in subpattern mode (Theorem 4).
3. **Key recomputation** — every stored feature key equals the key
   recomputed from the primary documents under the persisted encoder
   (within the numerical guard band); detects encoder/page corruption
   and stale indexes after out-of-band document edits.
4. **Pointer resolution** — every value pointer resolves to an element
   whose tag equals the key's root label.
5. **Clustered copies** — each copy unit parses and its root tag matches
   the entry's label.
6. **Structure DAG** — every entry has a recorded vertex carrying the
   key's root label, all entries of one vertex carry one key (a class
   has one key — what a removal relies on), and every stored document's
   bisimulation graph, rebuilt, is vertex for vertex (by canonical
   signature) the recorded one; a mismatch names the document.

Returns a :class:`VerificationReport`; ``ok`` is True when no problems
were found.  Exposed on the CLI as ``python -m repro verify DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.btree.keys import decode_feature_key
from repro.core.construction import GeneratorSettings
from repro.core.index import FixIndex
from repro.core.structure import StructureDag
from repro.storage import NodePointer


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_index`."""

    entries_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the index passed every check."""
        return not self.problems

    def add(self, problem: str) -> None:
        # Cap the list so a totally corrupt index doesn't drown the
        # caller in millions of identical lines.
        if len(self.problems) < 100:
            self.problems.append(problem)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)}+ problem(s)"
        return f"verified {self.entries_checked} entries: {status}"


def verify_index(index: FixIndex, recompute_keys: bool = True) -> VerificationReport:
    """Run all consistency checks on ``index``.

    Args:
        index: a built or reloaded index.
        recompute_keys: when ``False``, skip the (comparatively slow)
            feature recomputation and only run the structural checks.
    """
    report = VerificationReport()

    # 1. B-tree structural invariants.
    try:
        index.btree.check_invariants()
    except ReproError as error:
        report.add(f"B-tree invariants: {error}")
        return report  # nothing below can be trusted

    # 3 (precompute). Expected keys per pointer, regenerated from primary.
    expected: dict[NodePointer, bytes] = {}
    structure = index.structure
    if recompute_keys:
        rebuilt = StructureDag()
        shadow = GeneratorSettings.from_config(index.config).generator(
            index.encoder, structure=rebuilt
        )
        for doc_id in index.store.doc_ids():
            document = index.store.get_document(doc_id)
            for key, _, node_id in shadow.entries_for(document, doc_id):
                expected[NodePointer(doc_id, node_id)] = key
        _compare_structures(report, structure, rebuilt)

    # 2, 3, 4, 5. Walk every stored entry.
    seen: set[NodePointer] = set()
    class_keys: dict[int, bytes] = {}
    for raw_key, raw_value in index.btree.items():
        report.entries_checked += 1
        try:
            label, lmax, lmin = decode_feature_key(raw_key)
        except ReproError as error:
            report.add(f"undecodable key: {error}")
            continue
        entry = index._decode_entry(
            _key_of(label, lmax, lmin), raw_value
        )
        if entry.pointer in seen:
            report.add(f"duplicate entry for pointer {entry.pointer}")
        seen.add(entry.pointer)
        try:
            element = index.store.resolve(entry.pointer)
        except ReproError as error:
            report.add(f"dangling pointer {entry.pointer}: {error}")
            continue
        if element.tag != label:
            report.add(
                f"label mismatch at {entry.pointer}: key says {label!r}, "
                f"element is <{element.tag}>"
            )
        vertex = structure.vertex_of(entry.pointer.doc_id, entry.pointer.node_id)
        if vertex is None:
            report.add(
                f"document {entry.pointer.doc_id}: no structure vertex "
                f"recorded for {entry.pointer}"
            )
        elif structure.label_of(vertex) != label:
            report.add(
                f"document {entry.pointer.doc_id}: structure vertex of "
                f"{entry.pointer} is not a {label!r}"
            )
        elif class_keys.setdefault(vertex, raw_key) != raw_key:
            report.add(
                f"document {entry.pointer.doc_id}: structure vertex {vertex} "
                f"({label!r}) is keyed {class_keys[vertex].hex()} by one "
                f"entry and {raw_key.hex()} by the entry of {entry.pointer}"
            )
        if recompute_keys:
            want = expected.get(entry.pointer)
            if want is None:
                report.add(f"orphan entry {entry.pointer} (unit not expected)")
            elif want != raw_key:
                want_label, want_max, want_min = decode_feature_key(want)
                report.add(
                    f"stale key at {entry.pointer}: stored "
                    f"({label}, {lmax:.6g}, {lmin:.6g}), recomputed "
                    f"({want_label}, {want_max:.6g}, {want_min:.6g})"
                )
        if entry.record is not None:
            assert index.clustered_store is not None
            try:
                unit = index.clustered_store.get_unit(entry.record)
            except ReproError as error:
                report.add(f"unreadable clustered copy {entry.record}: {error}")
                continue
            if unit.root.tag != label:
                report.add(
                    f"clustered copy mismatch at {entry.record}: "
                    f"<{unit.root.tag}> under key {label!r}"
                )

    # 2. Census: every expected unit present.
    if recompute_keys:
        for pointer in expected:
            if pointer not in seen:
                report.add(f"missing entry for unit {pointer}")

    return report


def _compare_structures(
    report: VerificationReport, recorded: StructureDag, rebuilt: StructureDag
) -> None:
    """Every live document's recorded slots against its rebuilt ones:
    the same nodes carry entries, on bisimilar vertices."""
    recorded_digests: dict[int, bytes] = {}
    rebuilt_digests: dict[int, bytes] = {}
    for doc_id in sorted(set(recorded.doc_ids()) | set(rebuilt.doc_ids())):
        have, want = recorded.slots_of(doc_id), rebuilt.slots_of(doc_id)
        if have is None:
            report.add(f"document {doc_id}: no structure recorded")
            continue
        if want is None:
            report.add(
                f"document {doc_id}: structure recorded for a document the "
                "store does not hold"
            )
            continue
        same = len(have) == len(want) and all(
            bool(a) == bool(b)
            and (
                not a
                or recorded.signature(a - 1, recorded_digests)
                == rebuilt.signature(b - 1, rebuilt_digests)
            )
            for a, b in zip(have, want)
        )
        if not same:
            report.add(
                f"document {doc_id}: recorded structure differs from its "
                "rebuilt bisimulation graph"
            )


def _key_of(label: str, lmax: float, lmin: float):
    from repro.spectral import FeatureKey, FeatureRange

    return FeatureKey(label, FeatureRange(lmin, lmax))
