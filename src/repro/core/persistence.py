"""Index persistence: save a built :class:`FixIndex` to a directory and
reattach to it later.

Layout of an index directory::

    meta.json        # config, encoder, B-tree root/entry count, report
    btree.pages      # the B+tree, one page per node
    structure.dag    # the collection-wide bisimulation DAG (DESIGN.md §14)
    clustered.pages  # the key-ordered unit copies (clustered indexes only)

The primary store is *not* part of the index (same as the paper's
unclustered design: the index references primary storage, it does not
own it), so :func:`load_index` takes the store as an argument.  Feature
keys remain valid across processes because the edge-label encoder and
the CRC-based value hash are both persisted/deterministic.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.btree import BPlusTree
from repro.core.index import FixIndex, FixIndexConfig
from repro.core.structure import STRUCTURE_FILE, StructureDag
from repro.errors import StorageError
from repro.spectral import EdgeLabelEncoder
from repro.storage import ClusteredStore, Pager, PrimaryXMLStore

_META_FILE = "meta.json"
_BTREE_FILE = "btree.pages"
_CLUSTERED_FILE = "clustered.pages"
_FORMAT_VERSION = 1


def save_index(index: FixIndex, directory: str) -> None:
    """Persist ``index`` into ``directory`` (created if missing)."""
    os.makedirs(directory, exist_ok=True)
    index.btree.flush()
    index.btree.pager.copy_to(os.path.join(directory, _BTREE_FILE))
    clustered_units = 0
    if index.clustered_store is not None:
        index.clustered_store.pager.copy_to(
            os.path.join(directory, _CLUSTERED_FILE)
        )
        clustered_units = index.clustered_store.unit_count
    with open(os.path.join(directory, STRUCTURE_FILE), "wb") as handle:
        handle.write(index.structure.to_bytes())
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": index.config.to_dict(),
        "encoder": index.encoder.to_dict(),
        "btree": {
            "root_page": index.btree.root_page,
            "entry_count": len(index.btree),
            "page_size": index.btree.pager.page_size,
        },
        "clustered_units": clustered_units,
        "report": index.report.as_dict(),
    }
    with open(os.path.join(directory, _META_FILE), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)


def _read_meta(directory: str) -> tuple[str, dict]:
    """``meta.json`` of a saved index: its path and decoded content.

    Raises:
        StorageError: missing or undecodable file, or another format
            version.
    """
    meta_path = os.path.join(directory, _META_FILE)
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(f"no saved index at {directory!r}") from exc
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt index metadata at {meta_path!r}") from exc
    if meta.get("format_version") != _FORMAT_VERSION:
        raise StorageError(
            f"index format version {meta.get('format_version')} is not "
            f"supported (expected {_FORMAT_VERSION})"
        )
    return meta_path, meta


def saved_config(directory: str) -> FixIndexConfig:
    """The configuration a saved index was built with — what a caller
    needs before :func:`load_index` to open the primary store under the
    same ``page_cache_pages`` bound.

    Raises:
        StorageError: as :func:`load_index`.
    """
    return FixIndexConfig.from_dict(_read_meta(directory)[1].get("config"))


def load_index(
    directory: str,
    store: PrimaryXMLStore,
    *,
    page_cache_pages: int | None = None,
) -> FixIndex:
    """Reattach to an index previously saved with :func:`save_index`.

    Args:
        directory: the saved index directory.
        store: the primary store the index was built over.  The caller is
            responsible for it containing the same documents; entries
            point into it by ``(doc_id, node_id)``.
        page_cache_pages: override the saved buffer-pool bound for this
            session (the on-disk config is not modified).

    A directory saved before the structure sidecar existed pays for
    one here (:meth:`FixIndex.restore_structure`, a pass over ``store``);
    the next :func:`save_index` writes the file.  The sidecar does not
    carry the per-vertex keys — the B-tree has them — so the first
    mutation staged on the loaded index reads every entry once.

    Raises:
        StorageError: missing/unreadable directory, format mismatch, a
            missing or ill-typed metadata section, or a damaged
            structure file.
    """
    meta_path, meta = _read_meta(directory)

    def ill_typed(exc: Exception) -> StorageError:
        return StorageError(
            f"index metadata at {meta_path!r} has a missing or ill-typed "
            f"section ({type(exc).__name__}: {exc})"
        )

    try:
        config = FixIndexConfig.from_dict(meta["config"])
        encoder = EdgeLabelEncoder.from_dict(meta["encoder"])
        root_page, entry_count, page_size = (
            int(meta["btree"][field])
            for field in ("root_page", "entry_count", "page_size")
        )
        clustered_units = int(meta["clustered_units"]) if config.clustered else 0
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ill_typed(exc) from exc
    if page_cache_pages is not None:
        config = dataclasses.replace(config, page_cache_pages=page_cache_pages)
    index = FixIndex(store, config, encoder=encoder)
    try:
        index.report.restore(meta["report"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ill_typed(exc) from exc
    structure_path = os.path.join(directory, STRUCTURE_FILE)
    try:
        with open(structure_path, "rb") as handle:
            index.set_structure(StructureDag.from_bytes(handle.read()))
    except FileNotFoundError:
        index.restore_structure()
    except StorageError as exc:
        raise StorageError(f"{structure_path!r}: {exc}") from exc

    pager = Pager(
        os.path.join(directory, _BTREE_FILE),
        page_size=page_size,
        cache_pages=config.page_cache_pages,
    )
    index.btree = BPlusTree.open(
        pager, root_page, entry_count, node_cache=config.btree_node_cache
    )
    if config.clustered:
        clustered_path = os.path.join(directory, _CLUSTERED_FILE)
        if not os.path.exists(clustered_path):
            raise StorageError(
                f"clustered index at {directory!r} is missing its copy pages"
            )
        index.clustered_store = ClusteredStore(
            Pager(clustered_path), preloaded_units=clustered_units
        )
    index.report.btree_bytes = index.btree.size_bytes()
    # Republish the restored blocks so the metrics registry agrees with
    # the report.
    index.report.stats.publish(index.obs.registry)
    index.report.timings.publish(index.obs.registry)
    index.obs.registry.gauge("index.entries").set(index.report.stats.entries)
    index.obs.registry.gauge("index.btree_bytes").set(index.report.btree_bytes)
    return index
