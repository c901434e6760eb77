"""Epoch-based snapshot isolation with per-root-label scoping.

The blunt invalidation model this replaces — one global ``generation``
counter bumped by every mutation — made `add_document` /
`remove_document` *correct* but expensive downstream: every cached plan
and histogram was discarded wholesale, even when the mutated document
shared no root label with them.

This module provides the real thing:

* :class:`EpochSnapshot` — an immutable view of the epoch state: one
  global epoch plus a per-root-label epoch vector.  A consumer that
  cached something at snapshot ``S`` asks a *later* snapshot which
  labels moved since ``S.epoch`` and refreshes only those slices.
* :class:`EpochCachedView` — the one place that decision lives: a
  derived view (the λ_max histogram) revalidated
  against a snapshot by full rebuild, scoped refresh, or not at all.
* :class:`EpochManager` — publishes snapshots and coordinates readers
  and writers.  Readers :meth:`pin` the snapshot they started on (a
  shared latch); a writer's :meth:`mutation` waits for pinned readers to
  drain, applies its B-tree deltas exclusively, then publishes a new
  snapshot bumping the global epoch and exactly the touched labels.

Why this is sound: the edge-label encoder assigns codes in first-seen
order and never reassigns them (``EdgeLabelEncoder.merge`` enforces the
prefix property), so a cached plan's feature keys remain byte-valid
forever — invalidation is purely about *entry population* changes, which
a mutation confines to the root labels of the entries it inserts or
deletes.  Per-label scoping is therefore exactly as conservative as the
global counter for touched labels and strictly cheaper for the rest.

Latching policy (writer preference): a writer drains pinned readers
before touching shared structures — which is what makes a pinned
query's answer equal to either the pre- or post-mutation snapshot,
never a mix — and while a writer is *waiting or applying*, new pins
queue behind it.  Gating new pins is what keeps the policy live: under
a saturated read loop the gap between one query's unpin and the next
query's pin is a few bytecodes, and a reader-preferring latch loses
that race forever (the writer starves — observed as mutations making
no progress while tens of thousands of queries flow).  The price is
bounded and small: a new reader waits out one staged apply (a B-tree
delta — staging, the expensive part, happens before the latch), never
an unbounded queue of them, because every waiting writer admitted
ahead of the reader must itself drain before the next can enter.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Generic, Iterable, Mapping, TypeVar

V = TypeVar("V")


@dataclass(frozen=True)
class EpochSnapshot:
    """An immutable point-in-time view of the epoch state.

    Attributes:
        epoch: the global epoch — bumped by every mutation.
        floor: the epoch of the last *full* invalidation (a rebuild or
            an unscoped mutation); every label's epoch is at least this.
        label_epochs: root label -> epoch of the last mutation that
            touched it (labels never touched since the floor are absent
            and implicitly carry ``floor``).
    """

    epoch: int = 0
    floor: int = 0
    label_epochs: Mapping[str, int] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def label_epoch(self, label: str) -> int:
        """The epoch of the last mutation touching ``label``."""
        return max(self.floor, self.label_epochs.get(label, 0))

    def max_epoch_over(self, labels: Iterable[str]) -> int:
        """The newest epoch across ``labels`` — the validity bound for
        anything cached over exactly that label set.  An empty label
        set is answered conservatively with the global epoch (nothing
        can be proven untouched)."""
        newest = None
        for label in labels:
            current = self.label_epoch(label)
            if newest is None or current > newest:
                newest = current
        return self.epoch if newest is None else newest

    def changed_labels_since(self, epoch: int) -> list[str] | None:
        """Labels mutated after ``epoch``, for scoped refresh — or
        ``None`` when a full invalidation intervened (``floor`` moved
        past ``epoch``) and the caller must rebuild wholesale."""
        if self.floor > epoch:
            return None
        return [
            label
            for label, touched in self.label_epochs.items()
            if touched > epoch
        ]


class EpochManager:
    """Publishes :class:`EpochSnapshot`\\ s and latches readers/writers.

    One manager guards one index's mutable structures (a plain
    :class:`~repro.core.index.FixIndex`, one shard, or a sharded
    coordinator — shards nest their own managers under the
    coordinator's).  All counters are plain ints mutated under the GIL
    or the latch; :meth:`publish` delta-syncs them into a
    ``repro.obs`` registry as ``epoch.*``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._applying = False
        self._writers_waiting = 0
        self._snapshot = EpochSnapshot()
        #: reader pins taken (``epoch.pins``).
        self.pins = 0
        #: mutations applied (``epoch.mutations``).
        self.mutations = 0
        #: label-scoped view/cache refreshes downstream consumers
        #: performed against this manager's snapshots.
        self.scoped_invalidations = 0
        #: full rebuild invalidations (floor bumps or unscoped refresh).
        self.full_invalidations = 0

    # ------------------------------------------------------------------ #
    # Snapshot access
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> EpochSnapshot:
        """The latest published snapshot (an atomic reference read)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """The current global epoch."""
        return self._snapshot.epoch

    @property
    def pinned_readers(self) -> int:
        """Readers currently holding a pin (a point-in-time gauge the
        resource sampler exports as ``epoch.readers_pinned``)."""
        return self._readers

    @property
    def writers_waiting(self) -> int:
        """Writers queued for (or holding) the apply window —
        ``epoch.writers_waiting``, the mutation queue depth."""
        return self._writers_waiting + (1 if self._applying else 0)

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #

    @contextmanager
    def pin(self):
        """Pin the current snapshot for the duration of a read.

        While at least one pin is held no mutation can *apply* (writers
        wait), so everything the reader dereferences — B-tree pages,
        histogram slices — belongs to the pinned
        snapshot.  A new pin queues behind pending writers (writer
        preference — see the module docstring for why anything weaker
        starves the mutation path under a hot read loop); once taken,
        a pin is never interrupted.
        """
        with self._cond:
            while self._applying or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self.pins += 1
            snapshot = self._snapshot
        try:
            yield snapshot
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #

    @contextmanager
    def mutation(self, labels: Iterable[str] | None):
        """Apply a mutation touching ``labels`` exclusively.

        Drains pinned readers, runs the body with the latch held in
        exclusive mode, then publishes a new snapshot bumping the
        global epoch and each touched label's epoch.  ``labels=None``
        publishes a full invalidation (the floor moves) — the escape
        hatch for rebuilds, whose touched set is "everything".

        The new snapshot is published even if the body raises: a
        partially applied delta must still invalidate downstream
        caches, conservatively.
        """
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._applying or self._readers:
                    self._cond.wait()
                self._applying = True
            finally:
                self._writers_waiting -= 1
                # Wakes readers gated on the waiting count if the wait
                # itself raised (on success they stay out: _applying).
                self._cond.notify_all()
        try:
            yield
        finally:
            with self._cond:
                self._advance_locked(labels)
                self._applying = False
                self._cond.notify_all()

    def _advance_locked(self, labels: Iterable[str] | None) -> EpochSnapshot:
        previous = self._snapshot
        epoch = previous.epoch + 1
        if labels is None:
            snapshot = EpochSnapshot(
                epoch=epoch, floor=epoch, label_epochs=MappingProxyType({})
            )
        else:
            merged = dict(previous.label_epochs)
            for label in labels:
                merged[label] = epoch
            snapshot = EpochSnapshot(
                epoch=epoch,
                floor=previous.floor,
                label_epochs=MappingProxyType(merged),
            )
        self._snapshot = snapshot
        self.mutations += 1
        return snapshot

    def rebuild(self) -> EpochSnapshot:
        """Publish a full invalidation (floor bump) after a rebuild."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._applying or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
                self._cond.notify_all()
            return self._advance_locked(None)

    # ------------------------------------------------------------------ #
    # Downstream refresh accounting
    # ------------------------------------------------------------------ #

    def note_scoped_refresh(self) -> None:
        """A consumer refreshed only the stale label slices of a view
        instead of rebuilding it (one scoped invalidation event)."""
        self.scoped_invalidations += 1

    def note_full_refresh(self) -> None:
        """A consumer rebuilt a view wholesale."""
        self.full_invalidations += 1

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def publish(self, registry, prefix: str = "epoch.") -> None:
        """Delta-sync the epoch counters into a metrics registry."""
        registry.sync_counter(prefix + "pins", self.pins)
        registry.sync_counter(prefix + "mutations", self.mutations)
        registry.sync_counter(
            prefix + "invalidations.scoped", self.scoped_invalidations
        )
        registry.sync_counter(
            prefix + "invalidations.full", self.full_invalidations
        )
        registry.gauge(prefix + "current").set(self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self._snapshot
        return (
            f"EpochManager(epoch={snapshot.epoch}, floor={snapshot.floor}, "
            f"labels={len(snapshot.label_epochs)})"
        )


class EpochCachedView(Generic[V]):
    """A view derived from an index, revalidated against its epochs.

    The policy every derived view shares: built on first use; kept as
    is while the epoch stands (or moved without touching a label);
    repaired by ``refresh(view, labels)`` over exactly the root labels
    mutated since it was last validated; rebuilt wholesale only after a
    full invalidation (a floor bump).  Refreshes and rebuilds are
    counted on the index's manager (``epoch.invalidations.*``).

    The index is handed to :meth:`get`, never stored, so a view can be
    owned by the index it describes without a reference cycle — which
    would leave the index (and its B-tree, pager and store) to be freed
    whenever the cyclic collector next runs instead of when the last
    reference goes.
    """

    def __init__(
        self,
        build: Callable[[Any], V],
        refresh: Callable[[Any, V, list[str]], None],
    ) -> None:
        self._build = build
        self._refresh = refresh
        #: the view and the snapshot it was last validated against
        #: (``None`` until first use).
        self.value: V | None = None
        self.snapshot: EpochSnapshot | None = None

    def get(self, index, snapshot: EpochSnapshot | None = None) -> V:
        """The view of ``index``, valid for ``snapshot`` (default:
        ``index.epochs``' current one; a running query passes the
        snapshot it pinned)."""
        epochs: EpochManager = index.epochs
        if snapshot is None:
            snapshot = epochs.current
        if self.snapshot is None:
            self.value = self._build(index)
        elif snapshot.epoch != self.snapshot.epoch:
            stale = snapshot.changed_labels_since(self.snapshot.epoch)
            if stale is None:
                self.value = self._build(index)
                epochs.note_full_refresh()
            elif stale:
                self._refresh(index, self.value, stale)
                epochs.note_scoped_refresh()
        self.snapshot = snapshot
        return self.value
