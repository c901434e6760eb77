"""Two-phase query processing (Algorithm 2), and the structure scan
beside it.

Phase 0 — *planning*: the query is parsed and decomposed (Section 5),
and one rule (:func:`~repro.core.optimizer.choose_access_path`) picks
the access path.  Only the index scan needs the pruning fragments'
feature keys — coverage and an eigensolve per fragment — so they are
extracted here only when the rule picks it.  Plans, keys included once
computed, are memoized per (query source, index generation) in a
:class:`~repro.core.plan.PlanCache`, so repeated queries skip straight
to the scan.

The *structure scan* (DESIGN.md §14) answers a twig without
value literals on the index's bisimulation DAG alone: the twig root's
candidate vertices — the root label's vertices that carry an entry; the
documents' root vertices for a ``/``-leading twig on a depth-limited
index; every entry vertex for a ``//``-leading twig on a collection —
each get one verdict, and the accepted ones' extents, merged in pointer
order, are the answer.  It needs no B-tree, no feature key and no
coverage (a twig deeper than the depth limit is answered too), and
loses no answer to the Theorem 5 gap (DESIGN.md §5a).  Otherwise the
*index scan* runs the paper's two phases, and raises
:class:`~repro.errors.IndexCoverageError` for a twig the index does not
cover:

Phase 1 — *pruning*: each fragment's feature key is range-scanned on
the B-tree for covering entries (Section 3.4).  With a collection
index every fragment prunes and candidate sets intersect incrementally,
most selective fragment first; with a depth-limited index only the top
fragment prunes.  ``/``-rooted queries on depth-limited indexes drop
non-root candidates *inside* this phase, so ``prune_seconds`` and
``candidate_count`` describe the same candidate list refinement sees.

Phase 2 — *refinement*: a candidate's structural verdict is read off
the index's bisimulation DAG (DESIGN.md §14) — one memoised verdict per
(query node, vertex), shared by every candidate of the query — and no
tree is fetched for a twig without value literals.  What still needs a
tree (structural survivors of a twig with literals, every candidate
when a ``refiner`` was passed explicitly) is grouped by the document
(or clustered copy) it refines against, each group's tree is fetched
exactly once, and all of the group's candidates are validated against
it — optionally fanned out across ``workers`` processes.  The result
list is pointer-ordered and identical for any worker count.  The leading ``//`` is rewritten to ``/`` for
depth-limited indexes (every descendant of an indexed pattern instance
is itself indexed, so each candidate only answers for its own root —
Algorithm 2, lines 7-8).  Clustered candidates refine against their
copy when the query fits inside the copy's depth horizon, falling back
to primary storage for decomposed queries whose fragments may match
deeper.

With ``pushdown=True`` over a sharded index, phases 1 and 2 both run
*inside* each shard that survives the histogram emptiness test (applied
per fragment), concurrently up to the scan bound; only verified matches
cross back to the coordinator, where the pointer-order merge makes the
answer identical to the scatter-gather flow (DESIGN.md §11).  A
structure scan runs per shard DAG either way, skipping the shards with
no candidate vertex.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field

from repro.core.epoch import EpochSnapshot
from repro.core.index import FixIndex, IndexEntry
from repro.core.optimizer import AccessPath, choose_access_path
from repro.core.plan import PlanCache, QueryPlan, build_plan
from repro.core.stats import histogram_view
from repro.core.structure import TwigVerdicts, unpack_pointers
from repro.engine import (
    NavigationalEngine,
    StructuralJoinEngine,
    refine_candidates,
)
from repro.obs import Obs
from repro.query.ast import Axis
from repro.query.twig import TwigQuery
from repro.spectral import FeatureKey
from repro.storage import NodePointer

#: one structure DAG's share of a structure scan: the twig's verdicts
#: over that DAG, its candidate vertices, and vertex -> the packed
#: pointers of the candidates at it.
StructureCandidates = tuple[TwigVerdicts, Collection[int], Callable[[int], Sequence[int]]]


@dataclass
class FixQueryResult:
    """Outcome of one query."""

    #: pointers whose refinement succeeded (the final answer), in
    #: ascending pointer order.
    results: list[NodePointer] = field(default_factory=list)
    #: how many candidates the pruning phase produced (``cdt``), after
    #: the root filter for ``/``-rooted depth-limited queries; on a
    #: structure scan, the entries at the vertices it judged.
    candidate_count: int = 0
    #: the path the query took (:func:`~repro.core.optimizer.choose_access_path`).
    access_path: AccessPath = AccessPath.INDEX_SCAN
    #: the vertices a structure scan judged (summed over shards); 0 on
    #: the index scan.
    candidate_vertices: int = 0
    #: wall-clock split, seconds.
    plan_seconds: float = 0.0
    prune_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: True when the plan came out of the cache (no parse paid, nor an
    #: eigensolve the cached plan already made).
    plan_cached: bool = False
    #: trees the refinement phase fetched (documents plus clustered
    #: copy units); 0 when the structure DAG decided every candidate,
    #: and always 0 on a structure scan.
    documents_fetched: int = 0
    #: trees a fetch-everything refinement would have fetched on top —
    #: an index-scan figure: a structure scan has no refinement to
    #: spare a fetch.
    fetches_avoided: int = 0
    #: (query node, vertex) verdicts evaluated on the structure DAG,
    #: and answered from the query's memo.
    dag_verdicts: int = 0
    dag_reused: int = 0
    #: refinement worker processes used.
    workers: int = 1
    #: True when shard-local push-down answered the query (prune and
    #: refine both ran inside each participating shard; the per-phase
    #: seconds are then summed across shards — aggregate work, not
    #: wall-clock).
    pushdown: bool = False

    @property
    def result_count(self) -> int:
        """Number of surviving candidates (``rst`` when results are units)."""
        return len(self.results)

    @property
    def false_positive_count(self) -> int:
        """Candidates the refinement rejected."""
        return self.candidate_count - len(self.results)

    @property
    def seconds(self) -> float:
        """Total wall-clock across all three phases."""
        return self.plan_seconds + self.prune_seconds + self.refine_seconds


class FixQueryProcessor:
    """INDEX-PROCESSOR: pruning + refinement over one :class:`FixIndex`,
    or a structure scan where the access-path rule picks it.

    The refinement operator is pluggable — the paper's point that FIX
    "can be coupled with any path processing operator that can perform
    query refinement".  Both shipped engines satisfy the contract
    (``refine``, ``refine_group``, ``evaluate_document``).  Left to
    itself the processor answers structural twigs off the index's
    bisimulation DAG — by a structure scan, or by reading verdicts for
    the index scan's candidates — and keeps a navigational engine (the
    paper's NoK pairing) for the value step.

    Args:
        index: the index to prune against.
        refiner: refinement engine.  Passing one makes every query take
            the index scan and the engine judge every candidate on its
            fetched tree; the default decides structure on the DAG and
            runs a navigational engine over the index's primary store
            only where a value literal calls for the tree.
        workers: refinement worker processes.  ``1`` refines in
            process; ``k > 1`` fans document groups out across ``k``
            processes with results identical to serial.
        plan_cache: ``True`` (a fresh 256-entry cache), ``False``
            (plan every query), or a :class:`PlanCache` to share
            between processors.
        pushdown: push the whole prune+refine pipeline down into each
            shard of a sharded index.  Shards that cannot contain a
            candidate for *every* fragment are skipped outright; the
            rest prune and refine locally (one engine per shard over
            the shard's own store) and only verified matches flow back,
            merged in pointer order — answers identical to the scatter-
            gather path.  A structure scan runs per shard DAG either
            way; push-down bounds its concurrency by ``workers`` too.
            Ignored (normal two-phase flow) for plain indexes and for
            custom refinement engines.
        slow_log: optional :class:`~repro.obs.slowlog.SlowQueryLog`.
            Queries whose total latency crosses its threshold (fixed,
            or derived from this processor's ``query.seconds`` sketch)
            are captured as full exemplars: the span subtree traced for
            exactly that query (when tracing is on), the per-phase
            split, and the epoch (vector) the query pinned.  Captured
            exemplars also land in the trace buffer as
            ``{"type": "slow_query"}`` events, so flushed artifacts
            carry them and ``repro trace --slow`` finds them.
        obs: tracing/metrics context (:class:`repro.obs.Obs`).
            Defaults to the index's own, so build and query metrics
            land in one registry and query spans join the index's
            trace.  Every :meth:`query` publishes ``query.*`` metrics
            to ``obs.registry``.
    """

    def __init__(
        self,
        index: FixIndex,
        refiner: NavigationalEngine | StructuralJoinEngine | None = None,
        *,
        workers: int = 1,
        plan_cache: bool | PlanCache = True,
        pushdown: bool = False,
        slow_log=None,
        obs: Obs | None = None,
    ) -> None:
        self.index = index
        self.refiner = refiner or NavigationalEngine(index.store)
        #: an explicit refiner sees every candidate's tree.
        self._decide_on_structure = refiner is None
        self.workers = max(1, workers)
        self.pushdown = pushdown
        if isinstance(plan_cache, PlanCache):
            self.plan_cache: PlanCache | None = plan_cache
        else:
            self.plan_cache = PlanCache() if plan_cache else None
        self.obs = obs if obs is not None else index.obs
        self.slow_log = slow_log
        if slow_log is not None and slow_log.registry is None:
            # Derived thresholds read this processor's query.seconds
            # sketch unless the caller attached their own registry.
            slow_log.registry = self.obs.registry
        #: the λ_max histogram fragment ordering consults, kept fresh
        #: per epoch (touched label slices only).
        self._histogram = histogram_view()
        #: per-thread pinned EpochSnapshot for the duration of query();
        #: plan-cache validity and histogram freshness are judged
        #: against it, so one query sees one consistent epoch.
        self._pin_local = threading.local()

    # ------------------------------------------------------------------ #
    # Epoch plumbing
    # ------------------------------------------------------------------ #

    def _epoch_view(self) -> EpochSnapshot:
        """The epoch state queries validate against: the snapshot pinned
        by the running query when there is one, the index's live
        snapshot otherwise."""
        pinned = getattr(self._pin_local, "snapshot", None)
        return pinned if pinned is not None else self.index.epochs.current

    # ------------------------------------------------------------------ #
    # Planning phase
    # ------------------------------------------------------------------ #

    def plan_for(self, query: TwigQuery | str) -> QueryPlan:
        """The (possibly cached) plan for ``query``."""
        return self._plan_for(query)[0]

    def _plan_for(self, query: TwigQuery | str) -> tuple[QueryPlan, bool]:
        source = query if isinstance(query, str) else query.source
        if self.plan_cache is not None and source:
            plan = self.plan_cache.get(source, self._epoch_view())
            if plan is not None:
                return plan, True
        plan = build_plan(self.index, query)
        if self.plan_cache is not None:
            self.plan_cache.put(plan)
        return plan, False

    # ------------------------------------------------------------------ #
    # Pruning phase
    # ------------------------------------------------------------------ #

    def prune(self, query: TwigQuery | str) -> list[IndexEntry]:
        """Candidate entries for ``query`` (Section 5 decomposition rules
        and the root filter applied), in (key, pointer) order for single
        -fragment scans and pointer order for intersections."""
        return self._pruned_candidates(self._plan_for(query)[0])

    def _pruned_candidates(self, plan: QueryPlan) -> list[IndexEntry]:
        return self._prune_in(self.index, plan, self._fragment_order(plan))

    def _fragment_order(self, plan: QueryPlan) -> list[int]:
        """Fragment scan order, most selective first by the λ_max
        histogram's candidate estimate (the whole index's, so every
        shard of a push-down scans fragments in the same sequence)."""
        order = list(range(len(plan.fragments)))
        if len(order) > 1:
            order.sort(
                key=lambda i: self._estimate_candidates(
                    plan.feature_keys[i], plan.anchored[i]
                )
            )
        return order

    def _prune_in(
        self, index, plan: QueryPlan, order: list[int]
    ) -> list[IndexEntry]:
        """``plan``'s candidates out of ``index`` — the whole index, or
        one shard of it (pointers partition by shard, so intersecting
        per shard and unioning is exact).

        A single fragment is one range scan.  Collection-mode plans
        intersect every fragment's candidates: fragments are scanned in
        ``order``, and each later stream is only membership-tested
        against the running survivor set — no full candidate dict is
        materialized beyond the first, and an empty survivor set exits
        early.
        """
        if len(order) == 1:
            entries = sorted(
                index.candidates_for_key(
                    plan.feature_keys[0], anchored=plan.anchored[0]
                ),
                key=_entry_sort_key,
            )
        else:
            surviving: dict[NodePointer, IndexEntry] = {}
            for position, i in enumerate(order):
                stream = index.candidates_for_key(
                    plan.feature_keys[i], anchored=plan.anchored[i]
                )
                if position == 0:
                    surviving = {entry.pointer: entry for entry in stream}
                else:
                    seen = {
                        entry.pointer
                        for entry in stream
                        if entry.pointer in surviving
                    }
                    surviving = {
                        pointer: entry
                        for pointer, entry in surviving.items()
                        if pointer in seen
                    }
                if not surviving:
                    break
            entries = sorted(surviving.values(), key=lambda entry: entry.pointer)
        if plan.root_filter:
            # A '/'-rooted query can only bind the document root, but
            # subpattern entries exist for *every* element; discarding
            # non-root candidates is part of pruning, so the counts and
            # timings the result reports stay consistent.
            entries = [e for e in entries if e.pointer.node_id == 0]
        return entries

    def _estimate_candidates(self, key: FeatureKey, anchored: bool) -> float:
        histogram = self._histogram.get(self.index, self._epoch_view())
        return histogram.estimate_candidates(key, anchored=anchored)

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _choose_path(self, plan: QueryPlan, result: FixQueryResult) -> None:
        """Set ``result.access_path`` by the one rule.  The index scan
        reads the plan's keys, so they are computed here, as planning:
        the coverage check and the eigensolve land in ``plan_seconds``
        and a structure scan pays neither."""
        result.access_path = choose_access_path(
            plan.refined, explicit_refiner=not self._decide_on_structure
        )
        if result.access_path is AccessPath.INDEX_SCAN:
            plan.feature_keys  # noqa: B018 - computed and kept on the plan

    def _structure_candidates(
        self, plan: QueryPlan, result: FixQueryResult
    ) -> list[StructureCandidates]:
        """A structure scan's candidate vertices, collected under the
        pinned epoch (none for the index scan)."""
        if result.access_path is not AccessPath.STRUCTURE_SCAN:
            return []
        scans = structure_candidates(self.index, plan)
        result.candidate_vertices = sum(len(vertices) for _, vertices, _ in scans)
        return scans

    def _structure_scan(
        self,
        scans: list[StructureCandidates],
        result: FixQueryResult,
        concurrency: int,
    ) -> None:
        """Judge every candidate vertex once and answer the accepted
        vertices' extents, merged in pointer order.  On a sharded index
        each shard's DAG is scanned on its own, concurrently up to
        ``concurrency``, and shards without a candidate vertex are
        skipped."""
        if not hasattr(self.index, "dispatch_shards"):
            parts = [_scan_dag(*scan) for scan in scans]
        else:
            order = [shard_id for shard_id, scan in enumerate(scans) if scan[1]]
            self.index.obs.registry.counter("shards.skipped").inc(
                len(scans) - len(order)
            )
            parts = self.index.dispatch_shards(
                order,
                lambda shard_id: _scan_dag(*scans[shard_id]),
                "structure scan",
                concurrency,
            )
        accepted: list[int] = []
        for answers, candidates in parts:
            accepted.extend(answers)
            result.candidate_count += candidates
        accepted.sort()
        result.results.extend(unpack_pointers(accepted))
        for judge, _, _ in scans:
            result.dag_verdicts += judge.computed
            result.dag_reused += judge.reused

    # ------------------------------------------------------------------ #
    # Shard-local push-down
    # ------------------------------------------------------------------ #

    def _pushes_down(self) -> bool:
        """Whether this query runs inside the shards: push-down enabled,
        a sharded index, and a refiner the per-shard workers can
        reconstruct (otherwise: the normal flow)."""
        index = self.index
        return (
            self.pushdown
            and hasattr(index, "pushdown_shards")
            and hasattr(index, "shards")
            and self._parallel_refiner_kind() is not None
        )

    def _query_pushdown(
        self,
        plan: QueryPlan,
        scans: list[StructureCandidates],
        result: FixQueryResult,
    ) -> None:
        """Run the query inside each participating shard and merge.

        A structure scan runs on every shard DAG with a candidate
        vertex.  Otherwise each shard that survives the histogram
        emptiness test prunes and refines.  The fragment intersection
        order is fixed *globally* (from the whole index's histogram)
        before fanning out, so every shard scans fragments in the same
        sequence regardless of its local distribution — one of the two
        determinism anchors; the other is the pointer-order merge,
        which is total because pointers partition by shard.  Per-phase
        seconds are summed across shards (aggregate work, matching the
        parallel-refine convention).
        """
        concurrency = max(self.workers, self.index.config.shard_workers)
        if result.access_path is AccessPath.STRUCTURE_SCAN:
            started = time.perf_counter()
            self._structure_scan(scans, result, concurrency)
            result.refine_seconds += time.perf_counter() - started
            return
        kind = self._parallel_refiner_kind()
        assert kind is not None  # _pushes_down gated on it
        order = self.index.pushdown_shards(plan.feature_keys, plan.anchored)
        frag_order = self._fragment_order(plan)
        outcomes = self.index.dispatch_shards(
            order,
            lambda shard_id: self._pushdown_shard(
                shard_id, plan, frag_order, kind
            ),
            "push-down",
            concurrency,
        )
        for part in outcomes:
            result.candidate_count += part.candidate_count
            result.documents_fetched += part.documents_fetched
            result.fetches_avoided += part.fetches_avoided
            result.dag_verdicts += part.dag_verdicts
            result.dag_reused += part.dag_reused
            result.prune_seconds += part.prune_seconds
            result.refine_seconds += part.refine_seconds
            result.results.extend(part.results)
        result.results.sort()

    def _pushdown_shard(
        self,
        shard_id: int,
        plan: QueryPlan,
        frag_order: list[int],
        kind: str,
    ) -> FixQueryResult:
        """One shard's complete prune+refine — its share of the query's
        result — safe to run on a scan thread: every object it touches
        (shard index, pager, store cache, structure DAG, fresh engine)
        belongs to this shard alone."""
        shard = self.index.shards[shard_id]
        part = FixQueryResult()
        prune_started = time.perf_counter()
        entries = self._prune_in(shard, plan, frag_order)
        part.prune_seconds = time.perf_counter() - prune_started
        part.candidate_count = len(entries)

        refine_started = time.perf_counter()
        refiner = (
            StructuralJoinEngine(shard.store)
            if kind == "structural_join"
            else NavigationalEngine(shard.store)
        )
        self._refine(shard, refiner, plan.refined, entries, part, fan_out=False)
        part.refine_seconds = time.perf_counter() - refine_started
        return part

    # ------------------------------------------------------------------ #
    # Full pipeline
    # ------------------------------------------------------------------ #

    def query(self, query: TwigQuery | str) -> FixQueryResult:
        """Run all phases and return the validated result pointers.

        The whole pipeline runs under an epoch pin: the snapshot taken
        at entry governs plan-cache validity and histogram freshness,
        and concurrent mutations wait out the pin before applying —
        the answer equals either the pre- or post-mutation index,
        never a mix of the two.
        """
        result = FixQueryResult(workers=self.workers)
        source = query if isinstance(query, str) else query.source
        tracer = self.obs.tracer
        # Everything the tracer buffers from here on belongs to this
        # query — the slice a slow-query exemplar captures.
        events_start = len(tracer.events) if tracer.enabled else 0
        epoch_info: dict = {}
        try:
            with self.index.epochs.pin() as snapshot, self.obs.span(
                "query", source=source, workers=self.workers
            ) as query_span:
                self._pin_local.snapshot = snapshot
                epoch_info["epoch"] = snapshot.epoch
                vector_fn = getattr(self.index, "epoch_vector", None)
                if callable(vector_fn):
                    # Per-shard global epochs, JSON-friendly — enough to
                    # re-pin the same sharded state later.
                    epoch_info["vector"] = [
                        shard_snap.epoch for shard_snap in vector_fn()
                    ]
                with self.obs.span("query.plan"):
                    started = time.perf_counter()
                    plan, cached = self._plan_for(query)
                    self._choose_path(plan, result)
                    result.plan_seconds = time.perf_counter() - started
                result.plan_cached = cached

                if self._pushes_down():
                    result.pushdown = True
                    with self.obs.span("query.pushdown") as push_span:
                        started = time.perf_counter()
                        scans = self._structure_candidates(plan, result)
                        result.prune_seconds = time.perf_counter() - started
                        self._query_pushdown(plan, scans, result)
                        push_span.set(
                            path=result.access_path.value,
                            candidates=result.candidate_count,
                            survivors=result.result_count,
                        )
                else:
                    with self.obs.span("query.prune") as prune_span:
                        started = time.perf_counter()
                        scans = self._structure_candidates(plan, result)
                        scanning = result.access_path is AccessPath.STRUCTURE_SCAN
                        if scanning:
                            prune_span.set(vertices=result.candidate_vertices)
                        else:
                            candidates = self._pruned_candidates(plan)
                            result.candidate_count = len(candidates)
                            prune_span.set(candidates=len(candidates))
                        result.prune_seconds = time.perf_counter() - started

                    with self.obs.span("query.refine") as refine_span:
                        started = time.perf_counter()
                        if scanning:
                            self._structure_scan(
                                scans, result, self.index.config.shard_workers
                            )
                        else:
                            self._refine(
                                self.index,
                                self.refiner,
                                plan.refined,
                                candidates,
                                result,
                                fan_out=True,
                            )
                            result.results.sort()
                        result.refine_seconds = time.perf_counter() - started
                        refine_span.set(
                            groups=result.documents_fetched,
                            verdicts=result.dag_verdicts,
                            survivors=result.result_count,
                        )

                query_span.set(
                    path=result.access_path.value,
                    candidates=result.candidate_count,
                    results=result.result_count,
                    plan_cached=cached,
                )
        finally:
            self._pin_local.snapshot = None
        self._publish_query_metrics(result)
        if self.slow_log is not None and self.slow_log.is_slow(result.seconds):
            spans = list(tracer.events[events_start:]) if tracer.enabled else []
            entry = self.slow_log.record(
                result, plan.source, spans=spans, epoch=epoch_info
            )
            if tracer.enabled:
                # Embed the exemplar in the trace buffer too, so flushed
                # artifacts carry it (repro trace --slow reads either).
                tracer.events.append(entry)
        return result

    def _publish_query_metrics(self, result: FixQueryResult) -> None:
        """The one write of a query's cost (DESIGN.md §10): the B-tree
        scan, pager, plan-cache and epoch blocks, then ``query.*`` —
        ``query.count``, ``query.access_path.<path>``,
        ``query.plan_cache.hits/misses``, candidates
        and results, the refinement counters, phase-second counters and
        the latency sketches."""
        registry = self.obs.registry
        self.index.publish_scan_stats(registry)
        if self.plan_cache is not None:
            self.plan_cache.publish(registry)
        self.index.epochs.publish(registry)
        registry.counter("query.count").inc()
        registry.counter(
            f"query.access_path.{result.access_path.name.lower()}"
        ).inc()
        registry.counter(
            "query.plan_cache.hits" if result.plan_cached else "query.plan_cache.misses"
        ).inc()
        registry.counter("query.candidates").inc(result.candidate_count)
        registry.counter("query.results").inc(result.result_count)
        registry.counter("query.documents_fetched").inc(result.documents_fetched)
        registry.counter("query.refine.fetches_avoided").inc(result.fetches_avoided)
        registry.counter("query.refine.dag_verdicts").inc(result.dag_verdicts)
        registry.counter("query.refine.dag_reused").inc(result.dag_reused)
        registry.counter("query.phase_seconds.plan").inc(result.plan_seconds)
        registry.counter("query.phase_seconds.prune").inc(result.prune_seconds)
        registry.counter("query.phase_seconds.refine").inc(result.refine_seconds)
        # The quantile sketches behind p50/p95/p99 reporting (DESIGN.md
        # §13): total latency plus the per-phase split, one observation
        # per query.
        registry.sketch("query.seconds").observe(result.seconds)
        registry.sketch("query.plan_seconds").observe(result.plan_seconds)
        registry.sketch("query.prune_seconds").observe(result.prune_seconds)
        registry.sketch("query.refine_seconds").observe(result.refine_seconds)
        registry.gauge("query.workers").set(result.workers)

    # ------------------------------------------------------------------ #
    # Refinement phase
    # ------------------------------------------------------------------ #

    def _refine(
        self,
        index,
        refiner,
        twig: TwigQuery,
        candidates: list[IndexEntry],
        result: FixQueryResult,
        *,
        fan_out: bool,
    ) -> None:
        """Refine ``candidates`` of ``index`` — the whole index, or the
        one shard a push-down pruned them out of — adding the survivors
        (unsorted) and the fetch and verdict counts to ``result``.

        Structural verdicts come off the index's DAG first (unless a
        refiner was passed explicitly); whatever still needs a tree is
        grouped by the tree it refines against, each fetched once, and
        judged by ``refiner`` — across the worker pool when ``fan_out``
        allows and there is more than one tree.
        """
        use_copy = self._copy_suffices(twig)
        copy_entries: list[IndexEntry] = []
        doc_groups: dict[int, list[IndexEntry]] = {}
        for entry in candidates:
            if entry.record is not None and use_copy:
                copy_entries.append(entry)
            else:
                doc_groups.setdefault(entry.pointer.doc_id, []).append(entry)
        wanted = len(copy_entries) + len(doc_groups)
        if self._decide_on_structure:
            copy_entries, doc_groups = self._structural_pass(
                index, twig, copy_entries, doc_groups, result
            )
        fetched = len(copy_entries) + len(doc_groups)
        result.documents_fetched += fetched
        result.fetches_avoided += wanted - fetched

        if fan_out and self.workers > 1 and fetched > 1:
            kind = self._parallel_refiner_kind()
            if kind is not None:
                result.results.extend(
                    self._refine_parallel(twig, copy_entries, doc_groups, kind)
                )
                return
        for entry in copy_entries:
            unit = index.clustered_store.get_unit(entry.record)
            (ok,) = refine_candidates(refiner, twig, unit, [unit.root.node_id])
            if ok:
                result.results.append(entry.pointer)
        for doc_id in sorted(doc_groups):
            entries = doc_groups[doc_id]
            flags = refine_candidates(
                refiner,
                twig,
                index.store.get_document(doc_id),
                [entry.pointer.node_id for entry in entries],
            )
            result.results.extend(
                entry.pointer for entry, ok in zip(entries, flags) if ok
            )

    def _structural_pass(
        self,
        index,
        twig: TwigQuery,
        copy_entries: list[IndexEntry],
        doc_groups: dict[int, list[IndexEntry]],
        result: FixQueryResult,
    ) -> tuple[list[IndexEntry], dict[int, list[IndexEntry]]]:
        """Judge every candidate's structure on the DAG its entry is
        recorded in, and return what still needs a tree: nothing the
        DAG rejected; what it accepted only when the twig carries a
        value literal (otherwise that is a survivor already, added to
        ``result``); and every candidate without a recorded vertex (an
        entry a damaged directory holds and its DAG does not)."""
        keep_accepted = twig.has_values()
        judges: dict[int, TwigVerdicts] = {}

        def undecided(doc_id: int, entries: list[IndexEntry]) -> list[IndexEntry]:
            dag = index.structure_of(doc_id)
            slots = dag.slots_of(doc_id)
            if slots is None:
                return entries
            judge = judges.get(id(dag))
            if judge is None:
                judge = judges[id(dag)] = TwigVerdicts(dag, twig)
            accepts = judge.accepts
            known = len(slots)
            pending = []
            for entry in entries:
                node_id = entry.pointer.node_id
                slot = slots[node_id] if node_id < known else 0
                if not slot:
                    pending.append(entry)
                elif accepts(slot - 1):
                    if keep_accepted:
                        pending.append(entry)
                    else:
                        result.results.append(entry.pointer)
            return pending

        copy_entries = [
            entry
            for entry in copy_entries
            if undecided(entry.pointer.doc_id, [entry])
        ]
        doc_groups = {
            doc_id: pending
            for doc_id, entries in doc_groups.items()
            if (pending := undecided(doc_id, entries))
        }
        for judge in judges.values():
            result.dag_verdicts += judge.computed
            result.dag_reused += judge.reused
        return copy_entries, doc_groups

    def _refine_parallel(
        self,
        twig: TwigQuery,
        copy_entries: list[IndexEntry],
        doc_groups: dict[int, list[IndexEntry]],
        refiner_kind: str,
    ) -> list[NodePointer]:
        from repro.core.parallel import parallel_refine

        pointers: list[NodePointer] = []
        groups = []
        for entry in copy_entries:
            assert self.index.clustered_store is not None
            seq = len(pointers)
            pointers.append(entry.pointer)
            groups.append(
                (
                    self.index.clustered_store.get_unit_source(entry.record),
                    ((seq, 0),),
                )
            )
        for doc_id in sorted(doc_groups):
            members = []
            for entry in doc_groups[doc_id]:
                members.append((len(pointers), entry.pointer.node_id))
                pointers.append(entry.pointer)
            groups.append((self.index.store.get_source(doc_id), tuple(members)))
        surviving, trace_events = parallel_refine(
            groups, twig, refiner_kind, self.workers, trace=self.obs.tracing
        )
        if trace_events:
            # Reparent the workers' refine-chunk spans under the current
            # query.refine span, in deterministic chunk order.
            self.obs.tracer.absorb(
                trace_events, parent_id=self.obs.tracer.current_id
            )
        return [pointers[seq] for seq in surviving]

    def _parallel_refiner_kind(self) -> str | None:
        """The picklable identity of the refiner, or ``None`` for custom
        engines (which then refine in-process, still grouped)."""
        if isinstance(self.refiner, StructuralJoinEngine):
            return "structural_join"
        if isinstance(self.refiner, NavigationalEngine):
            return "navigational"
        return None

    def _copy_suffices(self, twig: TwigQuery) -> bool:
        """A clustered copy holds the unit down to the index depth limit;
        it answers the query alone iff the query cannot reach deeper."""
        if self.index.clustered_store is None:
            return False
        if self.index.config.depth_limit <= 0:
            return True  # whole-unit copies
        return twig.is_twig() and twig.depth() <= self.index.config.depth_limit


def structure_candidates(index, plan: QueryPlan) -> list[StructureCandidates]:
    """Per structure DAG of ``index`` (one per shard), what a structure
    scan of ``plan`` judges: the refined twig's root label's vertices
    that carry an entry; each document's root vertex when only roots
    can bind (``plan.root_filter``); every entry vertex when a
    ``//``-leading twig may match anywhere inside a unit.  None at all
    when some query label is on no vertex."""
    twig = plan.refined
    found = []
    for owner in getattr(index, "shards", (index,)):
        dag = owner.structure
        judge = TwigVerdicts(dag, twig)
        extent_of = dag.extents().__getitem__
        vertices: Collection[int]
        if not judge.satisfiable:
            vertices = ()
        elif plan.root_filter:
            vertices = roots = dag.document_roots()
            extent_of = roots.__getitem__
        elif twig.leading_axis is Axis.CHILD:
            vertices = dag.carriers(twig.root_label)
        else:
            vertices = dag.carriers()
        found.append((judge, vertices, extent_of))
    return found


def _scan_dag(
    judge: TwigVerdicts,
    vertices: Collection[int],
    extent_of: Callable[[int], Sequence[int]],
) -> tuple[list[int], int]:
    """One DAG's structure scan: the packed pointers of the accepted
    vertices' candidates (unsorted), and how many candidates there
    were."""
    accepts = judge.accepts
    accepted: list[int] = []
    candidates = 0
    for vertex in vertices:
        extent = extent_of(vertex)
        candidates += len(extent)
        if accepts(vertex):
            accepted.extend(extent)
    return accepted, candidates


def _entry_sort_key(entry: IndexEntry) -> tuple[bytes, NodePointer]:
    """(stored key bytes, pointer): index-key order with a pointer
    tie-break, making single-fragment candidate lists deterministic for
    any shard layout."""
    return (entry.raw_key, entry.pointer)
