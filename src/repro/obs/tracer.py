"""Hierarchical spans with a JSONL serialization (DESIGN.md §10).

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("build.eigen.batch", matrices=42) as span:
        ...
        span.set(buckets=3)

Spans nest through a per-tracer stack: the span open when another opens
becomes its parent, exceptions included (``__exit__`` always closes the
span, tagging it with the exception type before re-raising).  Closed
spans become plain event dicts, dumped one-per-line by
:meth:`Tracer.write_jsonl`.

**Disabled fast path.**  A disabled tracer returns :data:`NOOP_SPAN` — a
single cached module-level singleton whose ``__enter__``/``__exit__``/
``set`` are no-ops — so an instrumentation point in a hot loop costs one
attribute check and two trivially inlined calls.  The budget is <2 % of
build time with observability off (met when measured in PR 5, see
CHANGES.md); what switching tracing *on* costs a query is the harness
metric ``obs.tracing_on_ratio`` (perf/README.md).

**Cross-process merging.**  Worker processes run their own tracers and
ship their event lists back with their results; the coordinator calls
:meth:`Tracer.absorb` on them *in chunk order* — the same deterministic
order the staged entries and refinement verdicts are concatenated in —
remapping span ids into the coordinator's id space and re-parenting the
workers' root spans under the coordinator's enclosing span.  Tracing
therefore never perturbs the build's byte-identity or the query
pipeline's pointer-ordered results: it only observes them.

Event schema (one JSON object per line)::

    {"type": "span", "run": "<process-run tag>", "id": 7, "parent": 3,
     "proc": "worker-1", "name": "build.doc", "start": <unix seconds>,
     "dur": <seconds>, "attrs": {...}, "error": "ValueError"?}
    {"type": "metrics", "run": ..., "proc": ..., "snapshot": {...}}
"""

from __future__ import annotations

import json
import os
import sys
import time

__all__ = [
    "NOOP_SPAN", "Span", "Tracer", "read_trace", "scan_trace", "write_trace",
]


class _NoopSpan:
    """The do-nothing span a disabled tracer hands out (a singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


#: The cached no-op singleton: every disabled-mode ``span()`` call
#: returns this exact object, allocating nothing.
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed, hierarchical operation."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "_wall", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int,
        parent_id: int | None, attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._wall = 0.0
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self.span_id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack
        # The span is closed even when the body raised; a crashed child
        # must not orphan its siblings, so the stack is popped back to
        # (and including) this span.
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        event = {
            "type": "span",
            "run": self._tracer.run,
            "id": self.span_id,
            "parent": self.parent_id,
            "proc": self._tracer.proc,
            "name": self.name,
            "start": self._wall,
            "dur": duration,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        self._tracer.events.append(event)
        return False


class Tracer:
    """Span factory + event buffer for one process (or worker)."""

    def __init__(self, enabled: bool = True, proc: str = "main") -> None:
        self.enabled = enabled
        self.proc = proc
        #: distinguishes flushes from different processes/invocations in
        #: one shared JSONL file (span ids are only unique per run).
        self.run = f"{os.getpid():x}-{time.monotonic_ns():x}"
        self.events: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1

    def span(self, name: str, **attrs):
        """A context manager timing one operation (no-op when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, span_id, parent, attrs)

    @property
    def current_id(self) -> int | None:
        """The innermost open span's id (``None`` at top level)."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------ #
    # Worker-trace merging
    # ------------------------------------------------------------------ #

    def absorb(self, events: list[dict], parent_id: int | None = None) -> None:
        """Merge other tracers' closed events into this one.

        ``events`` may be the concatenation of several workers' streams:
        every worker numbers its spans from 1, so the remap is keyed by
        ``(run, id)`` — the ``run`` tag is unique per tracer — and each
        worker's ids stay distinct in the merged trace.  New ids are
        assigned in event order (absorbing worker traces in chunk order
        is therefore deterministic); each incoming trace's top-level
        spans are re-parented under ``parent_id``.  ``proc`` tags are
        kept, so the merged trace still says which worker did what.
        """
        if not events:
            return
        base = self._next_id
        remap: dict[tuple[str | None, int], int] = {}
        for event in events:
            if event.get("type") == "span":
                key = (event.get("run"), event["id"])
                if key not in remap:
                    remap[key] = base + len(remap)
        self._next_id = base + len(remap)
        for event in events:
            event = dict(event)
            if event.get("type") == "span":
                run = event.get("run")
                event["id"] = remap[(run, event["id"])]
                old_parent = event.get("parent")
                event["parent"] = (
                    remap.get((run, old_parent), parent_id)
                    if old_parent is not None
                    else parent_id
                )
                event["run"] = self.run
            self.events.append(event)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def write_jsonl(self, path: str, append: bool = False) -> int:
        """Dump the buffered events to ``path``; returns the line count."""
        return write_trace(self.events, path, append=append)

    def clear(self) -> None:
        self.events.clear()


def write_trace(events: list[dict], path: str, append: bool = False) -> int:
    """Write ``events`` as JSONL (one compact object per line)."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    return len(events)


def scan_trace(
    path: str, strict: bool = False, warn: bool = True
) -> tuple[list[dict], int]:
    """Load a JSONL trace, tolerating damage: ``(events, skipped)``.

    Trace files get truncated (a process killed mid-append), rotated
    under a reader, or corrupted mid-line (two writers without
    ``append`` discipline).  None of that should take down ``repro
    trace`` over the surviving records, so malformed lines are
    *skipped* — counted, and warned about once per file on stderr —
    unless ``strict=True``, which restores the raising behaviour for
    callers that treat any damage as fatal.  Blank lines are always
    skipped silently; an empty file is an empty trace, not an error.
    """
    events: list[dict] = []
    skipped = 0
    first_bad: str | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: not a JSON object"
                    ) from exc
                skipped += 1
                if first_bad is None:
                    first_bad = f"{path}:{lineno}"
                continue
            if not isinstance(record, dict):
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: not a JSON object"
                    )
                skipped += 1
                if first_bad is None:
                    first_bad = f"{path}:{lineno}"
                continue
            events.append(record)
    if skipped and warn:
        print(
            f"warning: skipped {skipped} malformed trace record(s) "
            f"(first at {first_bad})",
            file=sys.stderr,
        )
    return events, skipped


def read_trace(path: str, strict: bool = False) -> list[dict]:
    """Load a JSONL trace written by :func:`write_trace`.

    Malformed or truncated lines are skipped with a stderr warning (see
    :func:`scan_trace` for the full policy and the skip count);
    ``strict=True`` raises ``ValueError`` with the line number instead.
    """
    return scan_trace(path, strict=strict)[0]
