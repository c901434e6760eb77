"""Assemble an in-memory tree from an event stream.

The builder is the inverse of :func:`repro.xmltree.events.tree_events`;
the bisimulation traveler tests use it to materialize depth-limited
unfoldings.  (The parser builds its tree directly and does not come
through here.)
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import XMLSyntaxError
from repro.xmltree.events import CloseEvent, Event, OpenEvent, TextEvent
from repro.xmltree.model import Document, Element


class TreeBuilder:
    """Incremental tree construction from push-style events.

    Feed events with :meth:`feed` (or drive a whole iterable through
    :meth:`feed_all`) and call :meth:`finish` to obtain the
    :class:`Document`.
    """

    def __init__(self, doc_id: int = 0) -> None:
        self._doc_id = doc_id
        self._stack: list[Element] = []
        self._root: Element | None = None

    def feed(self, event: Event) -> None:
        """Consume a single event."""
        if isinstance(event, OpenEvent):
            attributes = getattr(event, "attributes", None)
            element = Element(event.label, dict(attributes) if attributes else None)
            if self._stack:
                self._stack[-1].append(element)
            elif self._root is None:
                self._root = element
            else:
                raise XMLSyntaxError("multiple root elements in event stream")
            self._stack.append(element)
        elif isinstance(event, CloseEvent):
            if not self._stack:
                raise XMLSyntaxError(
                    f"close event {event.label!r} with no open element"
                )
            top = self._stack.pop()
            if top.tag != event.label:
                raise XMLSyntaxError(
                    f"close event {event.label!r} does not match open "
                    f"element {top.tag!r}"
                )
        elif isinstance(event, TextEvent):
            if not self._stack:
                raise XMLSyntaxError("text event outside any element")
            self._stack[-1].add_text(event.value)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown event type: {event!r}")

    def feed_all(self, events: Iterable[Event]) -> "TreeBuilder":
        """Consume every event in ``events`` and return ``self``."""
        for event in events:
            self.feed(event)
        return self

    def finish(self) -> Document:
        """Validate completeness and return the built document."""
        if self._stack:
            raise XMLSyntaxError(
                f"event stream ended with {len(self._stack)} unclosed element(s)"
            )
        if self._root is None:
            raise XMLSyntaxError("event stream contained no elements")
        return Document(self._root, doc_id=self._doc_id)


def tree_from_events(events: Iterable[Event], doc_id: int = 0) -> Document:
    """Build a :class:`Document` from a complete event stream."""
    return TreeBuilder(doc_id=doc_id).feed_all(events).finish()
