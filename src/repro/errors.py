"""Exception hierarchy for the FIX reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class XMLSyntaxError(ReproError):
    """Raised when the XML tokenizer or parser encounters malformed input.

    Attributes:
        position: byte offset into the input where the error was detected,
            or ``None`` if unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class QuerySyntaxError(ReproError):
    """Raised when a path expression cannot be parsed.

    Attributes:
        position: character offset into the expression, or ``None``.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class UnsupportedQueryError(ReproError):
    """Raised when a syntactically valid query is outside the supported
    fragment (e.g. an axis other than ``/`` and ``//``, or a KindTest)."""


class IndexCoverageError(ReproError):
    """Raised when a query is not covered by an index.

    The paper's query processor (Algorithm 2, line 1) must check that the
    index depth limit is at least the depth of the twig query; when the
    check fails the optimizer should fall back to a full scan rather than
    use the index, and this exception signals that situation.
    """


class StorageError(ReproError):
    """Base class for storage-engine failures (pager, records, stores)."""


class PageError(StorageError):
    """Raised for invalid page ids or corrupted page contents."""


class ShardError(PageError):
    """Raised when one shard of a sharded index fails during a
    scatter-gather operation.  Subclasses :class:`PageError` because the
    dominant cause is page-level damage inside a single shard; the
    message always names the failing shard so operators can repair or
    rebuild it without touching its siblings.

    Attributes:
        shard: the failing shard's number.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class RecordError(StorageError):
    """Raised for invalid record pointers or corrupted records."""


class BTreeError(ReproError):
    """Raised for internal B+tree inconsistencies (corrupt nodes, bad
    key encodings).  A user should never see this under normal operation;
    it indicates either on-disk corruption or a library bug."""


class BisimulationError(ReproError):
    """Raised when bisimulation-graph construction receives an ill-formed
    event stream (e.g. a close event with no matching open event)."""


class FeatureError(ReproError):
    """Raised when spectral feature extraction fails (e.g. a pattern whose
    matrix exceeds the configured size limit *and* fallback is disabled)."""


class PatternTooLargeError(FeatureError):
    """Raised when a pattern has more vertices than a size cap allows.

    The paper handles over-large subpatterns (more than ~3000 edges) by
    skipping eigenvalue computation and indexing them under the artificial
    all-covering range (Section 6.1).  The index construction code catches
    this exception and applies that fallback; the exception is only
    user-visible when feature extraction is invoked directly.
    """

    def __init__(self, message: str, size: int | None = None) -> None:
        super().__init__(message)
        self.size = size
