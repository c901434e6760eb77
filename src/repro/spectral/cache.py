"""Cross-document spectral feature cache.

Algorithm 1 memoizes eigen-decompositions per bisimulation vertex, but
that memo lives inside one document's graph: the same depth-limited
subpattern recurring in *another* document pays the O(n³) ``eigvalsh``
again.  On regular data (DBLP-like collections) identical subpatterns
recur across almost every document, so a content-addressed cache keyed by
the pattern itself turns the per-collection eigen cost from "once per
document per class" into "once per distinct pattern".

The cache key is a **canonical signature** of the labeled pattern DAG:

* every vertex is reduced, bottom-up, to
  ``blake2b(label · 0x00 · sorted child signatures)`` (16-byte digests);
* the graph's signature is its root's digest.

Child digests are byte-sorted, so the signature depends only on the
vertex's label and the *set* of child patterns — exactly Definition 3's
downward-bisimilarity signature — and not on vertex ids, discovery
order, or which document the pattern came from.  For the minimal graphs
a :class:`~repro.bisim.builder.BisimGraphBuilder` produces, two graphs
share a signature iff they are isomorphic (up to blake2b collisions,
which at 128 bits are negligible against any realistic pattern count).

Soundness: the feature key of a pattern is a function of (a) its labeled
structure and (b) the shared :class:`~repro.spectral.encoding
.EdgeLabelEncoder`, because every matrix weight is ``encoder(parent
label, child label)`` and eigenvalues are permutation-invariant.
Isomorphic patterns therefore have identical feature keys *under the
same encoder* — which is why a :class:`FeatureCache` must be scoped to
one encoder (one index build) and must never be shared across encoders.

The all-covering fallback range for over-large patterns is **never**
cached: it is not a real feature of the pattern but an artifact of the
configured size caps, and callers decide the fallback themselves (see
``EntryGenerator._vertex_features``).
"""

from __future__ import annotations

from repro.bisim.dag import SIGNATURE_BYTES, vertex_signature
from repro.bisim.graph import BisimGraph
from repro.spectral.features import FeatureKey

__all__ = [
    "SIGNATURE_BYTES",
    "FeatureCache",
    "pattern_signature",
    "vertex_signature",
]


def pattern_signature(graph: BisimGraph) -> bytes:
    """Canonical signature of a pattern graph (its root's signature)."""
    return vertex_signature(graph.root)


class FeatureCache:
    """Content-addressed ``signature -> FeatureKey`` cache.

    One instance per encoder (per index build, or per parallel worker).
    :class:`~repro.spectral.features.FeatureKey` is frozen, so cached
    keys are shared safely between entries and across documents.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, FeatureKey] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, signature: bytes) -> FeatureKey | None:
        """The cached key for ``signature``, counting a hit or miss."""
        key = self._entries.get(signature)
        if key is None:
            self.misses += 1
        else:
            self.hits += 1
        return key

    def store(self, signature: bytes, key: FeatureKey) -> None:
        """Cache a computed feature key.

        The all-covering fallback is a cap artifact, not a pattern
        feature; storing it would be a correctness hazard if caps ever
        differed between cache users, so it is rejected loudly.
        """
        if key.range.is_all_covering():
            raise ValueError("the all-covering fallback range must not be cached")
        self._entries[signature] = key

    def stats_dict(self) -> dict:
        """Size and hit/miss accounting, for metrics publication
        (``build.cache.*`` in the ``repro.obs`` registry) and reports."""
        lookups = self.hits + self.misses
        return {
            "patterns": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: bytes) -> bool:
        return signature in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureCache({len(self._entries)} patterns, "
            f"{self.hits} hits, {self.misses} misses)"
        )
