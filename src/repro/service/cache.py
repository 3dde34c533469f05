"""Keyed configuration cache: the paper's amortization made explicit.

Kylix's central cost argument (§III, §VI) is that one *configuration* —
the down-pass position maps built from a sparsity pattern — is reused
across many reductions with the same pattern.  :class:`ConfigCache`
turns that reuse into a first-class, observable object: a bounded LRU
map from a :func:`spec_fingerprint` (degree stack + operator + dtype +
the exact per-rank index sets) to the memoised
:class:`~repro.allreduce.NodePlan` table a configuration produced.

Keying on the *full* index-set bytes makes staleness impossible by
construction: a drifted sparsity pattern hashes to a different
fingerprint and can never be served another pattern's maps.  Drift is
still an *event* worth seeing — a stream whose pattern changed pays a
reconfiguration — so :meth:`ConfigCache.invalidate` records it (the
``config.cache.invalidations`` counter) without evicting the superseded
entry: epoch-style workloads that alternate A → B → A (the SGD loop in
:mod:`repro.apps.sgd`) still hit on the swing back.  Capacity eviction
is LRU and counts under ``config.cache.evictions``.

Every consult emits the reserved ``config.cache.{hits,misses}``
counters from the observability catalogue
(``docs/observability.md``), so a trace of a served workload shows the
amortization directly.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..obs import NULL_OBSERVER

__all__ = ["spec_fingerprint", "CacheEntry", "ConfigCache"]


def spec_fingerprint(
    spec,
    degrees: Sequence[int],
    *,
    multiplier: Optional[int] = None,
    extra: str = "",
) -> str:
    """Content hash of everything a configuration depends on.

    Covers the degree stack, reduction operator, dtype, value shape, the
    hash multiplier (a different hasher routes keys differently), and the
    exact per-rank in/out index bytes.  Two specs with equal fingerprints
    produce byte-identical position maps; two specs that differ anywhere
    a plan could notice produce different fingerprints.
    """
    h = hashlib.sha256()
    h.update(np.asarray(list(degrees), dtype=np.int64).tobytes())
    h.update(str(spec.op).encode())
    h.update(np.dtype(spec.dtype).str.encode())
    h.update(repr(tuple(spec.value_shape)).encode())
    if multiplier is not None:
        h.update(int(multiplier).to_bytes(16, "little", signed=False))
    if extra:
        h.update(extra.encode())
    for rank in spec.ranks:
        h.update(b"#")
        h.update(int(rank).to_bytes(8, "little", signed=False))
        h.update(np.asarray(spec.in_indices[rank], dtype=np.int64).tobytes())
        h.update(b"|")
        h.update(np.asarray(spec.out_indices[rank], dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass
class CacheEntry:
    """One memoised configuration."""

    fingerprint: str
    plans: Dict[int, Any]  # rank -> NodePlan ({} on forked backends: plans live in the workers)
    spec: Any = None


class ConfigCache:
    """Bounded LRU of memoised configurations, instrumented.

    All four ``config.cache.*`` counters are emitted through ``obs`` (a
    no-op on the shared ``NULL_OBSERVER``), and the same tallies are kept
    as plain attributes so un-observed callers can still read
    :attr:`stats`.
    """

    def __init__(self, maxsize: int = 8, *, obs=NULL_OBSERVER):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.obs = obs
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def lookup(self, fingerprint: str) -> Optional[CacheEntry]:
        """One cache consult: returns the entry (freshened to MRU) or
        ``None``, emitting ``config.cache.hits`` / ``.misses``."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            self.obs.counter("config.cache.misses").inc(phase="config")
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        self.obs.counter("config.cache.hits").inc(phase="config")
        return entry

    def store(self, fingerprint: str, plans: Dict[int, Any], spec: Any = None) -> CacheEntry:
        """Memoise a configuration; LRU-evicts past :attr:`maxsize`."""
        entry = CacheEntry(fingerprint=fingerprint, plans=plans, spec=spec)
        self._entries[fingerprint] = entry
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.obs.counter("config.cache.evictions").inc(phase="config")
        return entry

    def invalidate(self, fingerprint: str) -> None:
        """Record that a stream's pattern drifted away from ``fingerprint``.

        Counts under ``config.cache.invalidations``.  The superseded
        entry is *kept* (fingerprint keying already guarantees it can
        never serve the drifted pattern), so an A → B → A epoch replay
        still hits; capacity pressure retires it through plain LRU.
        """
        self.invalidations += 1
        self.obs.counter("config.cache.invalidations").inc(phase="config")

    def evict(self, fingerprint: str) -> bool:
        """Drop one entry explicitly (counts as an eviction)."""
        if self._entries.pop(fingerprint, None) is None:
            return False
        self.evictions += 1
        self.obs.counter("config.cache.evictions").inc(phase="config")
        return True

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": len(self._entries),
        }
