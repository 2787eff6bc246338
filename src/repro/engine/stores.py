"""The result-store layer: interchangeable homes for finished results.

The planner consults exactly one object — a :class:`ResultStore` — to
decide which plan nodes can be pruned before execution; the engine writes
every freshly executed result back through the same object.  Stores are
therefore the third layer of the plan/execute split: planning decides
*what* to compute, executors decide *where*, stores decide *whether it
was already computed at all*.

Two concrete stores plus one combinator cover the engine's needs:

* :class:`MemoryResultStore` — the in-process LRU
  (:class:`repro.engine.cache.LRUCache`) behind the store interface;
* :class:`repro.engine.sqlite_store.SQLiteResultStore` — the one durable
  tier: a SQLite file that outlives the process and may be shared by a
  whole daemon fleet (already a conforming store:
  ``get``/``put``/``stats``);
* :class:`TieredResultStore` — an ordered chain (fastest first) with
  read-through promotion: a hit in a slower tier is copied into every
  faster tier, so a disk-warm entry becomes memory-warm on first use.
  The engine builds it as memory → durable.

All stores share the contract that a hit returns a value *equal* to what
a fresh computation would produce — exact ``Fraction`` results make that
safe — and count hits, misses and evictions in a
:class:`repro.obs.counters.Counters` named ``stats``.
"""

from __future__ import annotations

from typing import Protocol, Union, runtime_checkable

from repro.engine.cache import CACHE_COUNTERS, LRUCache
from repro.engine.results import BatchResult
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.shapley.sampling import SampleState

#: What a store holds: finished results under request keys, and — since
#: the approximation tier — resumable sampler states under the
#: policy-independent ``("sample-state", ...)`` keys of
#: :func:`repro.engine.fingerprint.fingerprint_sample_state`.
StoredValue = Union[BatchResult, SampleState]


@runtime_checkable
class ResultStore(Protocol):
    """Anything that can answer "was this request already computed?".

    Keys are the canonical request fingerprints of
    :func:`repro.engine.fingerprint.fingerprint_request` (plus the
    ``("sampled", ...)`` / ``("sample-state", ...)`` derivatives of the
    approximation tier); values are :data:`StoredValue` objects.  The
    key discipline keeps kinds apart — a result key never yields a
    state, and vice versa.  ``get`` counts a hit or a miss on ``stats``;
    ``put`` is best effort (a store may decline an entry, e.g.
    non-JSON-safe constants on disk).
    """

    stats: Counters

    def get(self, key: tuple) -> StoredValue | None: ...

    def put(self, key: tuple, result: StoredValue) -> object: ...


class MemoryResultStore:
    """The in-process result store: an LRU cache behind the store API.

    Wraps a caller-supplied :class:`LRUCache` (the engine passes its
    ``result_cache`` so the historical ``stats["results"]`` counters keep
    ticking) or owns a fresh one.
    """

    def __init__(self, cache: LRUCache | None = None, maxsize: int = 128) -> None:
        self.cache = cache if cache is not None else LRUCache(maxsize)

    @property
    def stats(self) -> Counters:
        return self.cache.stats

    def __len__(self) -> int:
        return len(self.cache)

    def get(self, key: tuple) -> StoredValue | None:
        if _tracing.ACTIVE is None:
            return self.cache.get(key)
        with _tracing.ACTIVE.span("store.get", tier="memory") as span:
            value = self.cache.get(key)
            span.set("hit", value is not None)
            return value

    def put(self, key: tuple, result: StoredValue) -> bool:
        with _tracing.maybe_span(_tracing.ACTIVE, "store.put", tier="memory"):
            self.cache.put(key, result)
        return True

    def clear(self) -> None:
        self.cache.clear()


class TieredResultStore:
    """An ordered chain of stores with read-through promotion.

    ``get`` consults the tiers fastest-first and copies a slow hit into
    every faster tier (a disk-warm entry is served from memory next
    time); ``put`` writes through to all tiers.  ``stats`` counts
    chain-level hits and misses — "did *any* tier have it" — which is the
    number the planner's pruning decisions are based on; per-tier
    counters remain available on the tiers themselves.
    """

    def __init__(self, *tiers: ResultStore | None) -> None:
        self.tiers: list[ResultStore] = [tier for tier in tiers if tier is not None]
        self.stats = Counters(*CACHE_COUNTERS)

    def get(self, key: tuple) -> StoredValue | None:
        if _tracing.ACTIVE is None:
            return self._get(key)
        with _tracing.ACTIVE.span("store.get", tier="tiered") as span:
            value = self._get(key)
            span.set("hit", value is not None)
            return value

    def _get(self, key: tuple) -> StoredValue | None:
        for position, tier in enumerate(self.tiers):
            value = tier.get(key)
            if value is not None:
                for faster in self.tiers[:position]:
                    faster.put(key, value)
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: tuple, result: StoredValue) -> bool:
        with _tracing.maybe_span(_tracing.ACTIVE, "store.put", tier="tiered"):
            stored = False
            for tier in self.tiers:
                if tier.put(key, result) is not False:
                    stored = True
            return stored


__all__ = ["MemoryResultStore", "ResultStore", "StoredValue", "TieredResultStore"]
