"""The engine's result layer: the result LRU in front of an optional SQLite file.

The planner consults one :class:`TieredResultStore` to decide which plan
nodes can be pruned before execution; the engine writes every freshly
executed result back through the same object.  The store is therefore
the third layer of the plan/execute split: planning decides *what* to
compute, executors decide *where*, the store decides *whether it was
already computed at all*.

It has two tiers: the engine's in-process
:class:`repro.engine.cache.LRUCache` and, optionally, a
:class:`repro.engine.sqlite_store.SQLiteResultStore` — the one durable
tier, a SQLite file that outlives the process and may be shared by a
whole daemon fleet.  A memory miss reads the file and promotes a hit
into the LRU, so a disk-warm entry becomes memory-warm on first use.

A hit returns a value *equal* to what a fresh computation would produce
— exact ``Fraction`` results make that safe.
"""

from __future__ import annotations

from typing import Union

from repro.engine.cache import CACHE_COUNTERS, LRUCache
from repro.engine.results import BatchResult
from repro.engine.sqlite_store import SQLiteResultStore
from repro.obs import tracing as _tracing
from repro.obs.counters import Counters
from repro.shapley.sampling import SampleState

#: What the store holds: finished results under request keys, and — since
#: the approximation tier — resumable sampler states under the
#: policy-independent ``("sample-state", ...)`` keys of
#: :func:`repro.engine.fingerprint.fingerprint_sample_state`.  The key
#: discipline keeps kinds apart: a result key never yields a state, and
#: vice versa.
StoredValue = Union[BatchResult, SampleState]


class TieredResultStore:
    """The result LRU, then the durable tier, with read-through promotion.

    ``get`` reads ``memory`` and, on a miss, ``shared``, copying a
    durable hit into ``memory``; ``put`` writes through to both (the
    durable write is best effort: it declines values whose constants do
    not survive JSON).  ``stats`` counts store-level hits and misses —
    "did *either* tier have it" — which is the number the planner's
    pruning decisions are based on; each tier keeps its own counters too.
    """

    def __init__(self, memory: LRUCache, shared: SQLiteResultStore | None) -> None:
        self.memory = memory
        self.shared = shared
        self.stats = Counters(*CACHE_COUNTERS)

    def get(self, key: tuple) -> StoredValue | None:
        if _tracing.ACTIVE is None:
            return self._get(key)
        with _tracing.ACTIVE.span("store.get", tier="tiered") as span:
            value = self._get(key)
            span.set("hit", value is not None)
            return value

    def _get(self, key: tuple) -> StoredValue | None:
        value = self.memory.get(key)
        if value is None and self.shared is not None:
            value = self.shared.get(key)
            if value is not None:
                self.memory.put(key, value)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put(self, key: tuple, result: StoredValue) -> None:
        with _tracing.maybe_span(_tracing.ACTIVE, "store.put", tier="tiered"):
            self.memory.put(key, result)
            if self.shared is not None:
                self.shared.put(key, result)


__all__ = ["StoredValue", "TieredResultStore"]
