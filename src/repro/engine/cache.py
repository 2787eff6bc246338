"""Bounded LRU caches with hit/miss accounting.

The batch engine memoizes expensive intermediate results (per-component
count bundles, whole batch results, residual #SAT component counts) so
that repeated and overlapping requests share work.  Both the engine and
:mod:`repro.logic.counting` use this cache, so it lives in its own
dependency-free module.

Exact rational results make caching semantically safe: a hit returns a
value that is *equal*, not merely approximately equal, to what a fresh
computation would produce.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

from repro.obs.counters import Counters

Value = TypeVar("Value")


#: Cache accounting: ``hits`` and ``misses`` count lookups, ``evictions``
#: the entries dropped to stay within the bound.
CACHE_COUNTERS = ("hits", "misses", "evictions")


class LRUCache(Generic[Value]):
    """A bounded mapping with least-recently-used eviction.

    ``maxsize <= 0`` disables storage entirely (every lookup misses),
    which keeps call sites free of ``if cache is not None`` branches.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.stats = Counters(*CACHE_COUNTERS)
        self._entries: OrderedDict[Hashable, Value] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Value | None:
        """The cached value, or None; counts a hit or a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def peek(self, key: Hashable) -> Value | None:
        """The cached value without touching recency or the counters.

        Executors use this to decide which plan nodes still need work;
        a peek must not perturb the hit/miss accounting that the actual
        execution will produce.
        """
        return self._entries.get(key)

    def seed(self, key: Hashable, value: Value) -> None:
        """Insert a value computed elsewhere (a worker process), silently.

        Same storage semantics as :meth:`put`; the name marks merge
        points where the value was *not* produced by this process's
        lookup flow, so no hit or miss is recorded.
        """
        self.put(key, value)

    def put(self, key: Hashable, value: Value) -> None:
        if self.maxsize <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Value]) -> Value:
        """Cached value for ``key``, computing and storing it on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (the statistics counters are kept)."""
        self._entries.clear()


class BundlePool:
    """A call-scoped, unbounded overlay on top of a backing :class:`LRUCache`.

    The groundings of one non-Boolean query differ only in their head
    constants, so most of their Gaifman components are *identical* across
    answers.  A pool pins every component bundle computed during one
    answer-batch call in an unbounded local dict — immune to LRU eviction
    mid-run — while still reading from and writing through to the backing
    engine cache so the work outlives the call.

    The pool quacks like an :class:`LRUCache` for the single method the
    bundle recursion uses (:meth:`get_or_compute`); ``stats`` counts
    pool-level hits (local *or* backing) and misses.
    """

    def __init__(self, backing: LRUCache) -> None:
        self.backing = backing
        self.stats = Counters(*CACHE_COUNTERS)
        self._local: dict[Hashable, Value] = {}

    def __len__(self) -> int:
        return len(self._local)

    def peek(self, key: Hashable) -> Value | None:
        """Local or backing value without touching recency or counters."""
        if key in self._local:
            return self._local[key]
        return self.backing.peek(key)

    def seed(self, key: Hashable, value: Value) -> None:
        """Merge a worker-computed bundle: pin locally, write through.

        Like :meth:`get_or_compute`'s miss path but without counting a
        hit or a miss — the sharded executor seeds bundles it shipped to
        worker processes, and only the recursion's own lookups should
        show up in the pool statistics.
        """
        self._local[key] = value
        self.backing.put(key, value)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Value]) -> Value:
        """Local dict first, then the backing cache, then ``compute``."""
        if key in self._local:
            self.stats.hits += 1
            return self._local[key]
        value = self.backing.get(key)
        if value is not None:
            self.stats.hits += 1
            self._local[key] = value
            return value
        self.stats.misses += 1
        value = compute()
        self._local[key] = value
        self.backing.put(key, value)
        return value
