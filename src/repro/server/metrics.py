"""Live observability of the attribution daemon: histograms and counters.

The daemon's serving claims — warm hits are sub-millisecond, admission
control sheds instead of queueing unboundedly, drain refuses instead of
hanging — are only trustworthy if they are *measured on the serving
path*, not inferred from benchmarks.  This module is that measurement:

* :class:`LatencyHistogram` — fixed log-spaced buckets (the shared
  dialect of :data:`repro.io.LATENCY_BUCKET_BOUNDS_MS`, so every
  histogram the daemon ever emits is mergeable and quantile-comparable
  across operations, daemons, and sessions);
* :class:`OpMetrics` — per-operation request/error counts plus latency;
* :class:`DaemonMetrics` — the daemon-wide ledger: admission outcomes
  (admitted / shed / expired / reaped / drain-refused), queue depth and
  its high-water mark, in-flight gauge, connection counts.

Everything is plain integers that only the daemon's event loop touches,
so the ``metrics`` wire operation is a cheap consistent snapshot — safe
to poll from a monitoring loop at any frequency.  The JSON layout
(``snapshot``) computes p50/p99 through
:func:`repro.io.histogram_quantile`: the same math the CLI's ``repro
metrics`` renderer uses, so daemon-side and client-side percentile
readings can never disagree.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Any

from repro.io import LATENCY_BUCKET_BOUNDS_MS, histogram_quantile, histogram_rows


class LatencyHistogram:
    """Latency observations in the fixed buckets of the metrics dialect."""

    __slots__ = ("counts", "sum_ms", "max_ms")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_BOUNDS_MS) + 1)
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, milliseconds: float) -> None:
        index = bisect.bisect_left(LATENCY_BUCKET_BOUNDS_MS, milliseconds)
        self.counts[index] += 1
        self.sum_ms += milliseconds
        self.max_ms = max(self.max_ms, milliseconds)

    @property
    def count(self) -> int:
        return sum(self.counts)

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold in another histogram's :meth:`snapshot` document.

        Buckets and ``sum_ms`` add, ``max_ms`` takes the maximum — exact,
        because every histogram shares the fixed bucket bounds.
        """
        self.sum_ms += float(snapshot.get("sum_ms", 0.0))
        self.max_ms = max(self.max_ms, float(snapshot.get("max_ms", 0.0)))
        for index, row in enumerate(snapshot.get("buckets", [])[: len(self.counts)]):
            self.counts[index] += int(row[1])

    def snapshot(self) -> dict[str, Any]:
        rows = histogram_rows(self.counts)
        return {
            "count": self.count,
            "sum_ms": round(self.sum_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "p50_ms": histogram_quantile(rows, 0.50),
            "p99_ms": histogram_quantile(rows, 0.99),
            "buckets": rows,
        }


class OpMetrics:
    """One wire operation's request count, error count, and latency."""

    __slots__ = ("requests", "errors", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()


class DaemonMetrics:
    """The daemon-wide metrics ledger behind the ``metrics`` operation.

    Only the daemon's event loop records and takes snapshots, so a
    snapshot never tears — the acceptance bar is that these counters
    reconcile exactly with a client-side request log.
    """

    #: Admission/lifecycle counters, all starting at zero.
    COUNTERS = (
        "admitted",
        "shed_overload",
        "shed_throttled",
        "deadline_expired",
        "drain_refused",
        "reaped_waiters",
        "coalesce_aborted",
        "drained_inflight",
        "slow_frames_closed",
    )

    def __init__(self) -> None:
        self._ops: dict[str, OpMetrics] = {}
        self._counters = {name: 0 for name in self.COUNTERS}
        self.queue_depth = 0
        self.queue_peak = 0
        self.inflight = 0
        self.inflight_peak = 0

    def observe(self, op: str, milliseconds: float, error: bool = False) -> None:
        """Record one finished request of ``op`` (latency in ms)."""
        metrics = self._ops.get(op)
        if metrics is None:
            metrics = self._ops[op] = OpMetrics()
        metrics.requests += 1
        if error:
            metrics.errors += 1
        metrics.latency.observe(milliseconds)

    def bump(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] += amount

    def queue_changed(self, delta: int) -> None:
        self.queue_depth += delta
        self.queue_peak = max(self.queue_peak, self.queue_depth)

    def inflight_changed(self, delta: int) -> None:
        self.inflight += delta
        self.inflight_peak = max(self.inflight_peak, self.inflight)

    def snapshot(
        self, coalescer: dict[str, int] | None = None, draining: bool = False
    ) -> dict[str, Any]:
        """The ``metrics`` operation's JSON document.

        ``coalescer`` merges the daemon's coalescing counters in, so the
        coalescing *ratio* (followers per computed leader) lives next to
        the latency data it explains.
        """
        document: dict[str, Any] = {
            "ops": {
                name: {
                    "requests": metrics.requests,
                    "errors": metrics.errors,
                    "latency": metrics.latency.snapshot(),
                }
                for name, metrics in sorted(self._ops.items())
            },
            "admission": dict(self._counters),
            "queue": {
                "depth": self.queue_depth,
                "peak": self.queue_peak,
                "inflight": self.inflight,
                "inflight_peak": self.inflight_peak,
            },
            "draining": draining,
        }
        if coalescer is not None:
            leaders = coalescer.get("leaders", 0)
            followers = coalescer.get("followers", 0)
            document["coalescing"] = {
                **coalescer,
                "ratio": round(followers / leaders, 4) if leaders else 0.0,
            }
        return document


class SlowTraceBuffer:
    """A bounded buffer keeping the N *slowest* request traces.

    The daemon offers every finished traced request; the buffer admits
    it while under capacity, and past capacity only when it is slower
    than the current fastest resident (which it then evicts).  The
    result — surfaced through the ``metrics`` op as ``slow_traces`` —
    is the post-hoc diagnosis set: "what did the worst requests spend
    their time on", bounded in memory no matter the traffic.  Only the
    daemon's event loop offers and reads, so it needs no lock.
    """

    #: Traces kept.
    CAPACITY = 8

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, dict[str, Any]]] = []
        self._seq = 0
        self.offered = 0
        self.evicted = 0

    def offer(self, document: dict[str, Any], duration_ms: float) -> bool:
        """Admit ``document`` if it ranks among the slowest; True if kept."""
        self.offered += 1
        self._seq += 1
        entry = (float(duration_ms), self._seq, document)
        if len(self._entries) < self.CAPACITY:
            heapq.heappush(self._entries, entry)
            return True
        if self._entries and duration_ms > self._entries[0][0]:
            heapq.heappushpop(self._entries, entry)
            self.evicted += 1
            return True
        self.evicted += 1
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> list[dict[str, Any]]:
        """Resident traces, slowest first, each tagged with ``duration_ms``."""
        ordered = sorted(self._entries, key=lambda entry: -entry[0])
        return [
            {"duration_ms": round(duration, 3), **document}
            for duration, _seq, document in ordered
        ]


__all__ = ["DaemonMetrics", "LatencyHistogram", "OpMetrics", "SlowTraceBuffer"]
