"""Per-layer timers installed from outside the engine.

:class:`LayerRecorder` wraps the public call sites of each engine layer
— module-level names the engine looks up at call time, and methods of
the store classes — so no tracing code lives in ``src/``.  Every
wrapper keeps a per-thread stack, which turns inclusive times into
*self* times: a layer's time minus the time of the wrapped calls it
makes into the layers below it (``plan`` minus its ``store.get``,
``bundles`` minus ``kernels``, ``execute`` minus everything it runs).

Layers and the call sites that measure them:

=============  ==========================================================
``plan``       ``repro.engine.core.build_plan``
``execute``    ``repro.engine.executors.SerialExecutor.execute``
``bundles``    ``repro.engine.executors.batch_count_vectors``
``kernels``    ``repro.util.kernels.convolve`` (every pairwise product)
``results``    ``repro.engine.executors.result_from_vectors``
``store.*``    ``TieredResultStore.get``/``put``, ``SQLiteResultStore.retire``
``sampler``    ``repro.engine.executors.run_rounds``
=============  ==========================================================
"""

from __future__ import annotations

import threading
import time
from collections import Counter

#: Operand length at or below which a convolution counts as long × short.
SHORT_OPERAND = 8

class LayerRecorder:
    """Self times and work counters of the engine's layers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer: str, function, account=None):
        """``function`` wrapped to charge its self time to ``layer``.

        ``account(result, args)`` updates the layer's work counters from
        the call's arguments and result.
        """

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]  # time spent in wrapped callees
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_seconds[layer] += elapsed - frame[0]
                    self.counts[f"{layer}.calls"] += 1
            if account is not None:
                with self._lock:
                    account(result, args)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _patch(self, owner, name: str, layer: str, account=None) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self._timed(layer, original, account))

    # ------------------------------------------------------------------
    # Work counters
    # ------------------------------------------------------------------
    def _count_plan(self, plan, args) -> None:
        self.counts["plan.requested"] += plan.stats.requested
        self.counts["plan.pruned"] += plan.stats.pruned

    def _count_execute(self, outcome, args) -> None:
        self.counts["execute.tasks"] += outcome[1].tasks

    def _count_convolve(self, result, args) -> None:
        left, right = len(args[0]), len(args[1])
        self.counts["kernels.mul_ops"] += left * right
        if min(left, right) <= SHORT_OPERAND:
            self.counts["kernels.long_short_calls"] += 1

    def _count_get(self, value, args) -> None:
        if value is not None:
            self.counts["store.hits"] += 1

    def _count_rounds(self, outcome, args) -> None:
        self.counts["sampler.rounds"] += args[4]
        self.counts["sampler.evaluations"] += outcome[1]

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "LayerRecorder":
        from repro.engine import core, executors, sqlite_store, stores
        from repro.util import kernels

        self._patch(core, "build_plan", "plan", self._count_plan)
        self._patch(
            executors.SerialExecutor, "execute", "execute", self._count_execute
        )
        self._patch(executors, "batch_count_vectors", "bundles")
        self._patch(kernels, "convolve", "kernels", self._count_convolve)
        self._patch(executors, "result_from_vectors", "results")
        self._patch(stores.TieredResultStore, "get", "store.get", self._count_get)
        self._patch(stores.TieredResultStore, "put", "store.put")
        self._patch(sqlite_store.SQLiteResultStore, "retire", "store.retire")
        self._patch(executors, "run_rounds", "sampler", self._count_rounds)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-ready copy of the accumulated times and counters."""
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts),
            }


def work_counters(snapshot: dict[str, object]) -> dict[str, int]:
    """The deterministic work counters of one recorder snapshot.

    Taken over a fixed unit of work, these repeat exactly across runs
    of one seed, unlike the times, so they are the exact-count basis
    for comparing two versions of the engine.
    """
    counts = snapshot["counts"]
    return {
        "execute.tasks": counts.get("execute.tasks", 0),
        "bundles.calls": counts.get("bundles.calls", 0),
        "kernels.convolve_calls": counts.get("kernels.calls", 0),
        "kernels.mul_ops": counts.get("kernels.mul_ops", 0),
        "sampler.rounds": counts.get("sampler.rounds", 0),
        "sampler.evaluations": counts.get("sampler.evaluations", 0),
        "store.get_calls": counts.get("store.get.calls", 0),
        "store.put_calls": counts.get("store.put.calls", 0),
    }


def layer_metrics(
    snapshot: dict[str, object], requests: int, counters: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a snapshot taken over ``requests`` requests.

    Times are mean self milliseconds per request and ratios are over
    the whole snapshot; the counts are ``counters``, the work counters
    of the run's first fixed unit of work, so that they repeat.
    """
    seconds = snapshot["self_seconds"]
    counts = snapshot["counts"]

    def per_request_ms(layer: str) -> float:
        return 1000.0 * seconds.get(layer, 0.0) / max(1, requests)

    def ratio(part: str, whole: str) -> float:
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    metrics = {
        f"{layer}.ms": (per_request_ms(layer), "ms")
        for layer in ("plan", "execute", "bundles", "results", "sampler")
    }
    metrics.update(
        {
            "plan.pruned_ratio": (ratio("plan.pruned", "plan.requested"), "ratio"),
            "kernels.convolve_ms": (per_request_ms("kernels"), "ms"),
            "kernels.long_short_share": (
                ratio("kernels.long_short_calls", "kernels.calls"),
                "ratio",
            ),
            "store.get_ms": (per_request_ms("store.get"), "ms"),
            "store.put_ms": (per_request_ms("store.put"), "ms"),
            "store.retire_ms": (per_request_ms("store.retire"), "ms"),
            "store.hit_ratio": (ratio("store.hits", "store.get.calls"), "ratio"),
        }
    )
    for name, value in counters.items():
        metrics[name] = (float(value), "count")
    return metrics

