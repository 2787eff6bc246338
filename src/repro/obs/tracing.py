"""Hierarchical spans with monotonic-clock durations.

A :class:`Tracer` records a tree of :class:`Span` objects for one
request.  Spans nest through a context-manager API::

    tracer = Tracer()
    with tracer.span("request", kind="batch"):
        with tracer.span("plan") as span:
            span.set("planned", 3)

Timestamps are ``time.perf_counter()`` offsets from the tracer's own
origin, so a finished trace is self-contained and survives the wire:
:meth:`Tracer.document` emits a plain-dict form (microsecond integers)
that rides a daemon response envelope unchanged.

Cross-process propagation: a worker builds its own ``Tracer``, returns
:meth:`Tracer.shipment`, and the dispatching process folds it in with
:meth:`Tracer.merge_shipment` — shipped spans are re-parented under the
dispatch span, shifted onto the parent's clock, clamped into the
dispatch window, and placed on a fresh *lane* (rendered as a separate
thread row in the Chrome export).

The module-level :data:`ACTIVE` global lets leaf layers (kernel
convolutions, sampler rounds, store tiers) emit spans without threading
a tracer through every call signature: the engine activates its tracer
for the duration of a request via :func:`activate`, and hot paths guard
on ``ACTIVE is not None`` — a single global load when tracing is off.
"""

from __future__ import annotations

import hashlib
import os
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "ACTIVE",
    "Span",
    "Tracer",
    "activate",
    "label",
    "maybe_span",
]


class Span:
    """One timed node in a trace tree.  Mutable, slot-backed."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs", "lane")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict[str, Any],
        lane: int = 0,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs
        self.lane = lane

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(id={self.span_id}, parent={self.parent_id}, "
            f"name={self.name!r}, dur={self.duration * 1e3:.3f}ms)"
        )


class _SpanHandle:
    """Context manager closing one open span on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span, failed=exc_type is not None)
        return False


class _NullSpan:
    """Inert stand-in satisfying the ``Span`` surface used by callers."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    @property
    def duration(self) -> float:
        return 0.0


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects the spans of one request into a self-contained document.

    :attr:`MAX_SPANS` bounds memory on pathological plans: once the creation
    budget is exhausted, :meth:`span` hands back a no-op handle (and
    bumps ``dropped``), so descendants of a dropped span simply parent
    to the nearest *recorded* ancestor — the tree never contains
    orphans.  A span that is created is always recorded.
    """

    enabled = True
    #: Spans one trace may create before further spans are dropped.
    MAX_SPANS = 20_000

    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex[:16]
        self.pid = os.getpid()
        self.dropped = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._created = 0
        self._next_id = 1
        self._next_lane = 1
        self._origin = time.perf_counter()

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer's origin (monotonic)."""
        return time.perf_counter() - self._origin

    # -- span creation -------------------------------------------------

    @property
    def current_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` at the root."""
        return self._stack[-1].span_id if self._stack else None

    def span(self, name: str, **attrs: Any) -> _SpanHandle | _NullHandle:
        """Open a child span of the innermost open span."""
        if self._created >= self.MAX_SPANS:
            self.dropped += 1
            return _NULL_HANDLE
        self._created += 1
        span = Span(self._next_id, self.current_id, name, self.now(), attrs)
        self._next_id += 1
        self._stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span, *, failed: bool) -> None:
        span.end = self.now()
        if failed:
            span.attrs["error"] = True
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # tolerate out-of-order exits rather than corrupt the tree
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        self.spans.append(span)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent_id: int | None = None,
        lane: int = 0,
        **attrs: Any,
    ) -> Span | None:
        """Record an already-timed span (e.g. a dispatch window)."""
        if self._created >= self.MAX_SPANS:
            self.dropped += 1
            return None
        self._created += 1
        parent = parent_id if parent_id is not None else self.current_id
        span = Span(self._next_id, parent, name, start, dict(attrs), lane)
        self._next_id += 1
        span.end = max(end, start)
        self.spans.append(span)
        return span

    def new_lane(self) -> int:
        """Allocate a rendering lane (Chrome thread row) for shipped spans."""
        lane = self._next_lane
        self._next_lane += 1
        return lane

    # -- cross-process propagation ------------------------------------

    def shipment(self) -> dict[str, Any]:
        """Pack recorded spans for transport back to the dispatcher."""
        return {
            "pid": self.pid,
            "dropped": self.dropped,
            "spans": [
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "attrs": dict(span.attrs),
                }
                for span in self.spans
            ],
        }

    def merge_shipment(
        self,
        shipment: Mapping[str, Any],
        *,
        parent_id: int | None,
        at: float,
        until: float | None = None,
        lane: int | None = None,
    ) -> None:
        """Fold a worker's shipped spans under ``parent_id``.

        The worker's clock is unrelated to ours, so its earliest span is
        aligned to ``at`` (the dispatch span's start) and everything is
        clamped into ``[at, until]`` — the worker's wall time is a
        subset of the submit-to-merge window by construction, so the
        clamp only guards against clock jitter.
        """
        spans = shipment.get("spans") or []
        self.dropped += int(shipment.get("dropped", 0))
        if not spans:
            return
        pid = shipment.get("pid")
        if lane is None:
            lane = self.new_lane()
        shift = at - min(span["start"] for span in spans)
        id_map: dict[int, int] = {}
        kept: list[Mapping[str, Any]] = []
        for span in spans:
            if self._created >= self.MAX_SPANS:
                self.dropped += 1
                continue
            self._created += 1
            id_map[span["id"]] = self._next_id
            self._next_id += 1
            kept.append(span)
        for span in kept:
            remote_parent = span.get("parent")
            parent = (
                id_map.get(remote_parent, parent_id)
                if remote_parent is not None
                else parent_id
            )
            start = max(span["start"] + shift, at)
            end = span["end"] + shift
            if until is not None:
                # Both bounds clamp into the window: a worker whose
                # recorded wall time exceeds submit-to-merge (clock
                # jitter) must not leak spans past the dispatch span.
                start = min(start, until)
                end = min(end, until)
            attrs = dict(span.get("attrs") or {})
            if pid is not None:
                attrs.setdefault("pid", pid)
            merged = Span(
                id_map[span["id"]], parent, span["name"], start, attrs, lane
            )
            merged.end = max(end, start)
            self.spans.append(merged)

    # -- output --------------------------------------------------------

    def document(self) -> dict[str, Any]:
        """Plain-dict form of the finished trace (wire/export format).

        Spans still open at call time are included with their current
        elapsed duration and an ``open`` attribute, so a document taken
        mid-request is still well-formed.
        """
        now = self.now()
        records = []
        for span in self.spans:
            records.append(_span_record(span, span.end))
        for span in self._stack:
            record = _span_record(span, now)
            record["attrs"]["open"] = True
            records.append(record)
        records.sort(key=lambda record: (record["start_us"], record["id"]))
        return {
            "trace_id": self.trace_id,
            "pid": self.pid,
            "dropped": self.dropped,
            "spans": records,
        }


def _span_record(span: Span, end: float) -> dict[str, Any]:
    start_us = int(round(span.start * 1e6))
    end_us = int(round(end * 1e6))
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start_us": start_us,
        "dur_us": max(0, end_us - start_us),
        "lane": span.lane,
        "attrs": _portable_attrs(span.attrs),
    }


def _portable_attrs(attrs: Mapping[str, Any]) -> dict[str, Any]:
    """Coerce attributes to JSON-safe scalars (repr for anything exotic)."""
    portable: dict[str, Any] = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            portable[key] = value
        else:
            portable[key] = repr(value)
    return portable


def maybe_span(tracer: Tracer | None, name: str, **attrs: Any):
    """``tracer.span(...)`` when tracing, a free no-op handle otherwise."""
    if tracer is None:
        return _NULL_HANDLE
    return tracer.span(name, **attrs)


#: The tracer of the request currently executing in this process, if any.
#: Leaf layers (kernels, sampler, store tiers) read this instead of
#: growing a ``tracer`` parameter; requests are serialized per process
#: (the daemon runs every engine call on its one engine thread), so one
#: slot suffices.
ACTIVE: Tracer | None = None


@contextmanager
def activate(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Install ``tracer`` as :data:`ACTIVE` for the duration of a block."""
    global ACTIVE
    if tracer is None:
        yield None
        return
    previous = ACTIVE
    ACTIVE = tracer
    try:
        yield tracer
    finally:
        ACTIVE = previous


def label(value: Any) -> str:
    """Short stable digest of any value, for span attributes."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:12]
