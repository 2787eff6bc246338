"""Exporters for finished trace documents.

Both exporters operate on the plain-dict *document* form produced by
:meth:`repro.obs.tracing.Tracer.document` (and carried verbatim on the
daemon wire), so a trace exported from a ``--connect`` client renders
identically to one taken in-process.

* :func:`export_chrome` writes Chrome ``trace_event`` JSON — open it in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Lanes map to thread
  rows so overlapping shard dispatches nest cleanly.
* :func:`render_trace` returns a compact text tree for terminals.
"""

from __future__ import annotations

import os
from typing import Any, Mapping

from repro.obs.tracing import Tracer

__all__ = [
    "export_chrome",
    "render_trace",
    "top_spans",
    "trace_from_dict",
    "trace_to_dict",
]


def trace_to_dict(trace: Tracer | Mapping[str, Any]) -> dict[str, Any]:
    """Accept a live tracer or an already-built document; return the dict."""
    if isinstance(trace, Tracer):
        return trace.document()
    return trace_from_dict(trace)


def trace_from_dict(document: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a wire-shipped trace document and return a normal form.

    Raises :class:`ValueError` on structural problems (missing fields,
    spans referencing unknown parents) so transport bugs surface at the
    boundary instead of as corrupt renders.
    """
    if not isinstance(document, Mapping):
        raise ValueError("trace document must be a mapping")
    spans = document.get("spans")
    if not isinstance(spans, list):
        raise ValueError("trace document missing 'spans' list")
    seen: set[int] = set()
    normal_spans: list[dict[str, Any]] = []
    for span in spans:
        if not isinstance(span, Mapping):
            raise ValueError("trace span must be a mapping")
        try:
            span_id = int(span["id"])
            name = str(span["name"])
            start_us = int(span["start_us"])
            dur_us = int(span["dur_us"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace span: {span!r}") from exc
        parent = span.get("parent")
        normal_spans.append(
            {
                "id": span_id,
                "parent": None if parent is None else int(parent),
                "name": name,
                "start_us": start_us,
                "dur_us": max(0, dur_us),
                "lane": int(span.get("lane", 0)),
                "attrs": dict(span.get("attrs") or {}),
            }
        )
        seen.add(span_id)
    for span in normal_spans:
        if span["parent"] is not None and span["parent"] not in seen:
            raise ValueError(
                f"span {span['id']} references unknown parent {span['parent']}"
            )
    normal_spans.sort(key=lambda span: (span["start_us"], span["id"]))
    return {
        "trace_id": document.get("trace_id"),
        "pid": int(document.get("pid", 0)),
        "dropped": int(document.get("dropped", 0)),
        "spans": normal_spans,
    }


def export_chrome(trace: Tracer | Mapping[str, Any], path: str | os.PathLike) -> str:
    """Write the trace as Chrome ``trace_event`` JSON; return the path."""
    document = trace_to_dict(trace)
    pid = document["pid"] or 1
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repro trace {document['trace_id']}"},
        }
    ]
    lanes = sorted({span["lane"] for span in document["spans"]} | {0})
    for lane in lanes:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": lane,
                "args": {"name": "main" if lane == 0 else f"shard lane {lane}"},
            }
        )
    for span in document["spans"]:
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "cat": "repro",
                "ts": span["start_us"],
                "dur": max(1, span["dur_us"]),
                "pid": pid,
                "tid": span["lane"],
                "args": dict(span["attrs"]),
            }
        )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": document["trace_id"],
            "dropped": document["dropped"],
        },
    }
    # Deferred import: repro.io pulls in the engine result types, and
    # the obs package must stay importable from every layer beneath them.
    from pathlib import Path

    from repro.io import write_json_atomic

    target = os.fspath(path)
    if not write_json_atomic(Path(target), payload, indent=1):
        raise OSError(f"could not write Chrome trace to {target}")
    return target


def top_spans(
    trace: Tracer | Mapping[str, Any], count: int = 3
) -> list[dict[str, Any]]:
    """The ``count`` longest non-root spans, for slow-request log lines."""
    document = trace_to_dict(trace)
    candidates = [span for span in document["spans"] if span["parent"] is not None]
    candidates.sort(key=lambda span: (-span["dur_us"], span["id"]))
    return [
        {"name": span["name"], "ms": round(span["dur_us"] / 1000, 3)}
        for span in candidates[:count]
    ]


#: Attributes shown per span line; the rest collapse into one ``...=N``.
_MAX_ATTRS = 6


def render_trace(trace: Tracer | Mapping[str, Any]) -> str:
    """Render the trace as an indented text tree, one span per line."""
    document = trace_to_dict(trace)
    spans = document["spans"]
    children: dict[int | None, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    total_us = sum(span["dur_us"] for span in children.get(None, ()))
    header = (
        f"trace {document['trace_id'] or '<none>'}"
        f" (pid {document['pid']}, {len(spans)} spans,"
        f" {total_us / 1000:.2f} ms"
    )
    if document["dropped"]:
        header += f", {document['dropped']} dropped"
    header += ")"
    lines = [header]

    def _attr_text(span: Mapping[str, Any]) -> str:
        items = sorted(span["attrs"].items())
        if len(items) > _MAX_ATTRS:
            items = items[:_MAX_ATTRS] + [("...", len(items) - _MAX_ATTRS)]
        parts = []
        for key, value in items:
            text = str(value)
            if len(text) > 40:
                text = text[:37] + "..."
            parts.append(f"{key}={text}")
        return "  ".join(parts)

    def _walk(parent: int | None, prefix: str) -> None:
        siblings = children.get(parent, [])
        for index, span in enumerate(siblings):
            last = index == len(siblings) - 1
            connector = "" if parent is None else ("`- " if last else "|- ")
            duration = f"{span['dur_us'] / 1000:9.2f} ms"
            attr_text = _attr_text(span)
            line = f"{prefix}{connector}{span['name']}  {duration}"
            if attr_text:
                line += f"  {attr_text}"
            lines.append(line)
            extension = "" if parent is None else ("   " if last else "|  ")
            _walk(span["id"], prefix + extension)

    _walk(None, "")
    return "\n".join(lines)
