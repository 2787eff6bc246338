"""Observability: counters and zero-dependency request tracing.

:class:`repro.obs.counters.Counters` is the one accounting type: every
layer's hit/miss, plan, executor, sampler, kernel, claim and coalescer
counts are named integer attributes of one.

The :mod:`repro.obs.tracing` module produces hierarchical spans
(``request -> plan -> prune -> node:* -> store.* / kernel.convolve /
sampler.round``) with monotonic-clock durations; :mod:`repro.obs.export`
turns a finished trace document into a Chrome ``trace_event`` JSON file
(loadable in ``about:tracing`` / Perfetto) or a compact text tree.

Tracing is opt-in per request and costs nothing when off: every hot
path guards on ``tracer is None`` (or the module-level
:data:`repro.obs.tracing.ACTIVE` global being ``None``).
"""

from repro.obs.counters import Counters
from repro.obs.export import (
    export_chrome,
    render_trace,
    top_spans,
    trace_from_dict,
    trace_to_dict,
)
from repro.obs.tracing import (
    ACTIVE,
    Span,
    Tracer,
    activate,
    label,
    maybe_span,
)

__all__ = [
    "ACTIVE",
    "Counters",
    "Span",
    "Tracer",
    "activate",
    "export_chrome",
    "label",
    "maybe_span",
    "render_trace",
    "top_spans",
    "trace_from_dict",
    "trace_to_dict",
]
