"""Observability: structured search tracing + Prometheus exposition.

The stack's aggregate metrics (:mod:`repro.eval.instrumentation`) say
how much time and fuel a sweep spent; this package records *what each
search actually did* and exports operational metrics a monitoring
stack can scrape.  DESIGN.md §7.  Spans are the only stage clock: the
metrics' stage table is folded from each task's span totals.

* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span` trees with
  per-span-name totals, a zero-overhead no-op default, a thread-safe
  JSONL sink, and loaders;
* :mod:`repro.obs.render` — the ``repro trace`` tree/summary renderer;
* :mod:`repro.obs.prometheus` — text-format exposition of the eval
  metrics + service gauges with counter-vs-gauge typing.

This package imports nothing from the rest of ``repro``: every layer
(kernel-adjacent checker, search engine, runner, service) may depend
on it without cycles, exactly like the duck-typed metrics sink.
"""

from repro.obs.prometheus import render_prometheus
from repro.obs.render import (
    group_traces,
    render_summary,
    render_trace,
    stage_summary,
)
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    load_spans,
)

__all__ = [
    "Tracer",
    "Span",
    "NullTracer",
    "NULL_TRACER",
    "JsonlSink",
    "load_spans",
    "group_traces",
    "render_trace",
    "render_summary",
    "stage_summary",
    "render_prometheus",
]
