"""Observability plane: distributed tracing + per-shard metrics.

The whole subsystem hangs off two module globals:

- ``obs.TRACER`` — a :class:`~repro.obs.trace.Tracer`, or ``None``;
- ``obs.METRICS`` — a :class:`~repro.obs.metrics.MetricsRegistry`, or
  ``None``.

Instrumented sites import the module (``from repro import obs``) and
guard every touch with ``if obs.TRACER is not None`` — when disabled
(the default) the only cost anywhere is that attribute load, exactly the
pattern the router's load counters established.  :func:`enable` also
arms the kernel context hook (``repro.sim.kernel.TRACE``) so span
context follows spawned processes.

Tracing is **charge-preserving**: it never creates simulated events,
yields, or sequence numbers, so every figure is byte-identical with
tracing on or off (CI's ``quick-bench`` job proves it each run).
"""

from repro.obs.trace import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.check import TraceChecker, TraceViolation
from repro.obs.export import (
    aggregate_spans, format_aggregate, write_metrics_jsonl, write_trace_jsonl,
)

#: Active tracer (None = tracing disabled; instrumentation is a no-op).
TRACER = None
#: Active metrics registry (None = metrics disabled).
METRICS = None


def enable(tracing=True, metrics=True):
    """Turn the observability plane on; returns ``(tracer, registry)``.

    Idempotent: an already-active tracer/registry is kept (so nested
    enables share one sink).
    """
    global TRACER, METRICS
    if tracing and TRACER is None:
        TRACER = Tracer()
    if metrics and METRICS is None:
        METRICS = MetricsRegistry()
    _sync_kernel()
    return TRACER, METRICS


def disable():
    """Turn the observability plane off and detach the kernel hook."""
    global TRACER, METRICS
    TRACER = None
    METRICS = None
    _sync_kernel()


def _sync_kernel():
    from repro.sim import kernel

    kernel.TRACE = TRACER


__all__ = [
    "TRACER", "METRICS", "Tracer", "MetricsRegistry", "TraceChecker",
    "TraceViolation", "aggregate_spans", "format_aggregate",
    "write_metrics_jsonl", "write_trace_jsonl", "enable", "disable",
]
