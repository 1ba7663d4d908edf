"""Observability layer: per-rank event traces + unified runtime metrics.

Three pieces, each importable on its own (nothing here imports the
runtime, so every runtime layer may import us without cycles):

* :mod:`repro.obs.trace` — the per-rank ring-buffer trace recorder
  behind the module singleton :data:`~repro.obs.trace.TRACE`.
  Disabled by default; enable with ``REPRO_TRACE=<dir>`` or
  ``TRACE.enable()``.
* :mod:`repro.obs.metrics` — named thread-safe counters/gauges behind
  :data:`~repro.obs.metrics.REGISTRY`; the wire protocol's
  ``wire_stats`` and the ADI ablation's ``packets_staged`` counter are
  groups of these.
* :mod:`repro.obs.export` — Chrome trace-event JSON merge/validation;
  ``python -m repro.trace`` is the CLI front end.

Instrumentation sites follow one idiom::

    from repro.obs.trace import TRACE
    ...
    if TRACE.enabled:                       # one attribute read when off
        t0 = TRACE.now()
        ...
        TRACE.span(rank, "wire.rndv", "wire", t0, {"bytes": n})
"""

from repro.obs.metrics import REGISTRY, CounterGroup, Gauge, MetricsRegistry
from repro.obs.trace import TRACE, TraceRecorder
from repro.obs import export

__all__ = ["TRACE", "TraceRecorder", "REGISTRY", "CounterGroup", "Gauge",
           "MetricsRegistry", "export"]
