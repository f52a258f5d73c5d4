"""First-class runtime observability: metrics, tracing, profiling.

The engine's resource-efficiency claims (concurrent scheduling,
content-keyed caching, bounded execution, memoized hot paths) are
verifiable at run time through three complementary surfaces:

* :mod:`repro.observability.metrics` — a thread-safe
  :class:`MetricsRegistry` of labeled counters, gauges and
  fixed-bucket histograms that the scheduler, stage cache, contract
  views, fault injector and the governance/decision serving caches
  publish into (a process-global default registry, swappable with
  :func:`use_registry`);
* :mod:`repro.observability.tracing` — :class:`SpanTracer`, which
  folds the engine's event stream into a run → stage → attempt span
  tree exportable as ``chrome://tracing`` JSON;
* :mod:`repro.observability.profiling` — :class:`RunProfiler`,
  activated with ``DecisionPipeline.run(profile=True)``, recording
  per-stage wall/CPU time, scheduler queue wait and ``tracemalloc``
  deltas onto the :class:`RunReport`.

``python -m repro.trace`` drives all three from the command line.
See ``docs/OBSERVABILITY.md`` for the metric-name table and formats.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "metrics": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "get_registry", "set_registry", "use_registry",
    ),
    "profiling": ("RunProfiler", "StageProfile"),
    "tracing": ("Span", "SpanTracer", "TeeTracer"),
})
