"""repro: data-driven decision making with time series and spatio-temporal data.

A full implementation of the "Data-Governance-Analytics-Decision"
paradigm from the ICDE 2025 tutorial by Yang, Liang, Guo and Jensen:

* :mod:`repro.datatypes` -- the data foundations (paper Sec. II-A),
* :mod:`repro.datasets` -- seeded synthetic workloads standing in for the
  paper's proprietary traces,
* :mod:`repro.governance` -- imputation, uncertainty quantification and
  multi-modal fusion (Sec. II-B),
* :mod:`repro.analytics` -- forecasting, anomaly detection and
  classification with the five desired characteristics (Sec. II-C),
* :mod:`repro.decision` -- decision making under uncertainty,
  multi-objective, personalized and learning-based strategies (Sec. II-D),
* :mod:`repro.core` -- the end-to-end pipeline of Figure 1,
* :mod:`repro.serve` -- the request-facing serving layer (batching,
  deadlines, admission control),
* :mod:`repro.benchmarking` -- the unified evaluation harness.
"""

from . import _lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "analysis": (),
    "analytics": ("analytics",),
    "benchmarking": ("benchmarking",),
    "core": (
        "core", "CollectingTracer", "ContractViolation", "DecisionPipeline",
        "FaultInjector", "IncrementalSession", "ProcessExecutor",
        "RunDeadlineExceeded", "SerialExecutor", "StageCache", "StageFailure",
        "StageTimeout", "ThreadExecutor",
    ),
    "datasets": ("datasets",),
    "datatypes": (
        "datatypes", "CorrelatedTimeSeries", "GpsPoint", "ImageSequence",
        "RoadNetwork", "TimeSeries", "Trajectory",
    ),
    "decision": ("decision",),
    "governance": ("governance",),
    "observability": ("observability", "MetricsRegistry", "SpanTracer"),
    "serve": ("serve", "DecisionServer"),
})
__all__ += ["__version__"]
