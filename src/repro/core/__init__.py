"""The paradigm of Figure 1 as an execution engine: a DAG-scheduled,
contract-checked, cache-aware, transactionally-isolated
Data-Governance-Analytics-Decision pipeline with bounded execution
(timeouts, deadlines, cancellation) and structured observability."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "cache": ("StageCache",),
    "events": ("CollectingTracer", "StageEvent", "Tracer"),
    "executors": (
        "Executor", "ExecutorError", "ProcessExecutor", "RemoteStageError",
        "SerialExecutor", "ThreadExecutor", "resolve_executor",
    ),
    "faults": ("FaultInjector",),
    "pipeline": ("DecisionPipeline",),
    "report": ("RunReport", "StageRecord"),
    "stage": (
        "ContractViolation", "RunDeadlineExceeded", "Stage", "StageCancelled",
        "StageFailure", "StageTimeout",
    ),
    "streaming": ("IncrementalSession", "Tick"),
})
