"""The paradigm of Figure 1 as an execution engine: a DAG-scheduled,
contract-checked, cache-aware, transactionally-isolated
Data-Governance-Analytics-Decision pipeline with bounded execution
(timeouts, deadlines, cancellation) and structured observability."""

from .cache import StageCache
from .events import CollectingTracer, StageEvent, Tracer
from .executors import (
    Executor,
    ExecutorError,
    ProcessExecutor,
    RemoteStageError,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from .faults import FaultInjector
from .pipeline import DecisionPipeline
from .report import RunReport, StageRecord
from .stage import (
    ContractViolation,
    RunDeadlineExceeded,
    Stage,
    StageCancelled,
    StageFailure,
    StageTimeout,
)
from .streaming import IncrementalSession, Tick

__all__ = [
    "CollectingTracer",
    "ContractViolation",
    "DecisionPipeline",
    "Executor",
    "ExecutorError",
    "FaultInjector",
    "IncrementalSession",
    "ProcessExecutor",
    "RemoteStageError",
    "RunDeadlineExceeded",
    "RunReport",
    "SerialExecutor",
    "Stage",
    "StageCache",
    "StageCancelled",
    "StageEvent",
    "StageFailure",
    "StageRecord",
    "StageTimeout",
    "ThreadExecutor",
    "Tick",
    "Tracer",
    "resolve_executor",
]
