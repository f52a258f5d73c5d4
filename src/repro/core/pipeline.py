"""The Data-Governance-Analytics-Decision pipeline (paper Figure 1).

The paper's contribution is the *paradigm*: raw multi-modal data flows
through data governance (quality repair, uncertainty quantification,
fusion), then analytics (forecasting, detection, classification), and
finally a decision strategy picks an action.  :class:`DecisionPipeline`
makes that flow a first-class, inspectable object — and, since the
engine refactor, an *executable DAG*:

* stages are named functions attached to one of the four layers,
  each carrying a required contract of the state keys it ``reads`` /
  ``writes`` (see :mod:`repro.core.stage`);
* the dependency resolver (:mod:`repro.core.dag`) turns overlapping
  contracts into edges, and the scheduler
  (:mod:`repro.core.scheduler`) runs contract-independent stages
  concurrently while contracts preserve layer-ordering semantics;
* stage execution is *transactional*: an attempt's writes commit to
  shared state atomically only on success, so a failed, retried,
  skipped, timed-out or cancelled attempt never leaves torn state;
* per-stage failure policies (``fail`` / ``skip`` / ``fallback``)
  with bounded retries and jittered exponential backoff keep one bad
  stage from killing a run, while per-stage ``timeout=`` and a
  run-level ``deadline=`` keep any stage — or the whole run — from
  hanging forever (cooperative cancellation at every state access);
* an optional content-keyed :class:`~repro.core.cache.StageCache`
  replays unchanged stages across runs, so the E1 ablation
  (``without_stage``) only re-executes the removed stage's
  downstream cone;
* every stage's summary, wall time, status and cache provenance land
  in a :class:`RunReport`, and an opt-in tracer streams structured
  events, so a run documents itself.

Stages that declare no contract behave exactly as before the
refactor: they conflict with everything, resolve to a chain, and run
sequentially in layer order.
"""

from __future__ import annotations

import time
import uuid

from . import dag as _dag
from .events import emit
from .report import RunReport
from .stage import Stage

__all__ = ["DecisionPipeline"]


def _execute_run(title, stages, deps, state, *, cache=None,
                 cache_keys=None, tracer=None, max_workers=None,
                 deadline=None, copy_on_read=False, metrics=None,
                 profile=False, executor=None, run_id=None,
                 run_data=None, placement=None):
    """One scheduled run over prepared stages: the shared engine core.

    Both :meth:`DecisionPipeline.run` and every
    :class:`~repro.core.streaming.IncrementalSession` tick funnel
    through here, so events, metrics, profiles and reports are
    identical whether a DAG executes from scratch or as one tick of a
    stream.  ``state`` is mutated in place; ``run_data`` adds extra
    fields (e.g. the tick number) onto the ``run_start`` event.  The
    report's ``wall_seconds`` is the ``run_end`` stamp minus the
    ``run_start`` stamp.  Returns the finished :class:`RunReport`.
    """
    # Deferred: building a pipeline needs neither a backend nor the
    # scheduler; a process that never runs one does not load them.
    from ..observability.metrics import get_registry
    from ..observability.profiling import RunProfiler
    from .executors import resolve_executor
    from .scheduler import DagScheduler
    from .stage import RunDeadlineExceeded, StageFailure

    scheduler = DagScheduler(max_workers=max_workers)
    executor = resolve_executor(executor)
    run_id = uuid.uuid4().hex[:12] if run_id is None else str(run_id)
    report = RunReport(title=title)
    report.run_id = run_id
    report.set_dag([
        (stage.name, tuple(stages[i].name for i in sorted(deps[j])))
        for j, stage in enumerate(stages)
    ])
    report.set_deadline(deadline)
    metrics = metrics if metrics is not None else get_registry()
    profiler = RunProfiler().start() if profile else None
    started = time.perf_counter()
    emit(tracer, "run_start", monotonic=started, stages=len(stages),
         run_id=run_id, executor=executor.kind, **dict(run_data or {}))
    run_status = "ok"
    try:
        scheduler.execute(stages, deps, state, report,
                          cache=cache, tracer=tracer,
                          deadline=deadline,
                          copy_on_read=copy_on_read,
                          metrics=metrics, profiler=profiler,
                          executor=executor, run_id=run_id,
                          cache_keys=cache_keys, placement=placement)
    except RunDeadlineExceeded:
        run_status = "deadline_exceeded"
        raise
    except StageFailure:
        run_status = "failed"
        raise
    except BaseException:
        run_status = "error"
        raise
    finally:
        if profiler is not None:
            profiler.stop()
            report.set_profiles(profiler.profiles())
        ended = time.perf_counter()
        report.wall_seconds = ended - started
        metrics.counter(
            "engine.runs_total",
            "Pipeline runs by terminal status").inc(
                status=run_status)
        metrics.histogram(
            "engine.run_duration_seconds",
            "Wall-clock duration of whole pipeline runs").observe(
                report.wall_seconds)
        emit(tracer, "run_end", monotonic=ended,
             wall_seconds=report.wall_seconds,
             cache_hits=report.cache_hits)
    return report


class DecisionPipeline:
    """Composable realization of the paper's Figure 1.

    Stage functions receive the (contract-checked) mutable state
    mapping and return either a summary string or a
    ``(summary, details_dict)`` pair; any other tuple fails the
    attempt with a ``TypeError``.  They communicate by reading and
    writing state entries.
    """

    _LAYERS = ("data", "governance", "analytics", "decision")

    def __init__(self, title="data-governance-analytics-decision"):
        self.title = str(title)
        self._stages = {layer: [] for layer in self._LAYERS}
        # Stages the pool bought nothing for, kept across runs and
        # ticks (see repro.core.scheduler).
        self._placement = {}

    # -- construction -------------------------------------------------------

    def add_stage(self, layer, name, function, *, reads, writes,
                  on_error="fail", fallback=None,
                  retries=0, timeout=None, backoff=0.02,
                  incremental=None):
        """Attach a stage to a layer; returns ``self`` for chaining.

        ``reads`` / ``writes`` declare the stage's contract: required
        iterables of state keys, ``()`` for an empty side.
        ``on_error`` ∈ {"fail", "skip", "fallback"} and ``retries``
        set the failure policy; ``fallback`` is the substitute
        callable for ``on_error="fallback"``.  ``timeout`` bounds one
        attempt's wall clock in seconds (cooperatively enforced at
        every state access), and ``backoff`` is the base of the
        jittered exponential pause between retry attempts.
        ``incremental`` is an optional fold callable for streaming
        sessions — see :meth:`stream` and ``docs/STREAMING.md``.
        """
        if layer not in self._LAYERS:
            raise ValueError(
                f"layer must be one of {self._LAYERS}, got {layer!r}"
            )
        stage = Stage(layer, name, function, reads=reads, writes=writes,
                      on_error=on_error, fallback=fallback,
                      retries=retries, timeout=timeout, backoff=backoff,
                      incremental=incremental)
        if stage.name in self.stage_names:
            raise ValueError(
                f"duplicate stage name {stage.name!r}; stage names "
                "must be unique so without_stage() and reports are "
                "unambiguous"
            )
        self._stages[layer].append(stage)
        return self

    def add_data(self, name, function, **kwargs):
        return self.add_stage("data", name, function, **kwargs)

    def add_governance(self, name, function, **kwargs):
        return self.add_stage("governance", name, function, **kwargs)

    def add_analytics(self, name, function, **kwargs):
        return self.add_stage("analytics", name, function, **kwargs)

    def add_decision(self, name, function, **kwargs):
        return self.add_stage("decision", name, function, **kwargs)

    def without_stage(self, name):
        """A copy of the pipeline with the named stage removed.

        The ablation device of experiment E1: rerun the pipeline with
        a governance stage switched off and compare decision quality.
        Run both pipelines against the same
        :class:`~repro.core.cache.StageCache` and only the removed
        stage's downstream cone re-executes.
        """
        copy = DecisionPipeline(title=f"{self.title} (without {name})")
        found = False
        for layer in self._LAYERS:
            for stage in self._stages[layer]:
                if stage.name == name:
                    found = True
                    continue
                copy._stages[layer].append(stage)
        if not found:
            raise KeyError(f"no stage named {name!r}")
        return copy

    @property
    def stage_names(self):
        return [stage.name for stage in self._ordered_stages()]

    def _ordered_stages(self):
        """All stages in layer-major order (the DAG's topological base)."""
        return [stage
                for layer in self._LAYERS
                for stage in self._stages[layer]]

    def resolved_dag(self):
        """The dependency DAG as ``{stage: (dep, ...)}`` over names."""
        stages = self._ordered_stages()
        deps = _dag.resolve_dependencies(stages)
        return {
            stage.name: tuple(stages[i].name for i in sorted(deps[j]))
            for j, stage in enumerate(stages)
        }

    def describe_contracts(self):
        """Every stage's contract as plain data, in execution order.

        One :meth:`~repro.core.stage.Stage.describe_contract` dict per
        stage — the introspection surface the static analyzer
        (:mod:`repro.analysis`) mirrors at lint time.
        """
        return [stage.describe_contract()
                for stage in self._ordered_stages()]

    # -- execution -----------------------------------------------------------

    def run(self, initial_state=None, *, cache=None, tracer=None,
            max_workers=None, deadline=None, copy_on_read=False,
            metrics=None, profile=False, executor=None, run_id=None):
        """Execute the stage DAG.

        Parameters
        ----------
        initial_state:
            Seed state entries (copied; the caller's dict is never
            mutated).
        executor:
            Where stage attempts run: an
            :class:`~repro.core.executors.Executor` instance or a
            name — ``"thread"`` (default; right for I/O-bound and
            GIL-releasing numpy stages), ``"process"`` (CPU-bound
            pure-Python stages scale with cores; see
            ``docs/EXECUTORS.md`` for pickling and shared-memory
            semantics) or ``"serial"`` (deterministic inline
            debugging).  ``None`` consults the ``REPRO_EXECUTOR``
            environment variable.  Results are backend-independent
            for contract-correct pipelines.
        run_id:
            Identity of this run, recorded on the report and the
            ``run_start`` event, and the seed of every deterministic
            per-attempt jitter (retry backoff, jittered fault
            delays).  Default: a fresh 12-hex-digit id; pass a fixed
            value to make retry timing reproducible across reruns.
        cache:
            Optional :class:`~repro.core.cache.StageCache`; stages
            replay from it when their whole upstream cone is
            unchanged.
        tracer:
            Optional observer with an ``on_event(event)`` method; see
            :mod:`repro.core.events`.  A tracer that also exposes
            ``inject(stage_name, attempt)`` (e.g.
            :class:`~repro.core.faults.FaultInjector`) is called at
            the top of every attempt and may raise or sleep.
        max_workers:
            Thread-pool width for concurrent stages (default: one
            slot per stage, capped at 32).
        deadline:
            Run-level wall-clock budget in seconds.  When it expires
            the run is cancelled: in-flight stages abort at their
            next state access (committing nothing), unstarted stages
            are recorded as ``cancelled``, and
            :class:`RunDeadlineExceeded` is raised.
        copy_on_read:
            Hand stages defensive copies of numpy arrays read through
            keys their contract declares read-only (``writes`` not
            containing the key), closing the in-place
            mutation escape hatch at the cost of one copy per such
            key per attempt.  Off by default.
        metrics:
            :class:`~repro.observability.MetricsRegistry` the run
            publishes engine metrics into (attempts, retries,
            outcomes, durations, queue waits, cache replays, run
            totals).  Default: the process-global registry
            (:func:`repro.observability.get_registry`).
        profile:
            When true, attach a
            :class:`~repro.observability.RunProfiler`: per-stage
            wall/CPU seconds, scheduler queue wait and, when the
            caller already has ``tracemalloc`` running, allocation
            deltas land on ``report.profiles`` (see
            ``docs/OBSERVABILITY.md``).  Off by default.

        Returns
        -------
        (dict, RunReport)
            The final state and the run's audit report.

        Raises
        ------
        StageFailure
            When a ``fail``-policy stage exhausts its retries; the
            exception carries the partial ``report`` and ``state``
            plus any concurrent ``secondary`` failures.
        RunDeadlineExceeded
            When ``deadline`` expires first; also carries the
            partial ``report`` and ``state``.
        """
        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive or None")
        stages = self._ordered_stages()
        if not stages:
            raise RuntimeError("pipeline has no stages")
        state = dict(initial_state or {})
        deps = _dag.resolve_dependencies(stages)
        report = _execute_run(self.title, stages, deps, state,
                              cache=cache, tracer=tracer,
                              max_workers=max_workers,
                              deadline=deadline,
                              copy_on_read=copy_on_read,
                              metrics=metrics, profile=profile,
                              executor=executor, run_id=run_id,
                              placement=self._placement)
        return state, report

    def stream(self, initial_state=None, *, tracer=None,
               max_workers=None, copy_on_read=False, metrics=None,
               executor=None):
        """Open an :class:`~repro.core.streaming.IncrementalSession`.

        The session carries state and per-stage committed records
        across *ticks*: each ``session.tick(changed=..., deleted=...)``
        applies the mutations, computes the dirty downstream cone
        from the stages' declared contracts, replays every clean
        stage from a fresh copy of its carried record (tombstones
        included) and re-executes only the dirty ones.  Keyword arguments have
        :meth:`run` semantics and apply to every tick; per-tick
        ``deadline=`` / ``run_id=`` are passed to ``tick`` itself.
        See ``docs/STREAMING.md``.
        """
        from .executors import _check_workers
        from .streaming import IncrementalSession

        _check_workers(max_workers)
        stages = self._ordered_stages()
        if not stages:
            raise RuntimeError("pipeline has no stages")
        return IncrementalSession(
            self, initial_state, tracer=tracer,
            max_workers=max_workers, copy_on_read=copy_on_read,
            metrics=metrics, executor=executor)
