"""The DAG scheduler: concurrent stage execution with failure policies.

Given stages and their resolved dependencies, the scheduler runs
every stage whose dependencies are satisfied.  *When* a stage may run
is decided here, by one loop over a backend-agnostic
:class:`~repro.core.dag.Frontier`; *where* its attempts run is
delegated to a pluggable :class:`~repro.core.executors.Executor` —
threads by default (right for I/O-bound and GIL-releasing numpy
stages), worker processes for CPU-bound pure-Python stages, or
serial for debugging.  Whatever the backend, orchestration (retries,
backoff, failure policies, commits, events, cache replay) happens on
the parent's threads, so traces, metrics and reports are identical
across backends.

A ready stage runs inline on the calling thread when it is the only
ready stage and nothing is in flight — every stage of a linear
chain, for instance — or when the backend has no pool (serial, which
takes the lowest ready index first and so runs in index order).
Only stages that can overlap go to the session's pool.

Execution is *transactional*: each attempt runs against a buffering
:class:`~repro.core.stage._ContractView` and its writes (including
deletions) commit to shared state atomically only on success.  A
failed, retried, skipped, timed-out or cancelled attempt commits
nothing — shared state is exactly what it was before the attempt.

Per-stage failure handling:

* ``retries=N`` re-invokes the stage up to N extra times, sleeping
  an exponentially growing, jittered backoff between attempts,
* then the stage's policy applies: ``fail`` aborts the run (raising
  :class:`StageFailure` carrying the partial report), ``skip``
  records the error and lets the rest of the DAG proceed,
  ``fallback`` runs the stage's fallback callable instead.

Bounded execution:

* ``Stage(timeout=...)`` limits one attempt's wall clock; the view
  raises :class:`StageTimeout` cooperatively at the next state
  access (and the runner re-checks when the attempt returns), after
  which retries / the failure policy apply and the record's status
  becomes ``"timed_out"`` if the policy is ``fail``;
* ``deadline=`` bounds the whole run; when it expires the run is
  cancelled, in-flight attempts abort at their next state access
  with :class:`StageCancelled`, unstarted stages are recorded as
  ``"cancelled"``, and :class:`RunDeadlineExceeded` is raised with
  the partial report and state;
* the first aborting failure likewise cancels every other in-flight
  stage, so nothing keeps mutating state after the run is doomed —
  and concurrent secondary failures are attached to the raised
  :class:`StageFailure` as ``.secondary`` instead of being dropped.

:class:`ContractViolation` is never retried or absorbed by a policy:
a stage touching undeclared state is a programming error, and hiding
it would poison every scheduling decision built on the contract.

Fault injection: a tracer that also exposes an
``inject(stage_name, attempt)`` method (see
:class:`~repro.core.faults.FaultInjector`) is called at the top of
every attempt and may sleep or raise to deterministically simulate
slow, flaky or hung stages.
"""

from __future__ import annotations

import collections
import threading
import time
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, wait

from . import cache as _cache
from . import dag as _dag
from . import executors as _executors
from .events import emit
from .faults import attempt_jitter
from .stage import (
    ContractViolation,
    RunDeadlineExceeded,
    StageCancelled,
    StageFailure,
    StageTimeout,
    _ContractView,
    _RunControl,
)

__all__ = ["DagScheduler"]

#: Upper bound on a single backoff sleep, seconds.
BACKOFF_CAP = 2.0


class DagScheduler:
    """Executes a resolved stage DAG against a shared state dict."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers

    def execute(self, stages, deps, state, report, *, cache=None,
                tracer=None, deadline=None, copy_on_read=False,
                metrics=None, profiler=None, executor=None,
                run_id=None, cache_keys=None):
        """Run all stages; mutates ``state`` and ``report`` in place.

        ``executor`` selects the backend (an
        :class:`~repro.core.executors.Executor`, a name, or ``None``
        for the environment default); ``run_id`` seeds deterministic
        per-attempt jitter.  ``cache_keys`` (one key or ``None`` per
        stage) overrides content-keying entirely — streaming sessions
        key a plain dict of records by stage name, so no
        fingerprinting of the initial state ever happens on the tick
        path.
        """
        executor = _executors.resolve_executor(executor)
        lock = threading.RLock()
        control = _RunControl(deadline)
        if cache_keys is not None:
            keys = list(cache_keys)
            if len(keys) != len(stages):
                raise ValueError(
                    f"cache_keys has {len(keys)} entries for "
                    f"{len(stages)} stages")
        else:
            keys = (_cache.stage_keys(stages, deps, state)
                    if cache is not None else [None] * len(stages))
        session = executor.begin_run(stages,
                                     max_workers=self.max_workers,
                                     metrics=metrics)
        try:
            run = _StageRunner(stages, state, report, lock, cache,
                               keys, tracer, control,
                               copy_on_read=copy_on_read,
                               metrics=metrics, profiler=profiler,
                               session=session, run_id=run_id)
            self._drive(stages, deps, run, control, session)
        finally:
            session.finish()

    def _drive(self, stages, deps, run, control, session):
        """The one scheduling loop, for every backend and DAG shape."""
        frontier = _dag.Frontier(deps)
        for index in frontier.ready:
            run.mark_ready(index)
        failures = []
        futures = {}
        while True:
            ready = ([] if failures or control.cancelled
                     else frontier.ready)
            if not ready and not futures:
                break
            if not futures and (len(ready) == 1 or session.pool is None):
                index = min(ready)
                frontier.claim(index)
                done = [(index, _run_inline(run, index))]
            else:
                for index in list(ready):
                    frontier.claim(index)
                    futures[session.pool.submit(run, index)] = index
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                done = [(futures.pop(future), future.exception())
                        for future in finished]
            for index, error in done:
                if error is not None:
                    failures.append(error)
                    # Cancel every other in-flight stage: their
                    # next state access aborts the attempt, and
                    # nothing they did so far was committed.
                    control.cancel(
                        f"stage {stages[index].name!r} aborted "
                        "the run")
                for j in frontier.complete(index):
                    run.mark_ready(j)
        unrun = frontier.unstarted()
        if failures:
            self._record_cancelled(stages, unrun, run)
            primary = failures[0]
            if isinstance(primary, StageFailure):
                primary.secondary = failures[1:]
            raise primary
        if control.cancelled:
            self._record_cancelled(stages, unrun, run)
            raise RunDeadlineExceeded(
                f"run deadline expired with {len(unrun)} stage(s) "
                "unexecuted",
                report=run.report, state=run.state)

    def _record_cancelled(self, stages, indices, run):
        """Audit-trail records for stages the abort kept from running."""
        for j in indices:
            run.record_cancelled(stages[j], "run aborted")


def _run_inline(run, index):
    """Run one stage on the calling thread; its error, as a future
    would hold it."""
    try:
        run(index)
    except BaseException as exc:
        return exc
    return None


#: One execution of one stage: its start stamp (``None`` for a stage
#: cancelled before it started, whose duration is zero) and profile.
_StageRun = collections.namedtuple("_StageRun", "stage index start token",
                                   defaults=(None, None, None))


class _StageRunner:
    """Executes one stage: cache lookup, retries, failure policy.

    Also the engine's one stage clock: a start stamp when a worker
    picks the stage up (the ``stage_start`` stamp) and a terminal
    stamp in :meth:`_finish`.  Their difference is the stage's only
    duration — report record, terminal event, span,
    ``engine.stage_duration_seconds`` and profile all carry it.
    Attempts, retries and outcomes are counted into the run's
    :class:`~repro.observability.MetricsRegistry` (when given); a
    :class:`~repro.observability.RunProfiler` (when given) adds CPU
    and memory deltas.
    """

    def __init__(self, stages, state, report, lock, cache, keys,
                 tracer, control, *, copy_on_read=False, metrics=None,
                 profiler=None, session=None, run_id=None):
        self._stages = stages
        self.state = state
        self.report = report
        self._lock = lock
        self._cache = cache
        self._keys = keys
        self._tracer = tracer
        self._control = control
        self._copy_on_read = copy_on_read
        self._inject = getattr(tracer, "inject", None)
        self._profiler = profiler
        self._session = (session if session is not None
                         else _executors._Session())
        self._run_id = "" if run_id is None else str(run_id)
        self._ready = {}
        if metrics is not None:
            self._m_attempts = metrics.counter(
                "engine.stage_attempts_total",
                "Stage execution attempts, including retries")
            self._m_retries = metrics.counter(
                "engine.stage_retries_total",
                "Retry attempts after a failed stage attempt")
            self._m_outcomes = metrics.counter(
                "engine.stage_outcomes_total",
                "Terminal stage outcomes by report status")
            self._m_replays = metrics.counter(
                "engine.stage_cache_replays_total",
                "Stages served from the StageCache instead of running")
            self._m_duration = metrics.histogram(
                "engine.stage_duration_seconds",
                "Stage wall-clock duration across attempts")
            self._m_queue_wait = metrics.histogram(
                "engine.stage_queue_wait_seconds",
                "Delay between a stage becoming ready and starting")
        else:
            self._m_attempts = self._m_retries = None
            self._m_outcomes = self._m_replays = None
            self._m_duration = self._m_queue_wait = None

    def mark_ready(self, index):
        """Called by the scheduler when a stage's deps are satisfied."""
        with self._lock:
            self._ready[index] = time.perf_counter()

    def __call__(self, index):
        stage = self._stages[index]
        start = time.perf_counter()
        with self._lock:
            ready = self._ready.pop(index, start)
        try:
            self._control.checkpoint(stage.name)
        except StageCancelled:
            reason = self._control.reason or "cancelled"
            self.record_cancelled(stage, reason)
            if reason == "run deadline exceeded":
                raise RunDeadlineExceeded(
                    f"run deadline expired before stage {stage.name!r}",
                    report=self.report, state=self.state)
            return
        queue_wait = start - ready
        if self._m_queue_wait is not None:
            self._m_queue_wait.observe(queue_wait, stage=stage.name)
        token = (self._profiler.stage_begin(stage.name, stage.layer,
                                            queue_wait)
                 if self._profiler is not None else None)
        run = _StageRun(stage, index, start, token)
        if self._replay_from_cache(run):
            return
        emit(self._tracer, "stage_start", stage.name, stage.layer,
             monotonic=start)
        attempts = 0
        while True:
            emit(self._tracer, "stage_attempt", stage.name,
                 stage.layer, attempt=attempts)
            if self._m_attempts is not None:
                self._m_attempts.inc(stage=stage.name)
            view = _ContractView(self.state, stage, self._lock,
                                 self._control,
                                 copy_on_read=self._copy_on_read)
            try:
                outcome = self._attempt(index, stage, view, attempts)
            except ContractViolation:
                raise  # programming error: never retried or absorbed
            except StageCancelled:
                self._record_run_cancelled(run, attempts)
                return
            except Exception as exc:
                if attempts < stage.retries:
                    attempts += 1
                    emit(self._tracer, "stage_retry", stage.name,
                         stage.layer, attempt=attempts, error=str(exc))
                    if self._m_retries is not None:
                        self._m_retries.inc(stage=stage.name)
                    self._backoff(stage, attempts)
                    continue
                self._apply_policy(run, exc, attempts)
                return
            self._record_success(run, outcome, view, attempts)
            return

    def _attempt(self, index, stage, view, attempt):
        """One bounded attempt: inject faults, run, enforce timeout."""
        if self._inject is not None:
            self._inject(stage.name, attempt)
        if self._session.remote(index):
            outcome = self._remote_attempt(index, stage, view, attempt)
        else:
            outcome = stage.function(view)
        # An attempt that returns over budget is as timed out as one
        # caught mid-flight: it must not commit.
        if view.timed_out():
            raise StageTimeout(stage.name, stage.timeout)
        return _split_outcome(stage, outcome)

    def _remote_attempt(self, index, stage, view, attempt):
        """Ship the attempt to the backend's workers and graft the
        returned delta into this attempt's transactional buffers, so
        commit, rollback, retries and cache storage behave exactly as
        for an in-process attempt."""
        outcome, delta, deleted = self._session.run_attempt(
            index, stage, self.state, self._lock, self._control,
            attempt)
        for key, value in delta.items():
            view._writes[key] = value
            view._deleted.discard(key)
            view.written.add(key)
        for key in deleted:
            view._writes.pop(key, None)
            view._deleted.add(key)
            view.written.add(key)
        return outcome

    def _backoff(self, stage, attempt):
        """Jittered exponential pause before the next attempt.

        The jitter factor is derived deterministically from
        (run_id, stage, attempt) — see
        :func:`~repro.core.faults.attempt_jitter` — never from
        process-local RNG state, so reruns of the same run_id back
        off identically on every backend.
        """
        if stage.backoff <= 0:
            return
        delay = min(BACKOFF_CAP, stage.backoff * 2 ** (attempt - 1))
        delay *= attempt_jitter(self._run_id, stage.name, attempt)
        budget = self._control.remaining()
        if budget is not None:
            delay = min(delay, budget)
        if delay > 0:
            time.sleep(delay)

    # -- outcomes ------------------------------------------------------------

    def _finish(self, run, kind, status, summary, *, event=(),
                details=(), **record):
        """Take the terminal stamp and publish the stage's duration:
        terminal event, outcome count, histogram (cancelled stages
        excepted), report record and profile."""
        stage = run.stage
        end = time.perf_counter()
        seconds = 0.0 if run.start is None else end - run.start
        emit(self._tracer, kind, stage.name, stage.layer,
             monotonic=end, seconds=seconds, **dict(event))
        if self._m_outcomes is not None:
            self._m_outcomes.inc(stage=stage.name, status=status)
        if self._m_duration is not None and status != "cancelled":
            self._m_duration.observe(seconds, stage=stage.name)
        with self._lock:
            self.report.add(stage.layer, stage.name, summary, seconds,
                            details, status=status, **record)
        if run.token is not None:
            self._profiler.stage_end(
                run.token, seconds, self._session.worker_cpu(run.index))

    def record_cancelled(self, stage, why):
        """Record a stage the abort kept from starting (zero duration)."""
        self._finish(_StageRun(stage), "stage_cancelled", "cancelled",
                     f"cancelled: {why}", event={"reason": why},
                     error=str(why))

    def _record_run_cancelled(self, run, attempts):
        reason = self._control.reason or "cancelled"
        self._finish(run, "stage_cancelled", "cancelled",
                     f"cancelled: {reason}", event={"reason": reason},
                     retries=attempts, error=reason)
        if reason == "run deadline exceeded":
            raise RunDeadlineExceeded(
                f"run deadline expired during stage {run.stage.name!r}",
                report=self.report, state=self.state)

    def _replay_from_cache(self, run):
        key = self._keys[run.index]
        if self._cache is None or key is None:
            return False
        entry = self._cache.get(key)
        if entry is None:
            return False
        delta, deleted = entry.snapshot()
        with self._lock:
            self.state.update(delta)
            for k in deleted:
                self.state.pop(k, None)
        if self._m_replays is not None:
            self._m_replays.inc(stage=run.stage.name)
        self._finish(run, "cache_hit", "ok", entry.summary,
                     details=entry.details, cache_hit=True)
        return True

    def _record_success(self, run, outcome, view, attempts):
        summary, details = outcome
        delta, deleted = view.commit()
        key = self._keys[run.index]
        if self._cache is not None and key is not None:
            try:
                record = _cache.CacheEntry(summary, details, delta,
                                           deleted)
            except Exception:
                pass  # an unpicklable delta: the stage is uncacheable
            else:
                with self._lock:
                    self._cache[key] = record
        self._finish(run, "stage_end", "ok", summary, details=details,
                     retries=attempts)

    def _apply_policy(self, run, exc, attempts):
        stage = run.stage
        timed_out = isinstance(exc, StageTimeout)
        kind = "stage_timeout" if timed_out else "stage_error"
        error = {"error": str(exc), "retries": attempts}
        if stage.on_error == "fail":
            status = "timed_out" if timed_out else "failed"
            label = status.replace("_", " ")
            self._finish(run, kind, status, f"{label}: {exc}",
                         event=error, retries=attempts, error=str(exc))
            raise StageFailure(
                stage.name,
                f"stage {stage.name!r} {label} after "
                f"{attempts + 1} attempt(s): {exc}",
                report=self.report, state=self.state,
            ) from exc
        emit(self._tracer, kind, stage.name, stage.layer, **error)
        if stage.on_error == "skip":
            self._finish(run, "stage_skip", "skipped", f"skipped: {exc}",
                         retries=attempts, error=str(exc))
            return
        self._run_fallback(run, exc, attempts)

    def _run_fallback(self, run, exc, attempts):
        stage = run.stage
        emit(self._tracer, "stage_fallback", stage.name, stage.layer)
        view = _ContractView(self.state, stage, self._lock,
                             self._control,
                             copy_on_read=self._copy_on_read)
        try:
            outcome = _split_outcome(stage, stage.fallback(view))
        except ContractViolation:
            raise
        except StageCancelled:
            self._record_run_cancelled(run, attempts)
            return
        except Exception as fallback_exc:
            self._finish(run, "stage_error", "failed",
                         f"failed: {fallback_exc}",
                         event={"error": str(fallback_exc),
                                "retries": attempts, "fallback": True},
                         retries=attempts, error=str(fallback_exc))
            raise StageFailure(
                stage.name,
                f"stage {stage.name!r} fallback failed: {fallback_exc}",
                report=self.report, state=self.state,
            ) from fallback_exc
        view.commit()
        summary, details = outcome
        self._finish(run, "stage_end", "fallback", summary,
                     event={"status": "fallback"}, details=details,
                     retries=attempts, error=str(exc))


def _split_outcome(stage, outcome):
    """A stage's return value as ``(summary, details)``; anything but
    a summary or a ``(summary, mapping)`` pair is a ``TypeError``
    naming the stage, raised before the attempt commits."""
    if not isinstance(outcome, tuple):
        return outcome, {}
    if len(outcome) == 2 and isinstance(outcome[1], Mapping):
        return outcome
    kinds = ", ".join(type(value).__name__ for value in outcome)
    raise TypeError(
        f"stage {stage.name!r} returned a tuple of ({kinds}); expected "
        "a summary or a (summary, details mapping) pair")
