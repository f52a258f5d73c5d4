"""Pluggable execution backends: where stage attempts actually run.

The scheduler (:mod:`repro.core.scheduler`) decides *when* a stage may
run; an :class:`Executor` decides *where*.  Three backends ship:

* :class:`ThreadExecutor` — the default: contract-independent stages
  that are ready together fan out over a thread pool, while a lone
  ready stage runs inline on the calling thread.  Right for I/O-bound
  and GIL-releasing (large-numpy) stages; pure-Python CPU work
  serializes on the GIL.
* :class:`ProcessExecutor` — stage attempts run in worker *processes*,
  so CPU-bound Python stages scale with cores.  Stage inputs ship by
  value, except large contiguous ndarrays, which cross zero-copy
  through ``multiprocessing.shared_memory`` segments negotiated from
  the stage's declared ``reads``/``writes`` contract.
* :class:`SerialExecutor` — everything inline in the calling thread,
  lowest ready index first, so stages run in index order.  The
  debugging backend: plain stack traces, no pools, no interleaving.

Select one per run with ``DecisionPipeline.run(executor=...)`` — an
instance, a name (``"serial"`` / ``"thread"`` / ``"process"``), or
nothing, in which case the ``REPRO_EXECUTOR`` environment variable
decides (default ``"thread"``).

The process boundary and the Stage contract
-------------------------------------------

``ProcessExecutor`` preserves the engine's transactional semantics:
the worker buffers every write in a contract-enforcing view exactly
like an in-process attempt, and only a *successful* attempt's delta
travels back to the parent, where it is committed atomically under
the run lock.  A failed / timed-out / cancelled worker attempt ships
back a structured error instead and commits nothing.

Not every stage can cross the boundary: the stage function must be
picklable — module-level ``def``s are, lambdas and locally defined
closures are not (the static analyzer flags these at lint time as
rule RC022).  The declared ``reads``/``writes`` contract is how the
executor knows which state entries to ship.

Stages that fail this pre-flight run in-process (the parent) by
default, recorded in the ``engine.executor_local_stages_total``
metric; construct ``ProcessExecutor(on_unpicklable="error")`` to get
the pre-flight failure as a hard :class:`ExecutorError` naming the
stage instead.

Worker-side telemetry is not lost: each attempt runs against a fresh
worker :class:`~repro.observability.MetricsRegistry` whose snapshot
is shipped back with the result, with the attempt's worker CPU time,
and merged into the parent registry, so ``engine.*`` series —
contract violations included — stay complete.  The parent-side runner
emits every lifecycle event, so
:class:`~repro.observability.SpanTracer` trees are identical across
backends.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import pickle
import threading
import time
import traceback

from .stage import (
    ContractViolation,
    StageCancelled,
    StageTimeout,
    _ContractView,
    _RunControl,
)

__all__ = [
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "RemoteStageError",
    "SerialExecutor",
    "ThreadExecutor",
    "default_process_executor",
    "resolve_executor",
]

#: ndarray inputs at least this many bytes go through shared memory
#: instead of the pickle channel (one copy into the segment per run
#: per key, then zero-copy for every stage that reads the key).
SHARE_MIN_BYTES = 1 << 16

#: How often the parent polls a worker future, so run-level
#: cancellation can abandon a doomed attempt without waiting for it.
_POLL_SECONDS = 0.05


class ExecutorError(RuntimeError):
    """A stage cannot run on the selected backend (pre-flight or
    transport failure), with the reason spelled out."""


class RemoteStageError(RuntimeError):
    """A stage attempt raised in a worker process.

    The original exception type often cannot be reconstructed
    faithfully across the boundary, so the failure travels as this
    wrapper carrying ``original_type`` (qualified name) and
    ``remote_traceback`` (formatted worker-side traceback).  Retries
    and ``on_error`` policies treat it exactly like the original
    in-process exception.
    """

    def __init__(self, original_type, message, remote_traceback=None):
        super().__init__(f"{original_type}: {message}")
        self.original_type = str(original_type)
        self.remote_traceback = remote_traceback


# ---------------------------------------------------------------------------
# Shared-memory handoff
# ---------------------------------------------------------------------------

#: Picklable reference to a parent-owned shared-memory ndarray.
ShmHandle = collections.namedtuple("ShmHandle", "name dtype shape")

#: The slice of a Stage a worker-side contract view needs.  A plain
#: namedtuple so it pickles by value on every start method.
StageSpec = collections.namedtuple("StageSpec",
                                   "name reads writes timeout")


def _shareable(value):
    """Whether a state value qualifies for shared-memory handoff."""
    import numpy as np

    return (isinstance(value, np.ndarray)
            and value.dtype != object
            and value.nbytes >= SHARE_MIN_BYTES
            and value.flags["C_CONTIGUOUS"])


class _ShmArena:
    """Parent-owned shared-memory segments, one per shared state key.

    A segment is created (and the array copied in) the first time a
    key's current value is shared, then reused by every later stage of
    the run that reads the same object — the arena re-shares only when
    the key has been rebound to a different array.  ``close()`` at run
    end closes and unlinks everything.
    """

    def __init__(self):
        self._segments = {}  # key -> (value, SharedMemory, ShmHandle)
        self._lock = threading.Lock()  # noqa: RC034 -- parent-side shm bookkeeping; never pickled
        self.shared_bytes = 0

    def share(self, key, value):
        """A :class:`ShmHandle` for ``value``, creating the segment
        on first use; the caller has checked :func:`_shareable`."""
        import numpy as np
        from multiprocessing import shared_memory

        with self._lock:
            entry = self._segments.get(key)
            if entry is not None and entry[0] is value:
                return entry[2]
            segment = shared_memory.SharedMemory(create=True,
                                                 size=value.nbytes)
            mirror = np.ndarray(value.shape, dtype=value.dtype,
                                buffer=segment.buf)
            mirror[...] = value
            handle = ShmHandle(segment.name, str(value.dtype),
                               value.shape)
            if entry is not None:
                self._destroy(entry[1])
            self._segments[key] = (value, segment, handle)
            self.shared_bytes += value.nbytes
            return handle

    @staticmethod
    def _destroy(segment):
        for closer in (segment.close, segment.unlink):
            try:
                closer()
            except (OSError, FileNotFoundError):
                pass

    def close(self):
        with self._lock:
            for _, segment, _ in self._segments.values():
                self._destroy(segment)
            self._segments.clear()

    def __len__(self):
        with self._lock:
            return len(self._segments)


def _attach(handle):
    """Worker side: (read-only ndarray, segment) for a handle."""
    import numpy as np
    from multiprocessing import shared_memory

    # Attaching registers the name with the resource tracker, which
    # the worker shares with the parent (see ProcessExecutor._make_pool),
    # so the registration is the parent's own and its unlink removes it.
    # A tracker of the worker's own would unlink the segment at worker
    # exit (cpython#82300).
    segment = shared_memory.SharedMemory(name=handle.name)
    array = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                       buffer=segment.buf)
    array.flags.writeable = False
    return array, segment


# ---------------------------------------------------------------------------
# The worker-side attempt
# ---------------------------------------------------------------------------

def _remote_attempt(request):
    """Execute one stage attempt in a worker process.

    ``request`` is the dict built by :meth:`_ProcessSession.dispatch`.
    Returns pickled result bytes (pickling worker-side keeps
    unpicklable stage outputs a *clear* structured error instead of a
    broken future).  The attempt is fully transactional: the delta
    only exists in the returned payload.
    """
    from ..observability.metrics import MetricsRegistry, set_registry

    cpu0 = time.thread_time()
    spec = request["spec"]
    segments = []
    state = dict(request["inputs"])
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for key, handle in request["shared"].items():
            array, segment = _attach(handle)
            state[key] = array
            segments.append(segment)
        control = _RunControl(request["budget"])
        view = _ContractView(state, spec, threading.RLock(), control)
        try:
            outcome = request["function"](view)
            if view.timed_out():
                raise StageTimeout(spec.name, spec.timeout)
            delta, deleted = dict(view._writes), sorted(view._deleted)
            result = {"ok": True, "outcome": outcome, "delta": delta,
                      "deleted": deleted}
        except ContractViolation as exc:
            result = {"ok": False, "kind": "contract",
                      "message": str(exc)}
        except StageTimeout:
            result = {"ok": False, "kind": "timeout"}
        except StageCancelled as exc:
            result = {"ok": False, "kind": "cancelled",
                      "reason": exc.reason}
        except BaseException as exc:
            result = {"ok": False, "kind": "error",
                      "type": type(exc).__qualname__,
                      "message": str(exc),
                      "traceback": traceback.format_exc()}
        result["metrics"] = registry.snapshot()
        result["cpu"] = time.thread_time() - cpu0
        try:
            return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            written = sorted(result.get("delta", ()))
            return pickle.dumps({
                "ok": False, "kind": "unpicklable",
                "message": (
                    f"stage {spec.name!r} produced a value that cannot "
                    f"cross the process boundary ({exc}); keys written: "
                    f"{written} -- run this stage on the thread or "
                    "serial backend, or make its outputs picklable"),
                "metrics": registry.snapshot(), "cpu": result["cpu"],
            }, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        set_registry(previous)
        # Drop every reference into the mapped buffers before closing,
        # else SharedMemory.close() raises BufferError.
        del state, request
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a stage stashed the array somewhere
                pass


# ---------------------------------------------------------------------------
# Executor protocol and the in-process backends
# ---------------------------------------------------------------------------

class Executor:
    """Where stage attempts run.  Subclasses override :meth:`begin_run`."""

    kind = "base"

    def begin_run(self, stages, *, max_workers=None, metrics=None):
        """A per-run session; the scheduler calls ``finish()`` when
        the run ends (success or not)."""
        raise NotImplementedError

    def close(self):
        """Release long-lived resources (worker pools).  Idempotent."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class _Session:
    """Base per-run session: local attempts, and a thread pool for
    stages that run beside others (``pool`` is ``None`` when the
    backend runs everything inline)."""

    remote_stages = frozenset()

    def __init__(self, workers=None):
        self.pool = (None if workers is None
                     else concurrent.futures.ThreadPoolExecutor(workers))

    def remote(self, index):
        return index in self.remote_stages

    def run_attempt(self, index, stage, state, lock, control, attempt):
        raise NotImplementedError(
            f"{type(self).__name__} runs every attempt in-process")

    def worker_cpu(self, index):
        """CPU seconds worker processes spent on the stage this run."""
        return 0.0

    def finish(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)


class SerialExecutor(Executor):
    """Everything inline in the calling thread, in index order.

    The debugging backend: no pools, no interleaving, plain stack
    traces — and byte-identical results to the parallel backends for
    contract-correct pipelines.
    """

    kind = "serial"

    def begin_run(self, stages, *, max_workers=None, metrics=None):
        return _Session()


class ThreadExecutor(Executor):
    """The default backend: a per-run thread pool.

    Stages that are ready together run in worker threads of this
    process against the shared state dict (under the run lock), so
    there is no serialization cost — and no escape from the GIL for
    pure-Python CPU-bound stages.  A lone ready stage skips the pool.
    """

    kind = "thread"

    def __init__(self, max_workers=None):
        self.max_workers = (None if max_workers is None
                            else int(max_workers))

    def begin_run(self, stages, *, max_workers=None, metrics=None):
        workers = (self.max_workers or max_workers
                   or min(32, max(1, len(stages))))
        return _Session(workers)


# ---------------------------------------------------------------------------
# The process backend
# ---------------------------------------------------------------------------

class _ProcessSession(_Session):
    """One run on the process backend.

    Orchestration (retries, policies, events, commits) stays on parent
    threads; only the stage-function attempt crosses to the worker
    pool.  The session owns the run's shared-memory arena and the
    pre-flight verdict for every stage.
    """

    def __init__(self, executor, stages, workers, metrics):
        super().__init__(workers)
        self._executor = executor
        self._stages = stages
        self._arena = _ShmArena()
        self._metrics = metrics
        self._worker_cpu = {}
        self.remote_stages, self.local_reasons = executor.preflight(stages)
        if metrics is not None:
            counter = metrics.counter(
                "engine.executor_local_stages_total",
                "Stages the process backend ran in-parent, by reason")
            for reason in self.local_reasons.values():
                counter.inc(reason=reason)
            self._m_remote = metrics.counter(
                "engine.executor_remote_attempts_total",
                "Stage attempts dispatched to worker processes")
            self._m_shared = metrics.counter(
                "engine.executor_shm_bytes_total",
                "Bytes of ndarray input published to shared memory")
        else:
            self._m_remote = self._m_shared = None

    # -- remote attempt ------------------------------------------------------

    def _gather_inputs(self, stage, state, lock):
        """Split the stage's visible state into ship / share sets."""
        inputs, shared = {}, {}
        visible = set(stage.reads) | set(stage.writes)
        with lock:
            present = [(key, state[key]) for key in sorted(visible)
                       if key in state]
        for key, value in present:
            if _shareable(value):
                before = self._arena.shared_bytes
                shared[key] = self._arena.share(key, value)
                grown = self._arena.shared_bytes - before
                if self._m_shared is not None and grown:
                    self._m_shared.inc(grown)
            else:
                inputs[key] = value
        return inputs, shared

    def run_attempt(self, index, stage, state, lock, control, attempt):
        """Ship one attempt to a worker; returns
        ``(outcome, delta, deleted)`` or raises the reconstructed stage
        exception.  Worker metrics are merged into the parent registry,
        and the worker's CPU time added to the stage's, before either
        outcome."""
        inputs, shared = self._gather_inputs(stage, state, lock)
        request = {
            "spec": StageSpec(stage.name, stage.reads, stage.writes,
                              stage.timeout),
            "function": stage.function,
            "inputs": inputs,
            "shared": shared,
            "budget": control.remaining(),
            "attempt": attempt,
        }
        if self._m_remote is not None:
            self._m_remote.inc(stage=stage.name)
        future = self._executor.dispatch(request)
        payload = self._await(future, stage, control)
        result = pickle.loads(payload)
        # One stage's attempts run on one thread: no key is shared.
        self._worker_cpu[index] = (self._worker_cpu.get(index, 0.0)
                                   + result["cpu"])
        if self._metrics is not None and result.get("metrics"):
            self._metrics.merge_snapshot(result["metrics"])
        if result["ok"]:
            return result["outcome"], result["delta"], result["deleted"]
        kind = result["kind"]
        if kind == "timeout":
            raise StageTimeout(stage.name, stage.timeout or 0.0)
        if kind == "cancelled":
            control.checkpoint(stage.name)  # prefer the parent's reason
            raise StageCancelled(stage.name, result["reason"])
        if kind == "contract":
            raise ContractViolation(result["message"])
        if kind == "unpicklable":
            raise ExecutorError(result["message"])
        raise RemoteStageError(result["type"], result["message"],
                               result.get("traceback"))

    def worker_cpu(self, index):
        return self._worker_cpu.get(index, 0.0)

    def _await(self, future, stage, control):
        """Result bytes, polling so a cancelled run can abandon the
        attempt (the worker finishes; its result is discarded)."""
        while True:
            try:
                return future.result(timeout=_POLL_SECONDS)
            except concurrent.futures.TimeoutError:
                control.checkpoint(stage.name)
            except (pickle.PicklingError, AttributeError,
                    TypeError) as exc:
                raise ExecutorError(
                    f"stage {stage.name!r}: inputs could not be "
                    f"shipped to a worker process ({exc}); make the "
                    "values picklable or run this stage on the thread "
                    "backend") from exc

    def finish(self):
        super().finish()
        self._arena.close()


class ProcessExecutor(Executor):
    """Stage attempts in worker processes, inputs shared where large.

    Parameters
    ----------
    max_workers:
        Worker process count (default ``os.cpu_count()``).
    on_unpicklable:
        ``"local"`` (default) runs stages that cannot cross the
        boundary in the parent process and counts them in
        ``engine.executor_local_stages_total``; ``"error"`` raises
        :class:`ExecutorError` at run start instead, naming every
        offending stage and why.
    The worker pool is created lazily on the first remote attempt and
    reused across runs; :meth:`close` shuts it down.  Workers start
    with ``fork`` where available (fast, no re-import), else
    ``spawn``.
    """

    kind = "process"

    def __init__(self, max_workers=None, *, on_unpicklable="local"):
        if on_unpicklable not in ("local", "error"):
            raise ValueError(
                "on_unpicklable must be 'local' or 'error', got "
                f"{on_unpicklable!r}")
        self.max_workers = (int(max_workers) if max_workers is not None
                            else (os.cpu_count() or 1))
        self.on_unpicklable = on_unpicklable
        self._pool = None
        self._pool_lock = threading.Lock()  # noqa: RC034 -- owns the worker pool; orchestrator is process-local

    # -- pool lifecycle ------------------------------------------------------

    def _make_pool(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        context = multiprocessing.get_context(method)
        # Start the shared-memory resource tracker before any worker
        # forks, so every worker inherits it; otherwise each one starts
        # its own tracker process on its first segment attach.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   mp_context=context)

    def dispatch(self, request):
        """Submit one attempt request to the worker pool."""
        from concurrent.futures.process import BrokenProcessPool

        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            pool = self._pool
        try:
            return pool.submit(_remote_attempt, request)
        except BrokenProcessPool as exc:
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            raise ExecutorError(
                "the worker pool died (a worker was killed or "
                "crashed); subsequent runs recreate it") from exc

    def close(self):
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- pre-flight ----------------------------------------------------------

    def stage_obstacle(self, stage):
        """Why a stage cannot cross the process boundary (or None)."""
        for role, function in (("function", stage.function),
                               ("fallback", stage.fallback)):
            if function is None:
                continue
            try:
                # The probe bytes are discarded; silence libraries
                # that warn from __reduce__ hooks during the dump.
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    pickle.dumps(function,
                                 protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                name = getattr(function, "__qualname__",
                               repr(function))
                return (f"{role} {name!r} is not picklable ({exc}); "
                        "lambdas and locally defined closures cannot "
                        "run in a worker process -- move the function "
                        "to module level (lint rule RC022 flags this "
                        "statically)")
        return None

    def preflight(self, stages):
        """``(remote_indices, {index: reason})`` after pickling checks.

        With ``on_unpicklable="error"`` a non-empty reason map raises
        :class:`ExecutorError` listing every offending stage.
        """
        remote, reasons = set(), {}
        for index, stage in enumerate(stages):
            obstacle = self.stage_obstacle(stage)
            if obstacle is None:
                remote.add(index)
            else:
                reasons[index] = "unpicklable"
                if self.on_unpicklable == "error":
                    raise ExecutorError(
                        f"stage {stages[index].name!r} cannot run "
                        f"under ProcessExecutor: {obstacle}")
        return frozenset(remote), reasons

    def begin_run(self, stages, *, max_workers=None, metrics=None):
        workers = max_workers or min(32, max(1, len(stages)))
        return _ProcessSession(self, stages, workers, metrics)

    def __repr__(self):
        return (f"ProcessExecutor(max_workers={self.max_workers}, "
                f"on_unpicklable={self.on_unpicklable!r})")


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

_process_default = None
_process_default_lock = threading.Lock()


def default_process_executor():
    """The process-wide shared :class:`ProcessExecutor` used when the
    backend is selected by name — shared so its worker pool amortizes
    across runs."""
    global _process_default
    with _process_default_lock:
        if _process_default is None:
            import atexit

            _process_default = ProcessExecutor()
            # Shut the shared pool down cleanly before interpreter
            # teardown starts dismantling multiprocessing internals.
            atexit.register(_process_default.close)
        return _process_default


def resolve_executor(spec=None):
    """Normalize an ``executor=`` argument to an :class:`Executor`.

    ``None`` consults ``REPRO_EXECUTOR`` (``serial`` / ``thread`` /
    ``process``), defaulting to the thread backend; strings name a
    backend (``"process"`` resolves to the shared default instance so
    its pool is reused); instances pass through.
    """
    if spec is None:
        spec = os.environ.get("REPRO_EXECUTOR", "").strip() or "thread"
    if isinstance(spec, Executor):
        return spec
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialExecutor()
        if name == "thread":
            return ThreadExecutor()
        if name == "process":
            return default_process_executor()
        raise ValueError(
            f"unknown executor {spec!r}; expected 'serial', 'thread', "
            "'process' or an Executor instance")
    raise TypeError(
        f"executor must be a name or an Executor, got {type(spec).__name__}")
