"""Stages with declared contracts: the unit of work of the engine.

A :class:`Stage` is a named function attached to one of the four
Figure-1 layers, carrying a *contract*: the state keys it ``reads``
and ``writes``.  Contracts drive everything downstream:

* the dependency resolver (:mod:`repro.core.dag`) turns overlapping
  contracts into DAG edges, so contract-independent stages can run
  concurrently;
* the scheduler hands each stage a :class:`_ContractView` of the
  shared state that *enforces* the contract at run time — an
  undeclared read or write raises :class:`ContractViolation`;
* the cache (:mod:`repro.core.cache`) keys a stage's result on the
  content of exactly the inputs its contract names.

Both sides are required: a stage that touches no state declares
``reads=()`` / ``writes=()``, and a missing side raises
:class:`TypeError` at construction.

Execution is *transactional*: the view buffers every write (and
deletion) of one attempt and commits to shared state atomically only
when the attempt succeeds.  A failed, timed-out, skipped or cancelled
attempt leaves shared state exactly as it found it, so retries and
``on_error="skip"`` can never poison a run with torn writes.  The one
escape hatch is in-place mutation of a *read* value (e.g. writing
into a numpy array pulled out of state) — by default the transaction
layer hands out real references and cannot intercept that.  Two
defenses close it: ``run(copy_on_read=True)`` hands out defensive
copies of numpy arrays read through read-only keys, and the static
analyzer (``python -m repro.lint``, rule RC004) flags the mutation at
lint time before a run ever starts.
"""

from __future__ import annotations

import time
from collections.abc import MutableMapping

__all__ = [
    "ContractViolation",
    "RunDeadlineExceeded",
    "Stage",
    "StageCancelled",
    "StageFailure",
    "StageTimeout",
]


_POLICIES = ("fail", "skip", "fallback")


class ContractViolation(RuntimeError):
    """A stage touched a state key its contract does not declare."""


class StageFailure(RuntimeError):
    """A stage with the ``fail`` policy exhausted its retries.

    Carries the partial run artifacts so a failed run still leaves an
    audit trail: ``.stage`` (name), ``.report`` (records up to the
    failure), ``.state`` (state as of the failure) and
    ``.secondary`` (exceptions from other in-flight stages that
    failed concurrently; previously these were silently dropped).
    """

    def __init__(self, stage, message, *, report=None, state=None):
        super().__init__(message)
        self.stage = str(stage)
        self.report = report
        self.state = state
        self.secondary = []


class StageTimeout(RuntimeError):
    """A stage attempt exceeded its ``timeout`` budget.

    Raised cooperatively into the stage function at its next state
    access, or by the runner when an attempt returns over budget.
    Counts as an ordinary failure: retries and the stage's
    ``on_error`` policy apply.
    """

    def __init__(self, stage, timeout):
        super().__init__(
            f"stage {stage!r} exceeded its {timeout:.3f}s timeout"
        )
        self.stage = str(stage)
        self.timeout = float(timeout)


class StageCancelled(BaseException):
    """The run was cancelled while this stage was in flight.

    Deliberately a ``BaseException``: a stage function's blanket
    ``except Exception`` must not swallow cooperative cancellation.
    Cancellation is not a stage failure — it is never retried and no
    failure policy applies; the attempt's buffered writes are simply
    discarded.
    """

    def __init__(self, stage, reason):
        super().__init__(
            f"stage {stage!r} cancelled ({reason})"
        )
        self.stage = str(stage)
        self.reason = str(reason)


class RunDeadlineExceeded(RuntimeError):
    """The run-level ``deadline`` budget expired before completion.

    Carries the partial ``.report`` and ``.state`` like
    :class:`StageFailure`; committed stages stay committed, in-flight
    attempts are rolled back.
    """

    def __init__(self, message, *, report=None, state=None):
        super().__init__(message)
        self.report = report
        self.state = state


def _as_contract(keys, side):
    """Normalize one declared contract side to a frozenset of keys."""
    if keys is None or isinstance(keys, str):
        raise TypeError(
            f"{side} must be an iterable of key names (() for none), "
            f"not {keys!r}"
        )
    return frozenset(str(key) for key in keys)


class Stage:
    """A named pipeline stage with contract and failure policy.

    Parameters
    ----------
    layer, name, function:
        As in the original pipeline: the Figure-1 layer, a unique
        stage name, and a callable receiving the state mapping.
    reads, writes:
        Required iterables of state keys the stage consumes /
        produces; ``()`` declares an empty side.
    on_error:
        ``"fail"`` (default) aborts the run, ``"skip"`` records the
        error and continues, ``"fallback"`` invokes ``fallback``.
    fallback:
        Callable with the stage signature, required when
        ``on_error="fallback"``.
    retries:
        Extra attempts before the failure policy applies.
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = no
        limit).  Enforced cooperatively at every state access and
        again when the attempt returns; a timed-out attempt commits
        nothing and counts as a failure (retries, then policy).
    backoff:
        Base delay in seconds for exponential backoff between retry
        attempts (``delay = backoff * 2**(attempt-1)``, full jitter,
        capped at 2 seconds).  ``0`` disables backoff.
    incremental:
        Optional *fold* callable ``fold(view, tick)`` for streaming
        sessions (see :mod:`repro.core.streaming`).  On a tick where
        the stage is dirty but has a previous committed result, the
        session seeds the view with that carried delta and calls the
        fold instead of ``function``, so windowed operators update
        carried state instead of recomputing from scratch.  The fold
        must produce the same committed delta as ``function`` would
        on the full input — the differential harness checks exactly
        that.  ``None`` (default) always recomputes.
    """

    __slots__ = ("layer", "name", "function", "reads", "writes",
                 "on_error", "fallback", "retries", "timeout",
                 "backoff", "incremental")

    def __init__(self, layer, name, function, *, reads, writes,
                 on_error="fail", fallback=None, retries=0,
                 timeout=None, backoff=0.02, incremental=None):
        if not callable(function):
            raise TypeError("function must be callable")
        if on_error not in _POLICIES:
            raise ValueError(
                f"on_error must be one of {_POLICIES}, got {on_error!r}"
            )
        if on_error == "fallback" and not callable(fallback):
            raise TypeError(
                "on_error='fallback' requires a callable fallback"
            )
        if fallback is not None and on_error != "fallback":
            raise ValueError(
                "fallback given but on_error is not 'fallback'"
            )
        retries = int(retries)
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError("timeout must be positive or None")
        backoff = float(backoff)
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if incremental is not None and not callable(incremental):
            raise TypeError("incremental must be callable or None")
        self.layer = str(layer)
        self.name = str(name)
        self.function = function
        self.reads = _as_contract(reads, "reads")
        self.writes = _as_contract(writes, "writes")
        self.on_error = on_error
        self.fallback = fallback
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        self.incremental = incremental

    def describe_contract(self):
        """The contract as plain, JSON-ready data.

        The introspection hook tooling builds on (the static analyzer
        in :mod:`repro.analysis` checks the same shape at lint time):
        ``reads``/``writes`` are sorted key lists.
        """
        return {
            "layer": self.layer,
            "name": self.name,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "on_error": self.on_error,
            "has_fallback": self.fallback is not None,
            "retries": self.retries,
            "timeout": self.timeout,
            "incremental": self.incremental is not None,
        }

    def __repr__(self):
        return (
            f"Stage({self.layer}/{self.name}, reads={self.reads!r}, "
            f"writes={self.writes!r}, on_error={self.on_error!r})"
        )


class _ContractView(MutableMapping):
    """A contract-enforcing, transactional view of the shared state.

    Stage functions receive this instead of the raw dict.  It behaves
    like the state mapping restricted to the stage's declared keys:
    reads outside ``reads | writes`` and writes outside ``writes``
    raise :class:`ContractViolation` immediately, naming the stage.

    Writes and deletions never touch the shared dict directly: they
    land in a per-attempt buffer (``_writes`` plus ``_deleted``
    tombstones) that :meth:`commit` applies atomically under the
    run's lock once the attempt succeeds.  The stage reads its own
    buffered writes (read-your-writes), while shared reads go to the
    underlying dict under the lock.  Discarding the view discards the
    attempt — that is the whole rollback mechanism.

    Every access is also a cooperative checkpoint: when the run is
    cancelled the access raises :class:`StageCancelled`, and when the
    attempt's ``timeout`` budget is spent it raises
    :class:`StageTimeout`.

    ``copy_on_read=True`` closes the worst of the in-place-mutation
    escape hatch: numpy arrays fetched through a key the contract
    declares *read-only* (the stage's ``writes`` side does not include
    the key) are handed out as defensive copies, so
    sorting or slicing into a read value can no longer tear shared
    state behind the transaction layer's back.  The copy is made once
    per key per attempt, so repeated reads stay consistent within the
    stage.  Mutating the copy is still a contract smell -- the static
    analyzer (rule RC004) flags it -- but it is no longer a data race.
    """

    __slots__ = ("_state", "_stage", "_lock", "_control", "_writes",
                 "_deleted", "_timeout_at", "written", "_copy_on_read",
                 "_copies")

    def __init__(self, state, stage, lock, control=None, *,
                 copy_on_read=False):
        self._state = state
        self._stage = stage
        self._lock = lock
        self._control = control
        self._writes = {}
        self._deleted = set()
        self._timeout_at = (None if stage.timeout is None
                            else time.perf_counter() + stage.timeout)
        self.written = set()
        self._copy_on_read = bool(copy_on_read)
        self._copies = {}

    # -- transactional machinery --------------------------------------------

    def _checkpoint(self):
        """Cooperative cancellation / timeout check at every access."""
        if self._control is not None:
            self._control.checkpoint(self._stage.name)
        if (self._timeout_at is not None
                and time.perf_counter() > self._timeout_at):
            raise StageTimeout(self._stage.name, self._stage.timeout)

    def timed_out(self):
        """Whether the attempt has outlived its timeout budget."""
        return (self._timeout_at is not None
                and time.perf_counter() > self._timeout_at)

    def commit(self):
        """Atomically apply buffered writes/deletes to shared state.

        Returns ``(writes, deleted)``: the dict of committed values
        and the frozenset of deleted keys — exactly the replayable
        delta the cache stores (deletions included as tombstones).
        """
        with self._lock:
            self._state.update(self._writes)
            for key in self._deleted:
                self._state.pop(key, None)
        return dict(self._writes), frozenset(self._deleted)

    # -- contract checks ----------------------------------------------------

    @staticmethod
    def _count_violation(stage_name, side):
        """Publish a contract violation to the global metrics registry.

        Violations are programming errors and abort the run, so the
        lazy registry lookup only ever runs on the exceptional path.
        """
        from ..observability.metrics import get_registry

        get_registry().counter(
            "engine.contract_violations_total",
            "Undeclared state accesses caught by contract views").inc(
                stage=stage_name, side=side)

    def _check_read(self, key):
        if self._visible(key):
            return
        self._count_violation(self._stage.name, "read")
        raise ContractViolation(
            f"stage {self._stage.name!r} read undeclared key {key!r} "
            f"(declared reads: {sorted(self._stage.reads)})"
        )

    def _check_write(self, key):
        if key in self._stage.writes:
            return
        self._count_violation(self._stage.name, "write")
        raise ContractViolation(
            f"stage {self._stage.name!r} wrote undeclared key {key!r} "
            f"(declared writes: {sorted(self._stage.writes)})"
        )

    def _visible(self, key):
        """Whether the contract lets the stage see this key at all."""
        return key in self._stage.reads or key in self._stage.writes

    # -- MutableMapping interface -------------------------------------------

    def __getitem__(self, key):
        self._checkpoint()
        self._check_read(key)
        if key in self._writes:
            return self._writes[key]
        if key in self._deleted:
            raise KeyError(key)
        with self._lock:
            value = self._state[key]
        if self._copy_on_read and key not in self._stage.writes:
            import numpy as np

            if isinstance(value, np.ndarray):
                cached = self._copies.get(key)
                if cached is None:
                    cached = value.copy()
                    self._copies[key] = cached
                return cached
        return value

    def __setitem__(self, key, value):
        self._checkpoint()
        self._check_write(key)
        self._deleted.discard(key)
        self._writes[key] = value
        self.written.add(key)

    def __delitem__(self, key):
        self._checkpoint()
        self._check_write(key)
        if key in self._writes:
            del self._writes[key]
        else:
            if key in self._deleted:
                raise KeyError(key)
            with self._lock:
                if key not in self._state:
                    raise KeyError(key)
        self._deleted.add(key)
        self.written.add(key)

    def __iter__(self):
        self._checkpoint()
        with self._lock:
            keys = list(self._state)
        merged = [key for key in keys
                  if key not in self._deleted and key not in self._writes]
        merged.extend(self._writes)
        return iter([key for key in merged if self._visible(key)])

    def __len__(self):
        return len(list(iter(self)))

    def __contains__(self, key):
        self._checkpoint()
        if not self._visible(key):
            return False
        if key in self._writes:
            return True
        if key in self._deleted:
            return False
        with self._lock:
            return key in self._state

    def __repr__(self):
        return f"<state view for stage {self._stage.name!r}>"
