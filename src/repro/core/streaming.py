"""Streaming / incremental pipeline execution: ticks over a DAG.

Production traffic arrives as an unbounded stream, but
:meth:`DecisionPipeline.run` recomputes the whole DAG from scratch.
:class:`IncrementalSession` (returned by
:meth:`DecisionPipeline.stream`) closes that gap: the session carries
the input state and every stage's last committed record (a frozen
:class:`~repro.core.cache.CacheEntry`: pickled delta plus deletion
tombstones) across **ticks**.  Each ``tick(changed=..., deleted=...)``

1. applies the mutations to the carried input state,
2. walks the stages in topological (layer-major) order, consulting
   each declared ``reads``/``writes`` contract to compute the **dirty
   downstream cone** of the changed keys,
3. replays every *clean* stage from a fresh copy of its carried
   record, deletion tombstones included, and re-executes only dirty
   stages — the engine's cache is a plain ``{stage name: record}``
   dict, so ticks publish no ``StageCache`` lookup or size metrics,
4. and carries that dict, now holding the new records too, to the
   next tick.

Every tick funnels through the same engine core as ``run()``
(:func:`repro.core.pipeline._execute_run`), so events, metrics,
reports, failure policies, timeouts, deadlines and all three executor
backends (serial / thread / process) behave identically; the final
state of a tick is byte-identical to a from-scratch ``run()`` on the
same input state for deterministic stages — the differential harness
in ``tests/test_streaming.py`` asserts exactly that.

Dirty-cone rules (walked in topological order over a live set of
*dirty keys*, seeded with the tick's changed/deleted keys plus any
keys pending from failed ticks):

* a stage with no carried record (first tick, prior skip/fallback,
  or an uncacheable result) is dirty;
* a stage whose declared ``reads`` intersect the dirty set is dirty;
* a dirty stage adds its declared ``writes`` to the dirty set;
* a clean stage *removes* the keys its carried record actually wrote
  or deleted — after replay they match the previous tick exactly, so
  downstream readers are clean again.  Only actual effects are
  removed, never declared writes: a declared-but-unwritten key stays
  dirty.

Ticks are **key-identity** based, not content based: passing a key in
``changed`` dirties its cone even if the value is equal.  Fingerprint
the value yourself if you want content-level cutoffs.

Incremental folds: a stage constructed with ``incremental=fold`` does
not recompute from scratch when it is dirty on a non-first tick.
Instead the engine seeds the attempt's transactional view with a
copy of the stage's previous record (tombstones re-applied) and calls
``fold(view, tick)`` — the :class:`Tick` names the changed/deleted
keys — so a windowed operator folds the new observations into carried
state.  The fold *must* leave the view in the same state a full
recompute would; the engine guarantees byte-identity only for
non-incremental stages and checks fold discipline in the differential
harness.

Failure semantics are transactional at tick granularity: a failed or
deadline-cancelled tick publishes nothing — the carried state and
records remain those of the last successful tick, and the failed
tick's mutations stay *pending* so the next successful tick
recomputes the whole accumulated cone.
"""

from __future__ import annotations

import collections
import threading
import time
import uuid

from . import dag as _dag
from .events import emit
from .stage import RunDeadlineExceeded, Stage, StageFailure

__all__ = ["IncrementalSession", "Tick"]


class Tick(collections.namedtuple("Tick", "number changed deleted")):
    """One tick's identity, handed to incremental folds.

    ``number`` is the 0-based tick index; ``changed`` / ``deleted``
    are frozensets of the state keys this tick mutated at the session
    boundary.  Plain data, so it crosses the process boundary with
    the stage function.
    """

    __slots__ = ()


class _IncrementalCall:
    """Substitute stage function for a dirty incremental stage.

    Seeds the attempt's view with a thawed copy of the stage's
    previous record (so the fold reads its own carried state through
    normal contract-checked access), re-applies previous deletion
    tombstones, then delegates to the user's fold.  Picklable whenever
    the fold is, so the process backend's pre-flight treats it like
    any other stage function.
    """

    def __init__(self, fold, tick, record):
        self.fold = fold
        self.tick = tick
        self.record = record

    def __call__(self, view):
        carried, carried_deleted = self.record.snapshot()
        for key, value in carried.items():
            view[key] = value
        for key in carried_deleted:
            if key in view:
                del view[key]
        return self.fold(view, self.tick)


def _clone_stage(stage, function):
    """The stage with its function swapped, everything else intact."""
    return Stage(stage.layer, stage.name, function,
                 reads=stage.reads, writes=stage.writes,
                 on_error=stage.on_error, fallback=stage.fallback,
                 retries=stage.retries, timeout=stage.timeout,
                 backoff=stage.backoff)


class IncrementalSession:
    """Carries state and per-stage deltas across incremental ticks.

    Construct through :meth:`DecisionPipeline.stream`.  Not safe for
    concurrent ticks — a lock serializes them, so interleaved callers
    block rather than corrupt the carried state.
    """

    def __init__(self, pipeline, initial_state=None, *, tracer=None,
                 max_workers=None, copy_on_read=False, metrics=None,
                 executor=None):
        self._pipeline = pipeline
        self._stages = pipeline._ordered_stages()
        self._deps = _dag.resolve_dependencies(self._stages)
        self._tracer = tracer
        self._max_workers = max_workers
        self._copy_on_read = bool(copy_on_read)
        self._metrics = metrics
        self._executor = executor
        self._initial = dict(initial_state or {})
        self._state = None          # final state of the last ok tick
        self._records = {}          # stage name -> CacheEntry
        self._pending = set()       # dirty keys from failed ticks
        self._force_full = False
        self._ticks = 0             # ticks attempted (keys/ids)
        self.completed = 0          # ticks that committed
        self.last_report = None
        self._tick_lock = threading.Lock()  # noqa: RC034 -- serializes ticks; sessions never cross a process

    # -- inspection ----------------------------------------------------------

    @property
    def state(self):
        """Final state of the last successful tick (shallow copy).

        ``None`` before the first successful tick.
        """
        return None if self._state is None else dict(self._state)

    @property
    def input_state(self):
        """The carried input state, mutations applied (shallow copy)."""
        return dict(self._initial)

    def __repr__(self):
        return (f"IncrementalSession({self._pipeline.title!r}, "
                f"ticks={self.completed}/{self._ticks})")

    # -- planning ------------------------------------------------------------

    def _plan(self, dirty, full):
        """Per-stage disposition for one tick.

        Returns a list aligned with the stages: ``"replay"`` (clean,
        serve from the carried record), ``"execute"`` (recompute) or
        ``"fold"`` (dirty, but the stage folds into carried state).
        Mutates ``dirty`` in place following the module-docstring
        rules; the walk order is the layer-major stage order, which
        is a valid topological order of the resolved DAG.
        """
        plan = []
        for stage in self._stages:
            record = self._records.get(stage.name)
            if (record is None or full
                    or not stage.reads.isdisjoint(dirty)):
                dirty |= stage.writes
                fold = (stage.incremental is not None
                        and record is not None and not full)
                plan.append("fold" if fold else "execute")
            else:
                dirty -= record.written | record.deleted
                plan.append("replay")
        return plan

    # -- execution -----------------------------------------------------------

    def tick(self, changed=None, deleted=(), *, deadline=None,
             run_id=None, full=False):
        """Apply mutations and run the dirty cone; returns
        ``(state, report)`` exactly like :meth:`DecisionPipeline.run`.

        Parameters
        ----------
        changed:
            Mapping of state keys to new values.  Key identity is
            what matters: a key listed here dirties its downstream
            cone even if the value compares equal.
        deleted:
            Iterable of state keys to remove from the input state
            (missing keys are tolerated but still dirty their cone).
        deadline, run_id:
            Per-tick :meth:`DecisionPipeline.run` semantics.
        full:
            Force a from-scratch recompute of every stage — no
            replays, no incremental folds.  The first tick is always
            full in effect (there is nothing to replay yet).

        Raises whatever ``run()`` raises; a raising tick commits
        nothing — carried state and records stay those of the last
        successful tick, and this tick's mutations stay pending until
        a tick succeeds.
        """
        with self._tick_lock:
            return self._tick(changed, deleted, deadline=deadline,
                              run_id=run_id, full=full)

    def _tick(self, changed, deleted, *, deadline, run_id, full):
        from ..observability.metrics import get_registry
        from .pipeline import _execute_run

        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive or None")
        changed = dict(changed or {})
        deleted = frozenset(str(key) for key in deleted)
        overlap = set(changed) & deleted
        if overlap:
            raise ValueError(
                f"keys both changed and deleted: {sorted(overlap)}")
        number = self._ticks
        self._ticks += 1
        run_id = (uuid.uuid4().hex[:12] if run_id is None
                  else str(run_id))
        full = bool(full) or self._force_full

        # 1. Mutate the carried input state.
        self._initial.update(changed)
        for key in deleted:
            self._initial.pop(key, None)

        # 2. Plan the dirty cone; clean stages replay their records.
        dirty = self._pending | set(changed) | set(deleted)
        pending = set(dirty)  # what stays pending if this tick fails
        plan = self._plan(dirty, full)
        tick_info = Tick(number, frozenset(changed), deleted)
        records, stages = {}, []
        for stage, disposition in zip(self._stages, plan):
            if disposition == "replay":
                records[stage.name] = self._records[stage.name]
            elif disposition == "fold":
                stage = _clone_stage(stage, _IncrementalCall(
                    stage.incremental, tick_info,
                    self._records[stage.name]))
            stages.append(stage)
        saved = plan.count("replay")
        folded = plan.count("fold")
        executed = len(plan) - saved

        # 3. Execute through the shared engine core.
        metrics = (self._metrics if self._metrics is not None
                   else get_registry())
        started = time.perf_counter()
        emit(self._tracer, "tick_start", monotonic=started,
             tick=number, run_id=run_id, changed=len(changed),
             deleted=len(deleted), dirty=executed, saved=saved,
             full=full)
        state = dict(self._initial)
        status = "ok"
        try:
            report = _execute_run(
                self._pipeline.title, stages, self._deps, state,
                cache=records,
                cache_keys=[stage.name for stage in stages],
                tracer=self._tracer,
                max_workers=self._max_workers, deadline=deadline,
                copy_on_read=self._copy_on_read, metrics=metrics,
                executor=self._executor, run_id=run_id,
                run_data={"tick": number})
        except RunDeadlineExceeded:
            status = "deadline_exceeded"
            raise
        except StageFailure:
            status = "failed"
            raise
        except BaseException:
            status = "error"
            raise
        finally:
            if status != "ok":
                self._pending = pending
                self._force_full = full
            metrics.counter(
                "engine.ticks_total",
                "Incremental ticks by terminal status").inc(
                    status=status)
            counter = metrics.counter(
                "engine.tick_stages_total",
                "Per-tick stage dispositions (replayed = saved work)")
            if saved:
                counter.inc(saved, disposition="replayed")
            if folded:
                counter.inc(folded, disposition="incremental")
            if executed - folded:
                counter.inc(executed - folded, disposition="executed")
            ended = time.perf_counter()
            emit(self._tracer, "tick_end", monotonic=ended, tick=number,
                 run_id=run_id, status=status, dirty=executed,
                 saved=saved)

        # 4. Carry the tick's records.  A stage with no record
        # (skipped, fallback, uncacheable) stays dirty.
        metrics.histogram(
            "engine.tick_duration_seconds",
            "Wall-clock duration of incremental ticks").observe(
                ended - started)
        self._records = records
        self._state = state
        self._pending = set()
        self._force_full = False
        self.completed += 1
        self.last_report = report
        return state, report
