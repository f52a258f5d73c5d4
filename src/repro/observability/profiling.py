"""Lightweight per-stage profiling for pipeline runs.

``DecisionPipeline.run(profile=True)`` attaches a :class:`RunProfiler`
to the scheduler; for every stage it records

* ``wall_seconds`` — the scheduler's start→terminal interval, the
  same float as the report record, histogram and span (the profiler
  has no wall clock of its own),
* ``cpu_seconds`` — CPU time consumed by the executing thread
  (``time.thread_time``), so a stage that sleeps or waits on I/O
  shows a wall/CPU gap, plus worker-process CPU time summed over
  attempts on the process backend,
* ``queue_wait_seconds`` — how long the stage sat ready in the
  scheduler before a worker picked it up (scheduler pressure),
* ``net_alloc_bytes`` / ``peak_alloc_bytes`` — ``tracemalloc`` deltas
  over the stage: net retained allocation and the traced-memory peak
  above the stage's baseline, in the parent process only.

Memory is recorded only when the caller already has ``tracemalloc``
running; the profiler never starts, stops or resets it, so a profiled
run costs a CPU clock read per stage and the allocation fields read 0
otherwise.  The interpreter-wide peak is shared by everything the
caller traces, so a stage's ``peak_alloc_bytes`` is an upper bound
that may include other allocations (other stages under concurrency,
or anything traced before the stage began) — documented,
deterministic behaviour rather than a lie of precision.

Results land on :attr:`RunReport.profiles` as plain dicts, render in
:meth:`RunReport.render`, and are dumpable via ``python -m
repro.trace``.
"""

from __future__ import annotations

import threading
import time
import tracemalloc

__all__ = ["RunProfiler", "StageProfile"]


class StageProfile:
    """One stage's measured resource usage for a run."""

    __slots__ = ("stage", "layer", "wall_seconds", "cpu_seconds",
                 "queue_wait_seconds", "net_alloc_bytes",
                 "peak_alloc_bytes")

    def __init__(self, stage, layer, wall_seconds, cpu_seconds,
                 queue_wait_seconds, net_alloc_bytes,
                 peak_alloc_bytes):
        self.stage = str(stage)
        self.layer = str(layer)
        self.wall_seconds = float(wall_seconds)
        self.cpu_seconds = float(cpu_seconds)
        self.queue_wait_seconds = float(queue_wait_seconds)
        self.net_alloc_bytes = int(net_alloc_bytes)
        self.peak_alloc_bytes = int(peak_alloc_bytes)

    def as_dict(self):
        return {
            "stage": self.stage,
            "layer": self.layer,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "net_alloc_bytes": self.net_alloc_bytes,
            "peak_alloc_bytes": self.peak_alloc_bytes,
        }

    def __repr__(self):
        return (f"StageProfile({self.layer}/{self.stage}: "
                f"wall={self.wall_seconds:.4f}s "
                f"cpu={self.cpu_seconds:.4f}s "
                f"queue={self.queue_wait_seconds:.4f}s "
                f"net={self.net_alloc_bytes}B "
                f"peak={self.peak_alloc_bytes}B)")


class _StageToken:
    """Baseline measurements captured when a stage begins executing."""

    __slots__ = ("stage", "layer", "queue_wait", "cpu0", "mem0")

    def __init__(self, stage, layer, queue_wait, mem0):
        self.stage = stage
        self.layer = layer
        self.queue_wait = queue_wait
        self.cpu0 = time.thread_time()
        self.mem0 = mem0


class RunProfiler:
    """Collects :class:`StageProfile` records during one run.

    The scheduler calls :meth:`stage_begin` in the worker thread just
    before a stage's first attempt and :meth:`stage_end` when the
    stage reaches any terminal outcome; both are cheap (a CPU clock
    read, plus a ``tracemalloc.get_traced_memory`` call when the caller
    traces).
    """

    def __init__(self):
        self._lock = threading.Lock()  # noqa: RC034 -- per-run profiler; results exported as plain dicts
        self._profiles = {}
        self._active = False

    def start(self):
        self._active = True
        return self

    def stop(self):
        self._active = False
        return self

    def stage_begin(self, stage, layer, queue_wait=0.0):
        """Capture baselines in the executing thread; returns a token."""
        if not self._active:
            return None
        mem0 = (tracemalloc.get_traced_memory()[0]
                if tracemalloc.is_tracing() else 0)
        return _StageToken(stage, layer, queue_wait, mem0)

    def stage_end(self, token, wall_seconds, worker_cpu):
        """Close a token and record the stage's profile, given the
        scheduler's duration and any worker-process CPU time."""
        if token is None or not self._active:
            return None
        cpu = time.thread_time() - token.cpu0 + worker_cpu
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            net = current - token.mem0
            peak_delta = max(0, peak - token.mem0)
        else:
            net = peak_delta = 0
        profile = StageProfile(token.stage, token.layer, wall_seconds,
                               cpu, token.queue_wait, net, peak_delta)
        with self._lock:
            self._profiles[token.stage] = profile
        return profile

    def profiles(self):
        """``{stage name: profile dict}`` for everything recorded."""
        with self._lock:
            return {name: profile.as_dict()
                    for name, profile in self._profiles.items()}
