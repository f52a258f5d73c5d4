"""Observability: structured run events and the tracer protocol.

The engine narrates a run as a stream of :class:`StageEvent` objects
— ``run_start``, ``stage_start``, ``stage_attempt``, ``stage_end``,
``stage_error``, ``stage_retry``, ``stage_skip``, ``stage_fallback``,
``stage_timeout``, ``stage_cancelled``, ``fault_injected``,
``cache_hit``, ``run_end`` — plus ``tick_start`` / ``tick_end``
bracketing each incremental tick of a streaming session (see
:mod:`repro.core.streaming`) — delivered to an opt-in *tracer*: any
object with an ``on_event(event)`` method (duck-typed; subclassing
is optional).  Tracer exceptions are swallowed so a broken observer
cannot take the pipeline down with it.

Threading contract: the scheduler runs contract-independent stages
on a thread pool, so ``on_event`` is called **concurrently from
multiple worker threads** and must be thread-safe.  Events for any
*single* stage arrive in program order (one thread executes a stage
at a time), but events from different stages interleave arbitrarily.
Every event carries both a wall-clock ``timestamp`` (``time.time``)
and a ``monotonic`` stamp (``time.perf_counter``), so observers can
order and measure without re-reading clocks.

A stage's two engine stamps ride on its events: the start stamp on
``stage_start``, the terminal stamp on the one event that ends it
(``stage_end``, ``stage_skip``, a final ``stage_error`` /
``stage_timeout``, ``stage_cancelled`` or ``cache_hit``).  Only a
terminal event carries ``seconds`` — terminal minus start, the
stage's duration everywhere.  Run and tick events bracket run and
tick durations the same way.

:class:`CollectingTracer` buffers events for inspection (tests,
dashboards; explicitly thread-safe — its buffer and accessors are
lock-protected).
:class:`repro.observability.SpanTracer` folds the stream into a span
tree.  A tracer that additionally exposes an
``inject(stage_name, attempt)`` method is a *tracer-hook*: the
scheduler calls it at the top of every attempt, and it may sleep or
raise to perturb execution — see
:class:`repro.core.faults.FaultInjector`.
"""

from __future__ import annotations

import contextlib
import threading
import time

__all__ = [
    "EVENT_KINDS",
    "StageEvent",
    "Tracer",
    "CollectingTracer",
    "emit",
]

EVENT_KINDS = (
    "run_start",
    "stage_start",
    "stage_attempt",
    "stage_end",
    "stage_error",
    "stage_retry",
    "stage_skip",
    "stage_fallback",
    "stage_timeout",
    "stage_cancelled",
    "fault_injected",
    "cache_hit",
    "run_end",
    "tick_start",
    "tick_end",
)


class StageEvent:
    """One engine event: what happened, to which stage, when.

    ``timestamp`` is wall-clock (``time.time``) for human display;
    ``monotonic`` is a ``time.perf_counter`` reading (at emission, or
    the engine stamp the event carries) — span durations and ordering
    assertions are built on it.
    """

    __slots__ = ("kind", "stage", "layer", "timestamp", "monotonic",
                 "data")

    def __init__(self, kind, stage=None, layer=None, **data):
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"kind must be one of {EVENT_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self.stage = stage
        self.layer = layer
        self.timestamp = time.time()
        self.monotonic = time.perf_counter()
        self.data = data

    def to_dict(self):
        """The event as plain JSON-ready data.

        The wire form events take when they cross a process
        boundary or land in artifacts; :meth:`from_dict` round-trips
        it.
        """
        return {"kind": self.kind, "stage": self.stage,
                "layer": self.layer, "timestamp": self.timestamp,
                "monotonic": self.monotonic, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, payload):
        """Rebuild an event from :meth:`to_dict` output, preserving
        the original emission timestamps."""
        event = cls(payload["kind"], payload.get("stage"),
                    payload.get("layer"), **dict(payload.get("data", {})))
        if "timestamp" in payload:
            event.timestamp = float(payload["timestamp"])
        if "monotonic" in payload:
            event.monotonic = float(payload["monotonic"])
        return event

    def __repr__(self):
        where = f" {self.layer}/{self.stage}" if self.stage else ""
        extra = f" {self.data}" if self.data else ""
        return f"StageEvent({self.kind}{where}{extra})"


class Tracer:
    """The tracer protocol: override :meth:`on_event`.

    Any object with a compatible ``on_event`` works; this base class
    just documents the contract and provides a no-op default.
    """

    def on_event(self, event):  # pragma: no cover - trivial default
        pass


class CollectingTracer(Tracer):
    """Buffers every event; explicitly thread-safe.

    ``on_event`` may be called concurrently from scheduler worker
    threads; the buffer append and every accessor hold the tracer's
    lock, so no event is ever lost or observed torn.  Forward targets
    attached with :meth:`forward_to` receive each event *after* it is
    buffered (outside the lock, errors swallowed per target) — the
    composition hook that lets a :class:`FaultInjector` and a
    :class:`~repro.observability.SpanTracer` observe one run
    together, including events the injector itself generates.
    """

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()
        self._forward = []

    def __getstate__(self):
        """Pickle without the lock (buffered events ride along)."""
        with self._lock:
            state = self.__dict__.copy()
            state["events"] = list(self.events)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def forward_to(self, *tracers):
        """Also deliver every event to ``tracers``; returns ``self``."""
        self._forward.extend(tracers)
        return self

    def on_event(self, event):
        with self._lock:
            self.events.append(event)
        for tracer in self._forward:
            with contextlib.suppress(Exception):
                tracer.on_event(event)

    def kinds(self):
        """The event kinds seen, in arrival order."""
        with self._lock:
            return [event.kind for event in self.events]

    def of_kind(self, kind):
        with self._lock:
            return [event for event in self.events if event.kind == kind]


def emit(tracer, kind, stage=None, layer=None, *, monotonic=None,
         **data):
    """Deliver an event to the tracer, swallowing observer errors;
    ``monotonic`` stamps it with a ``perf_counter`` reading the caller
    already took."""
    if tracer is None:
        return
    with contextlib.suppress(Exception):
        event = StageEvent(kind, stage, layer, **data)
        if monotonic is not None:
            event.monotonic = monotonic
        tracer.on_event(event)
